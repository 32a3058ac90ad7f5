// util::FunctionRef: calls through to the callable it refers to, without
// copying it, for lambdas, mutable functors, std::function and other
// FunctionRefs, with void and non-void results.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "util/function_ref.hpp"

namespace autopn::util {
namespace {

int call_with(FunctionRef<int(int)> fn, int x) { return fn(x); }

TEST(FunctionRef, CallsALambdaPassedStraightIn) {
  const int offset = 10;
  EXPECT_EQ(call_with([offset](int x) { return x + offset; }, 5), 15);
}

TEST(FunctionRef, RefersToTheCallableInsteadOfCopyingIt) {
  struct Counter {
    int calls = 0;
    int operator()(int x) { return x + ++calls; }
  };
  Counter counter;
  EXPECT_EQ(call_with(counter, 1), 2);
  EXPECT_EQ(call_with(counter, 1), 3);
  EXPECT_EQ(counter.calls, 2);
}

TEST(FunctionRef, CapturesLargerThanStdFunctionsBufferNeedNoCopy) {
  std::array<long, 8> weights{1, 2, 3, 4, 5, 6, 7, 8};
  const auto dot = [weights](int x) {
    long sum = 0;
    for (long w : weights) sum += w * x;
    return static_cast<int>(sum);
  };
  EXPECT_EQ(call_with(dot, 2), 72);
}

TEST(FunctionRef, WrapsAStdFunctionAndAnotherRef) {
  std::function<int(int)> twice = [](int x) { return 2 * x; };
  EXPECT_EQ(call_with(twice, 4), 8);
  const FunctionRef<int(int)> ref = twice;
  EXPECT_EQ(call_with(ref, 5), 10);
}

TEST(FunctionRef, VoidSignatureDiscardsTheResultAndPassesReferences) {
  std::string log;
  const auto append = [](std::string& out, const char* text) {
    out += text;
    return out.size();
  };
  const FunctionRef<void(std::string&, const char*)> ref = append;
  ref(log, "ab");
  ref(log, "c");
  EXPECT_EQ(log, "abc");
}

TEST(FunctionRef, MoveOnlyArgumentsAreForwarded) {
  const auto take = [](std::unique_ptr<int> p) { return *p; };
  const FunctionRef<int(std::unique_ptr<int>)> ref = take;
  EXPECT_EQ(ref(std::make_unique<int>(7)), 7);
}

}  // namespace
}  // namespace autopn::util
