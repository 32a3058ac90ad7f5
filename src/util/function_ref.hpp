#pragma once
// FunctionRef<R(Args...)>: a non-owning reference to a callable, two
// pointers to copy, that never allocates, whatever the callable captures.
// It must not outlive the callable: a lambda passed straight to a
// FunctionRef parameter lives until the call returns.

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace autopn::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Refers to a lambda, functor or std::function (not to a plain function,
  /// which has no object to point at); implicit, as std::function's is.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_object_v<std::remove_reference_t<F>> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& callable) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(callable)))),
        call_([](void* object, Args... args) -> R {
          auto& target = *static_cast<std::remove_reference_t<F>*>(object);
          return static_cast<R>(std::invoke(target, std::forward<Args>(args)...));
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace autopn::util
