#pragma once
// Control-flow exceptions of the PN-STM. A ConflictError unwinds one
// transaction attempt; the runtime's retry loops catch it and re-execute the
// aborted transaction (the whole tree for a top-level conflict, just the
// child for a sibling conflict — the partial-abort benefit of closed
// nesting).

#include <exception>

namespace autopn::stm {

/// Where a conflict was detected; recorded in statistics.
enum class ConflictKind {
  kTopLevelValidation,  ///< top-level read set stale at global commit
  kSiblingWrite,        ///< a sibling committed a write this child had read
  kStaleReRead,         ///< re-read observed a changed ancestor entry
  kExplicitRetry,       ///< user-requested retry
  kInjected,            ///< fault injected by an armed failpoint (chaos tests)
};

class ConflictError final : public std::exception {
 public:
  explicit ConflictError(ConflictKind kind) noexcept : kind_(kind) {}

  [[nodiscard]] ConflictKind kind() const noexcept { return kind_; }

  [[nodiscard]] const char* what() const noexcept override {
    switch (kind_) {
      case ConflictKind::kTopLevelValidation: return "top-level validation conflict";
      case ConflictKind::kSiblingWrite: return "sibling write conflict";
      case ConflictKind::kStaleReRead: return "stale re-read conflict";
      case ConflictKind::kExplicitRetry: return "explicit retry";
      case ConflictKind::kInjected: return "injected fault";
    }
    return "conflict";
  }

 private:
  ConflictKind kind_;
};

/// Thrown by Stm::run_top when the thread-ambient ScopedDeadline (installed
/// by the serving layer) reports the caller's deadline passed between retry
/// attempts. The transaction has NOT committed; nothing was installed.
class DeadlineExceeded final : public std::exception {
 public:
  [[nodiscard]] const char* what() const noexcept override {
    return "transaction deadline exceeded before commit";
  }
};

}  // namespace autopn::stm
