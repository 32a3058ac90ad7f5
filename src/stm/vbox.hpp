#pragma once
// Versioned boxes — the multi-version storage cells of the PN-STM (the C++
// analogue of JVSTM's VBox). Each box keeps a chain of immutable bodies,
// newest first; a transaction reads the newest body whose version does not
// exceed its root snapshot, which makes every read set trivially consistent
// (multi-version snapshot reads) and confines validation to commit time.
//
// Concurrency contract:
//  * readers traverse the chain lock-free (acquire-load of the head);
//  * writers install new bodies only under the CommitManager's commit mutex,
//    and opportunistically prune bodies no active snapshot can reach;
//  * values are immutable once published (held via shared_ptr<const void>).

#include <cstdint>
#include <memory>
#include <string>

#include "util/sync.hpp"

namespace autopn::stm {

namespace sync = autopn::sync;

class Tx;

/// One committed version of a box's value. `version` and `value` are written
/// once, before the body is published into the chain; readers reach them only
/// through the acquire edge of that publication — which is exactly what the
/// sync::Shared wrapper lets the model checker verify.
struct Body {
  sync::Shared<std::uint64_t> version;
  sync::Shared<std::shared_ptr<const void>> value;
  /// Next-older body. Atomic because pruning truncates it (stores nullptr)
  /// while readers traverse; a reader never follows it past a body at or
  /// below its snapshot, so truncated tails are unreachable to it.
  sync::Atomic<Body*> next;
};

/// Type-erased box base. All transactional machinery (read/write sets,
/// validation, installation) works on VBoxBase; VBox<T> adds the typed API.
class VBoxBase {
 public:
  VBoxBase() = default;
  ~VBoxBase();

  VBoxBase(const VBoxBase&) = delete;
  VBoxBase& operator=(const VBoxBase&) = delete;

  /// Newest committed body, or nullptr if the box was never initialized.
  [[nodiscard]] const Body* newest() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Newest body with version <= snapshot, or nullptr if none exists.
  [[nodiscard]] const Body* body_at(std::uint64_t snapshot) const noexcept;

  /// Version of the newest committed body (0 if never written).
  [[nodiscard]] std::uint64_t newest_version() const noexcept {
    const Body* b = newest();
    return b != nullptr ? b->version.read() : 0;
  }

  /// Installs a new body. Caller must hold the commit mutex.
  /// `min_active_snapshot` lets the box prune bodies that no active or future
  /// transaction can observe (all bodies strictly older than the newest body
  /// with version <= min_active_snapshot).
  void install(std::shared_ptr<const void> value, std::uint64_t version,
               std::uint64_t min_active_snapshot);

  /// Number of retained bodies (test/diagnostic helper; O(chain)). Requires
  /// quiescence: it walks the full chain, including bodies a concurrent
  /// pruner may free.
  [[nodiscard]] std::size_t chain_length() const noexcept;

  /// Optional diagnostic label shown by the contention profiler (e.g.
  /// "district[3]"). Not thread-safe; set during data-structure setup.
  void set_label(std::string label) {
    label_ = std::make_unique<std::string>(std::move(label));
  }
  [[nodiscard]] const std::string* label() const noexcept { return label_.get(); }

 private:
  /// Truncates and frees bodies older than the newest one at or below
  /// `min_active_snapshot`, starting the scan at `from`. Opportunistic: if
  /// another thread is already pruning this box, skips — the next install
  /// will catch up. Installs are serialized by the commit mutex, so the
  /// guard is a backstop rather than a live arbiter (see vbox.cpp).
  void prune(Body* from, std::uint64_t min_active_snapshot) noexcept;

  sync::Atomic<Body*> head_{nullptr};
  sync::Atomic<bool> prune_busy_{false};  ///< serializes pruning per box
  std::unique_ptr<std::string> label_;
};

/// Typed versioned box.
///
/// Transactional access goes through read(tx)/write(tx, v); `peek()` returns
/// the newest committed value without transactional bookkeeping (useful for
/// post-run verification), and `put_initial` seeds the box before concurrent
/// execution starts (requires quiescence).
template <typename T>
class VBox : public VBoxBase {
 public:
  VBox() = default;
  explicit VBox(T initial) { put_initial(std::move(initial)); }

  /// Transactional read; records the access in tx's read set.
  [[nodiscard]] T read(Tx& tx) const;

  /// Transactional write; buffered in tx's write set until commit.
  void write(Tx& tx, T value) const;

  /// Newest committed value. Requires the box to have been initialized.
  [[nodiscard]] T peek() const {
    return *static_cast<const T*>(newest()->value.read().get());
  }

  /// Seeds the box with an initial version-0 value. Not thread-safe; call
  /// before transactions touch the box.
  void put_initial(T value) {
    install(std::make_shared<const T>(std::move(value)), 0, 0);
  }
};

}  // namespace autopn::stm
