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
//  * a value lives in its body (ValueBody<T>) and never changes once the body
//    is built; an installed body belongs to its chain (before that, to one
//    transaction: see tx.hpp).

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "util/sync.hpp"

namespace autopn::stm {

namespace sync = autopn::sync;

class Tx;

/// One version of a box's value, which the ValueBody<T> built on it holds.
/// The value is written when the body is built and `version` when it is
/// installed, both before the body is published into the chain; readers
/// reach them only through the acquire edge of that publication — which is
/// exactly what the sync::Shared wrapper lets the model checker verify.
struct Body {
  sync::Shared<std::uint64_t> version{};
  /// Next-older body. Atomic because pruning truncates it (stores nullptr)
  /// while readers traverse; a reader never follows it past a body at or
  /// below its snapshot, so truncated tails are unreachable to it. Before
  /// install, the body's owner may chain it into its retire list here.
  sync::Atomic<Body*> next{nullptr};
  /// Frees the body as the ValueBody<T> it was built as.
  void (*destroy)(Body*) noexcept = nullptr;
};

struct BodyDeleter {
  void operator()(Body* body) const noexcept { body->destroy(body); }
};
/// An unpublished body and its one owner.
using BodyPtr = std::unique_ptr<Body, BodyDeleter>;
/// Frees `body` and every body chained after it through `next`.
void destroy_chain(Body* body) noexcept;

template <typename T>
struct ValueBody final : Body {
  explicit ValueBody(T v) : Body{.destroy = &destroy_as}, value(std::move(v)) {}
  static void destroy_as(Body* body) noexcept { delete static_cast<ValueBody*>(body); }
  [[nodiscard]] static BodyPtr make(T v) {
    return BodyPtr{new ValueBody{std::move(v)}};
  }
  [[nodiscard]] static const T& of(const Body* body) {
    return static_cast<const ValueBody*>(body)->value.read();
  }

  sync::Shared<T> value;
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

  /// Links `body` in as the newest version; the chain owns it from here.
  /// Caller must hold the commit mutex. `min_active_snapshot` lets the box
  /// prune bodies that no active or future transaction can observe (all
  /// bodies strictly older than the newest body with version <=
  /// min_active_snapshot).
  void install(BodyPtr body, std::uint64_t version,
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

  /// Transactional read; records the access in tx's read set. The reference
  /// stays valid and unchanged until the transaction attempt ends.
  [[nodiscard]] const T& read(Tx& tx) const;

  /// Transactional write; buffered in tx's write set until commit.
  void write(Tx& tx, T value) const;

  /// Newest committed value. Requires the box to have been initialized.
  [[nodiscard]] T peek() const { return ValueBody<T>::of(newest()); }

  /// Seeds the box with an initial version-0 value. Not thread-safe; call
  /// before transactions touch the box.
  void put_initial(T value) { install(ValueBody<T>::make(std::move(value)), 0, 0); }
};

}  // namespace autopn::stm
