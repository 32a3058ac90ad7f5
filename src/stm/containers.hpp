#pragma once
// Transactional containers built on versioned boxes. These are the building
// blocks the benchmark ports use: TArray backs the Array microbenchmark, TMap
// backs Vacation's reservation tables and TPC-C's fixed-size relations, and
// TLog holds TPC-C's ever-growing orders, one box per order.
//
// The conflict unit is the versioned box, as in JVSTM: a TMap bucket is one
// copy-on-write box, so two transactions conflict when one writes a bucket
// the other read — even when they touch different keys of it. DESIGN.md §12
// records why a finer-grained alternative was measured and deleted.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "stm/tx.hpp"

namespace autopn::stm {

/// Fixed-size transactional array. Each slot is an independent VBox, so
/// disjoint-slot accesses never conflict. `name`, when given, labels every
/// slot ("name[i]") for the contention profiler.
template <typename T>
class TArray {
 public:
  TArray(std::size_t size, const T& initial, const std::string& name = {}) {
    slots_.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
      slots_.push_back(std::make_unique<VBox<T>>(initial));
      if (!name.empty()) {
        slots_.back()->set_label(name + "[" + std::to_string(i) + "]");
      }
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  [[nodiscard]] const T& read(Tx& tx, std::size_t index) const {
    return slot(index).read(tx);
  }

  void write(Tx& tx, std::size_t index, T value) const {
    slot(index).write(tx, std::move(value));
  }

  /// Non-transactional read of the newest committed value (verification).
  [[nodiscard]] T peek(std::size_t index) const { return slot(index).peek(); }

  [[nodiscard]] const VBox<T>& slot(std::size_t index) const {
    return *slots_.at(index);
  }

 private:
  std::vector<std::unique_ptr<VBox<T>>> slots_;
};

/// Transactional hash map with a fixed bucket array. Each bucket is a VBox
/// holding an immutable vector of entries, replaced whole on every write.
/// Sized so the expected bucket population stays small, this matches the
/// red-black-tree tables of the original STAMP Vacation port in access
/// behaviour while remaining simple to reason about.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class TMap {
 public:
  struct Entry {
    Key key;
    Value value;
  };
  using Bucket = std::vector<Entry>;

  /// `name`, when given, labels every bucket ("name[i]") for the contention
  /// profiler (Stm::contention_hotspots).
  explicit TMap(std::size_t bucket_count, const std::string& name = {}) {
    if (bucket_count == 0) throw std::invalid_argument{"TMap needs >= 1 bucket"};
    buckets_.reserve(bucket_count);
    for (std::size_t i = 0; i < bucket_count; ++i) {
      buckets_.push_back(std::make_unique<VBox<Bucket>>(Bucket{}));
      if (!name.empty()) {
        buckets_.back()->set_label(name + "[" + std::to_string(i) + "]");
      }
    }
  }

  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }
  /// Looks a key up; std::nullopt when absent.
  [[nodiscard]] std::optional<Value> get(Tx& tx, const Key& key) const {
    return lookup(box_for(key).read(tx), key);
  }

  /// Non-transactional lookup in the newest committed bucket
  /// (verification; requires quiescence).
  [[nodiscard]] std::optional<Value> peek(const Key& key) const {
    return lookup(box_for(key).peek(), key);
  }

  [[nodiscard]] bool contains(Tx& tx, const Key& key) const {
    return get(tx, key).has_value();
  }

  /// Inserts or overwrites.
  void put(Tx& tx, const Key& key, Value value) const {
    const VBox<Bucket>& box = box_for(key);
    Bucket bucket = box.read(tx);
    if (Entry* entry = find_entry(bucket, key)) {
      entry->value = std::move(value);
    } else {
      bucket.push_back(Entry{key, std::move(value)});
    }
    box.write(tx, std::move(bucket));
  }

  /// Removes a key; returns whether it was present.
  bool erase(Tx& tx, const Key& key) const {
    const VBox<Bucket>& box = box_for(key);
    Bucket bucket = box.read(tx);
    auto it = std::find_if(bucket.begin(), bucket.end(),
                           [&](const Entry& e) { return e.key == key; });
    if (it == bucket.end()) return false;
    bucket.erase(it);
    box.write(tx, std::move(bucket));
    return true;
  }

  /// Applies `fn(key, value)` to every entry visible to the transaction
  /// (scans every bucket; O(capacity)).
  void for_each(Tx& tx, const std::function<void(const Key&, const Value&)>& fn) const {
    for (const auto& box : buckets_) {
      for (const Entry& entry : box->read(tx)) fn(entry.key, entry.value);
    }
  }

  /// Number of entries visible to the transaction (O(capacity)).
  [[nodiscard]] std::size_t size(Tx& tx) const {
    std::size_t n = 0;
    for (const auto& box : buckets_) n += box->read(tx).size();
    return n;
  }

 private:
  /// The entry for `key` in `bucket` (const or not), or nullptr.
  template <typename B>
  [[nodiscard]] static auto* find_entry(B& bucket, const Key& key) {
    auto it = std::find_if(bucket.begin(), bucket.end(),
                           [&](const Entry& e) { return e.key == key; });
    return it == bucket.end() ? nullptr : &*it;
  }

  [[nodiscard]] static std::optional<Value> lookup(const Bucket& bucket,
                                                   const Key& key) {
    const Entry* entry = find_entry(bucket, key);
    if (entry == nullptr) return std::nullopt;
    return entry->value;
  }

  [[nodiscard]] const VBox<Bucket>& box_for(const Key& key) const {
    return *buckets_[Hash{}(key) % buckets_.size()];
  }

  std::vector<std::unique_ptr<VBox<Bucket>>> buckets_;
};

/// Append-only transactional log: ids 1, 2, 3, ... each name one VBox, so
/// finding, reading or writing an entry is O(1) however long the log grows.
/// The caller allocates ids — from a transactional counter, which then stays
/// the conflict point — and a box nothing has committed to reads like any
/// unseeded VBox (std::logic_error). Boxes live in segments of 64, 128, 256,
/// ... boxes, allocated on first touch; 26 segments cover every positive int.
/// Boxes never move, so a reference stays valid for the log's lifetime. Boxes
/// carry no label: a string per entry would cost memory per entry.
template <typename T>
class TLog {
 public:
  TLog() = default;
  ~TLog() {
    for (auto& segment : segments_) {
      std::unique_ptr<VBox<T>[]> owned{segment.load(std::memory_order_acquire)};
    }
  }
  TLog(const TLog&) = delete;
  TLog& operator=(const TLog&) = delete;

  [[nodiscard]] const T& read(Tx& tx, int id) const { return box(id).read(tx); }

  void write(Tx& tx, int id, T value) const { box(id).write(tx, std::move(value)); }

  /// The box of entry `id` (>= 1); throws std::out_of_range otherwise.
  [[nodiscard]] const VBox<T>& box(int id) const {
    if (id < 1) throw std::out_of_range{"TLog ids start at 1"};
    // Segment s holds the 64 << s slots [64 << s, 128 << s); id 1 is slot 64.
    const auto slot = static_cast<std::uint64_t>(id) + kFirstSegment - 1;
    const auto s = static_cast<std::size_t>(std::bit_width(slot)) - kFirstSegmentBits - 1;
    const std::uint64_t first_slot = kFirstSegment << s;
    return segment(s)[slot - first_slot];
  }

 private:
  static constexpr std::size_t kFirstSegmentBits = 6;
  static constexpr std::uint64_t kFirstSegment = 1u << kFirstSegmentBits;
  static constexpr std::size_t kSegments = 26;

  /// Segment `s`, allocated on first touch. Racing allocators publish with
  /// one CAS; the loser frees its copy and uses the winner's.
  [[nodiscard]] VBox<T>* segment(std::size_t s) const {
    VBox<T>* current = segments_[s].load(std::memory_order_acquire);
    if (current != nullptr) return current;
    auto fresh = std::make_unique<VBox<T>[]>(kFirstSegment << s);
    if (segments_[s].compare_exchange_strong(current, fresh.get(),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      return fresh.release();
    }
    return current;
  }

  mutable std::array<std::atomic<VBox<T>*>, kSegments> segments_{};
};

}  // namespace autopn::stm
