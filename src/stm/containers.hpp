#pragma once
// Transactional containers built on versioned boxes. These are the building
// blocks the benchmark ports use: TArray backs the Array microbenchmark,
// TMap backs Vacation's reservation tables and TPC-C's relations, TQueue the
// producer/consumer hotspots.
//
// The conflict unit is the versioned box, as in JVSTM: a TMap bucket is one
// copy-on-write box and TQueue's head and tail cursors are one box each, so
// two transactions conflict when one writes a box the other read — even when
// they touch different keys of one bucket, or opposite ends of a mid-full
// queue. DESIGN.md §12 records why a finer-grained alternative was measured
// and deleted.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "stm/tx.hpp"

namespace autopn::stm {

namespace detail {

/// "name" or, when no name was given, a pointer-derived fallback so labels
/// of unnamed containers stay distinguishable in hotspot reports.
[[nodiscard]] inline std::string label_prefix(const std::string& name,
                                              const void* self,
                                              const char* kind) {
  if (!name.empty()) return name;
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%s@%p", kind, self);
  return buffer;
}

}  // namespace detail

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

  [[nodiscard]] T read(Tx& tx, std::size_t index) const {
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
    const auto bucket = tx.read_raw(box_for(key));
    return copy_value(find_entry(*cast(bucket), key));
  }

  [[nodiscard]] bool contains(Tx& tx, const Key& key) const {
    return get(tx, key).has_value();
  }

  /// Inserts or overwrites.
  void put(Tx& tx, const Key& key, Value value) const {
    const VBox<Bucket>& box = box_for(key);
    const auto read = tx.read_raw(box);
    Bucket bucket = *cast(read);
    if (Entry* entry = find_entry(bucket, key)) {
      entry->value = std::move(value);
    } else {
      bucket.push_back(Entry{key, std::move(value)});
    }
    tx.write_raw(box, std::make_shared<const Bucket>(std::move(bucket)));
  }

  /// Removes a key; returns whether it was present.
  bool erase(Tx& tx, const Key& key) const {
    const VBox<Bucket>& box = box_for(key);
    const auto read = tx.read_raw(box);
    Bucket bucket = *cast(read);
    auto it = std::find_if(bucket.begin(), bucket.end(),
                           [&](const Entry& e) { return e.key == key; });
    if (it == bucket.end()) return false;
    bucket.erase(it);
    tx.write_raw(box, std::make_shared<const Bucket>(std::move(bucket)));
    return true;
  }

  /// Applies `fn(key, value)` to every entry visible to the transaction
  /// (scans every bucket; O(capacity)).
  void for_each(Tx& tx, const std::function<void(const Key&, const Value&)>& fn) const {
    for (const auto& box : buckets_) {
      const auto bucket = tx.read_raw(*box);
      for (const Entry& entry : *cast(bucket)) fn(entry.key, entry.value);
    }
  }

  /// Number of entries visible to the transaction (O(capacity)).
  [[nodiscard]] std::size_t size(Tx& tx) const {
    std::size_t n = 0;
    for (const auto& box : buckets_) n += cast(tx.read_raw(*box))->size();
    return n;
  }

 private:
  [[nodiscard]] static const Bucket* cast(const std::shared_ptr<const void>& p) {
    return static_cast<const Bucket*>(p.get());
  }

  [[nodiscard]] static const Entry* find_entry(const Bucket& bucket,
                                               const Key& key) {
    for (const Entry& entry : bucket) {
      if (entry.key == key) return &entry;
    }
    return nullptr;
  }
  [[nodiscard]] static Entry* find_entry(Bucket& bucket, const Key& key) {
    for (Entry& entry : bucket) {
      if (entry.key == key) return &entry;
    }
    return nullptr;
  }

  [[nodiscard]] static std::optional<Value> copy_value(const Entry* entry) {
    if (entry == nullptr) return std::nullopt;
    return entry->value;
  }

  [[nodiscard]] const VBox<Bucket>& box_for(const Key& key) const {
    return *buckets_[Hash{}(key) % buckets_.size()];
  }

  std::vector<std::unique_ptr<VBox<Bucket>>> buckets_;
};

/// Bounded transactional FIFO queue over a ring of VBox slots. Head and tail
/// cursors are independent boxes; push and pop each read both, so any two
/// concurrent queue operations conflict.
template <typename T>
class TQueue {
 public:
  explicit TQueue(std::size_t capacity, const std::string& name = {})
      : capacity_(capacity),
        slots_(std::max<std::size_t>(capacity, 1), T{},
               detail::label_prefix(name, this, "tqueue") + ".slot"),
        head_(0),
        tail_(0) {
    if (capacity == 0) throw std::invalid_argument{"TQueue needs capacity >= 1"};
    const std::string prefix = detail::label_prefix(name, this, "tqueue");
    head_.set_label(prefix + ".head");
    tail_.set_label(prefix + ".tail");
  }

  /// Appends an element; returns false when the queue is full.
  bool push(Tx& tx, T value) const {
    const std::size_t tail = tail_.read(tx);
    if (tail - head_.read(tx) >= capacity_) return false;
    slots_.write(tx, tail % capacity_, std::move(value));
    tail_.write(tx, tail + 1);
    return true;
  }

  /// Removes the oldest element; std::nullopt when empty.
  [[nodiscard]] std::optional<T> pop(Tx& tx) const {
    const std::size_t head = head_.read(tx);
    if (head == tail_.read(tx)) return std::nullopt;
    T value = slots_.read(tx, head % capacity_);
    head_.write(tx, head + 1);
    return value;
  }

  /// Oldest element without removing it; std::nullopt when empty.
  [[nodiscard]] std::optional<T> front(Tx& tx) const {
    const std::size_t head = head_.read(tx);
    if (head == tail_.read(tx)) return std::nullopt;
    return slots_.read(tx, head % capacity_);
  }

  [[nodiscard]] std::size_t size(Tx& tx) const {
    return tail_.read(tx) - head_.read(tx);
  }
  [[nodiscard]] bool empty(Tx& tx) const { return size(tx) == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Committed element count outside any transaction (verification).
  [[nodiscard]] std::size_t peek_size() const {
    return tail_.peek() - head_.peek();
  }

 private:
  std::size_t capacity_;
  TArray<T> slots_;
  VBox<std::size_t> head_;
  VBox<std::size_t> tail_;
};

}  // namespace autopn::stm
