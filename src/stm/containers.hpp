#pragma once
// Transactional containers built on versioned boxes. These are the building
// blocks the benchmark ports use: TArray backs the Array microbenchmark and
// TMap backs Vacation's reservation tables and TPC-C's relations.
//
// The conflict unit is the versioned box, as in JVSTM: a TMap bucket is one
// copy-on-write box, so two transactions conflict when one writes a bucket
// the other read — even when they touch different keys of it. DESIGN.md §12
// records why a finer-grained alternative was measured and deleted.

#include <algorithm>
#include <cstddef>
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

}  // namespace autopn::stm
