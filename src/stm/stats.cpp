#include "stm/stats.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>

#include "stm/vbox.hpp"

namespace autopn::stm {

StmStats::StmStats(std::size_t shards)
    : top_commits_(shards),
      top_aborts_(shards),
      child_commits_(shards),
      child_aborts_(shards),
      reads_(shards),
      writes_(shards),
      aborts_validation_(shards),
      aborts_sibling_(shards),
      aborts_explicit_(shards),
      aborts_injected_(shards),
      top_escalations_(shards) {}

void StmStats::bump_conflict_kind(ConflictKind kind) noexcept {
  switch (kind) {
    case ConflictKind::kTopLevelValidation:
      aborts_validation_.add();
      break;
    case ConflictKind::kSiblingWrite:
    case ConflictKind::kStaleReRead:
      aborts_sibling_.add();
      break;
    case ConflictKind::kExplicitRetry:
      aborts_explicit_.add();
      break;
    case ConflictKind::kInjected:
      aborts_injected_.add();
      break;
  }
}

StmStatsSnapshot StmStats::snapshot() const {
  StmStatsSnapshot snap;
  snap.top_commits = top_commits_.load();
  snap.top_aborts = top_aborts_.load();
  snap.child_commits = child_commits_.load();
  snap.child_aborts = child_aborts_.load();
  snap.reads = reads_.load();
  snap.writes = writes_.load();
  snap.aborts_validation = aborts_validation_.load();
  snap.aborts_sibling = aborts_sibling_.load();
  snap.aborts_explicit = aborts_explicit_.load();
  snap.aborts_injected = aborts_injected_.load();
  snap.top_escalations = top_escalations_.load();
  return snap;
}

void StmStats::reset() noexcept {
  top_commits_.reset();
  top_aborts_.reset();
  child_commits_.reset();
  child_aborts_.reset();
  reads_.reset();
  writes_.reset();
  aborts_validation_.reset();
  aborts_sibling_.reset();
  aborts_explicit_.reset();
  aborts_injected_.reset();
  top_escalations_.reset();
}

ContentionProfiler::ContentionProfiler(std::size_t capacity)
    : slots_(util::ceil_pow2(std::max<std::size_t>(2, capacity))),
      mask_(slots_.size() - 1) {}

void ContentionProfiler::note(const VBoxBase* box) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  // libstdc++'s pointer hash is the identity; fold the high bits down and
  // drop alignment zeros so heap neighbours don't all probe the same run.
  const auto raw = reinterpret_cast<std::uintptr_t>(box);
  const auto hash = static_cast<std::size_t>((raw >> 4) ^ (raw >> 20));
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[(hash + i) & mask_];
    const VBoxBase* key = slot.key.load(std::memory_order_acquire);
    // Claim the empty slot; a losing racer just re-examines it.
    if (key == nullptr &&
        slot.key.compare_exchange_strong(key, box, std::memory_order_acq_rel)) {
      key = box;
    }
    if (key == box) {
      slot.count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<ContentionProfiler::Hotspot> ContentionProfiler::hotspots(
    std::size_t top_n) const {
  // Aggregate by rendered label: distinct boxes sharing a label fold together.
  std::unordered_map<std::string, std::uint64_t> by_label;
  for (const Slot& slot : slots_) {
    const VBoxBase* key = slot.key.load(std::memory_order_acquire);
    if (key == nullptr) continue;
    const std::uint64_t count = slot.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    std::string label;
    if (const std::string* box_label = key->label()) {
      label = *box_label;
    } else {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "box@%p",
                    static_cast<const void*>(key));
      label = buffer;
    }
    by_label[std::move(label)] += count;
  }
  std::vector<Hotspot> out;
  out.reserve(by_label.size());
  for (auto& [label, count] : by_label) {
    out.push_back(Hotspot{label, count});
  }
  std::sort(out.begin(), out.end(), [](const Hotspot& a, const Hotspot& b) {
    return a.conflicts > b.conflicts;
  });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

void ContentionProfiler::reset() noexcept {
  for (Slot& slot : slots_) {
    slot.count.store(0, std::memory_order_relaxed);
    slot.key.store(nullptr, std::memory_order_release);
  }
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace autopn::stm
