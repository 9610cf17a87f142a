#include "sim/event_loop.h"

#include <utility>

namespace dcg::sim {

namespace {
constexpr size_t kArity = 4;
// Below this heap size a compaction sweep costs more than the tombstones.
constexpr size_t kMinCompactSize = 1024;
}  // namespace

void EventLoop::HeapPush(const Event& ev) {
  // Hole insertion: shift ancestors down into the hole instead of swapping —
  // one write per level plus a final placement.
  size_t i = heap_.size();
  heap_.push_back(ev);
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Sooner(ev, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

void EventLoop::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const Event val = heap_[i];
  for (;;) {
    const size_t first = i * kArity + 1;
    if (first >= n) break;
    const size_t last = first + kArity < n ? first + kArity : n;
    size_t best = first;
    for (size_t c = first + 1; c < last; ++c) {
      if (Sooner(heap_[c], heap_[best])) best = c;
    }
    if (!Sooner(heap_[best], val)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = val;
}

void EventLoop::HeapPop() {
  // Floyd's two-phase pop: walk the hole down the min-child path to a leaf
  // (3 comparisons per level instead of 4 — no comparison against the
  // replacement), then sift the old back element up from the leaf. The back
  // element is usually leaf-grade, so the sift-up almost always stops
  // immediately.
  const size_t n = heap_.size() - 1;
  if (n == 0) {
    heap_.pop_back();
    return;
  }
  const Event val = heap_[n];
  heap_.pop_back();
  size_t i = 0;
  for (;;) {
    const size_t first = i * kArity + 1;
    if (first >= n) break;
    const size_t last = first + kArity < n ? first + kArity : n;
    size_t best = first;
    for (size_t c = first + 1; c < last; ++c) {
      if (Sooner(heap_[c], heap_[best])) best = c;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Sooner(val, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = val;
}

void EventLoop::CompactIfWorthwhile() {
  if (heap_.size() < kMinCompactSize || stale_in_heap_ <= pending_) return;
  size_t kept = 0;
  for (const Event& ev : heap_) {
    if (!IsStale(ev)) heap_[kept++] = ev;
  }
  heap_.resize(kept);
  stale_in_heap_ = 0;
  if (kept > 1) {
    for (size_t i = (kept - 2) / kArity + 1; i-- > 0;) SiftDown(i);
  }
}

uint32_t EventLoop::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot_idx = free_slots_.back();
    free_slots_.pop_back();
    return slot_idx;
  }
  if ((slot_count_ & (kSlabChunkSize - 1)) == 0) {
    slabs_.emplace_back(std::make_unique<Slot[]>(kSlabChunkSize));
  }
  return slot_count_++;
}

EventId EventLoop::Enqueue(Time at, uint32_t slot_idx) {
  if (at < now_) at = now_;
  Slot& slot = SlotAt(slot_idx);
  slot.live = true;
  HeapPush(Event{at, next_seq_++, slot_idx, slot.gen});
  ++pending_;
  return MakeId(slot_idx, slot.gen);
}

void EventLoop::Invalidate(Slot* slot) {
  slot->live = false;
  if (++slot->gen == 0) slot->gen = 1;  // 0 stays reserved across wraparound
  --pending_;
}

void EventLoop::Recycle(uint32_t slot_idx) {
  SlotAt(slot_idx).fn.Reset();
  free_slots_.push_back(slot_idx);
}

bool EventLoop::Cancel(EventId id) {
  const uint32_t slot_idx = static_cast<uint32_t>(id >> 32);
  const uint32_t gen = static_cast<uint32_t>(id);
  if (slot_idx >= slot_count_) return false;
  Slot& slot = SlotAt(slot_idx);
  if (!slot.live || slot.gen != gen) return false;
  Invalidate(&slot);
  Recycle(slot_idx);
  ++stale_in_heap_;  // the heap entry is now a tombstone
  CompactIfWorthwhile();
  return true;
}

const EventLoop::Event* EventLoop::PeekLive() {
  while (!heap_.empty()) {
    const Event& ev = heap_.front();
    if (!IsStale(ev)) return &ev;
    HeapPop();  // cancelled tombstone
    --stale_in_heap_;
  }
  return nullptr;
}

void EventLoop::Fire(const Event& ev) {
  const Time at = ev.at;
  const uint32_t slot_idx = ev.slot;
  HeapPop();  // invalidates `ev`
  Slot& slot = SlotAt(slot_idx);
  Invalidate(&slot);
  now_ = at;
  slot.fn();
  Recycle(slot_idx);
}

bool EventLoop::Step() {
  const Event* ev = PeekLive();
  if (ev == nullptr) return false;
  Fire(*ev);
  return true;
}

uint64_t EventLoop::RunUntil(Time until) {
  uint64_t executed = 0;
  while (const Event* ev = PeekLive()) {
    if (ev->at > until) break;
    Fire(*ev);
    ++executed;
  }
  // Advance the clock to the horizon even if the queue drained early, so
  // repeated RunUntil calls observe monotonically increasing time.
  if (now_ < until) now_ = until;
  return executed;
}

uint64_t EventLoop::RunAll() {
  uint64_t executed = 0;
  while (Step()) ++executed;
  return executed;
}

}  // namespace dcg::sim
