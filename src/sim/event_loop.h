#ifndef DCG_SIM_EVENT_LOOP_H_
#define DCG_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace dcg::sim {

/// Identifies a scheduled event so it can be cancelled. Encodes a slab slot
/// and a generation; ids are never reused (the generation advances every
/// time a slot fires or is cancelled), so a stale id is always a no-op.
using EventId = uint64_t;

/// Single-threaded discrete-event scheduler.
///
/// Events are callbacks scheduled at absolute simulated times. `Run()` pops
/// them in (time, insertion-order) order, advancing the logical clock to each
/// event's timestamp before invoking it. Two events at the same timestamp
/// fire in the order they were scheduled, which keeps runs deterministic.
///
/// Callbacks live inline in a slab of slots recycled through a free list —
/// no per-event hash-map lookup, insert, or erase on the hot path, and no
/// allocation for a callable that fits sim::Callback's inline storage: it
/// is constructed straight in its slot and invoked there. The
/// priority queue is a 4-ary min-heap of POD entries carrying the slot and
/// the generation the id was issued under; cancellation just bumps the
/// slot's generation, and the stale queue entry is discarded when it
/// surfaces (or swept out wholesale when tombstones outnumber live events,
/// so cancel-heavy churn cannot balloon the heap). Firing order is a pure
/// function of (time, seq) — a total order, since seq is unique — so
/// neither slot recycling, heap arity, nor compaction can perturb a seeded
/// run.
///
/// The loop is the spine of the whole reproduction: servers, networks,
/// clients, and the Read Balancer are all expressed as chains of events.
class EventLoop {
 public:
  EventLoop() = default;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time. Starts at 0.
  Time Now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at`. Scheduling in the past
  /// (before `Now()`) clamps to `Now()`; the event still runs. `fn` is any
  /// `void()` callable (or a Callback); it is built directly in its slot.
  template <typename F>
  EventId ScheduleAt(Time at, F&& fn) {
    const uint32_t slot_idx = AcquireSlot();
    SlotAt(slot_idx).fn = std::forward<F>(fn);
    return Enqueue(at, slot_idx);
  }

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to 0.
  template <typename F>
  EventId ScheduleAfter(Duration delay, F&& fn) {
    return ScheduleAt(delay < 0 ? now_ : now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns true if the event existed and had not
  /// yet fired. Cancelling an already-fired or unknown id is a no-op.
  bool Cancel(EventId id);

  /// Runs events until the queue is empty or the clock would pass `until`.
  /// Events scheduled exactly at `until` do run. Returns the number of
  /// events executed.
  uint64_t RunUntil(Time until);

  /// Runs until the queue is empty.
  uint64_t RunAll();

  /// Executes at most one pending event. Returns false if the queue is empty.
  bool Step();

  /// Number of live (non-cancelled) events waiting in the queue.
  size_t PendingEvents() const { return pending_; }

 private:
  struct Event {
    Time at;
    uint64_t seq;  // tie-breaker: insertion order
    uint32_t slot;
    uint32_t gen;  // generation the id was issued under
  };
  static bool Sooner(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  /// One slab slot. `gen` advances on fire/cancel, which simultaneously
  /// invalidates the outstanding EventId and any queue entry pointing here.
  struct Slot {
    Callback fn;
    uint32_t gen = 1;  // 0 is reserved so EventId 0 is never valid
    bool live = false;
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(slot) << 32) | gen;
  }

  // A free slot (recycled, or a fresh one at the end of the slab).
  uint32_t AcquireSlot();
  // Marks the slot holding a freshly built callback live and queues it.
  EventId Enqueue(Time at, uint32_t slot_idx);

  // Invalidates a slot on fire/cancel: marks it dead and advances the
  // generation, so its id and queue entry go stale.
  void Invalidate(Slot* slot);
  // Drops the callback's captured state and recycles the index.
  void Recycle(uint32_t slot_idx);

  // Slots live in fixed-size chunks so slab growth never moves (and never
  // re-constructs) existing callbacks; a slot's address is stable for life.
  static constexpr uint32_t kSlabChunkBits = 8;
  static constexpr uint32_t kSlabChunkSize = 1u << kSlabChunkBits;

  Slot& SlotAt(uint32_t i) {
    return slabs_[i >> kSlabChunkBits][i & (kSlabChunkSize - 1)];
  }
  const Slot& SlotAt(uint32_t i) const {
    return slabs_[i >> kSlabChunkBits][i & (kSlabChunkSize - 1)];
  }

  // True when the heap entry's slot was cancelled or refired since the
  // entry was pushed.
  bool IsStale(const Event& ev) const {
    const Slot& slot = SlotAt(ev.slot);
    return !slot.live || slot.gen != ev.gen;
  }

  // 4-ary min-heap over (at, seq): shallower than a binary heap, and each
  // sift-down level reads one contiguous run of children — fewer cache
  // lines per pop when the heap is deep.
  void HeapPush(const Event& ev);
  void HeapPop();
  void SiftDown(size_t i);

  // Sweeps cancelled tombstones out of the heap when they outnumber live
  // events; amortized O(1) per cancel.
  void CompactIfWorthwhile();

  // Discards cancelled tombstones at the head of the queue. Returns the
  // next live event, or nullptr if the queue drained.
  const Event* PeekLive();

  // Pops `ev` (the current queue head) and runs its callback in its slot.
  // The slot is invalidated before the call (a self-Cancel returns false)
  // and recycled after it; slot addresses are stable, so the callback may
  // schedule freely while it runs.
  void Fire(const Event& ev);

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  size_t pending_ = 0;
  size_t stale_in_heap_ = 0;
  uint32_t slot_count_ = 0;  // slots ever created, across all chunks
  std::vector<Event> heap_;
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace dcg::sim

#endif  // DCG_SIM_EVENT_LOOP_H_
