#pragma once

// Lock-free shared-memory data plane for the real-thread runtime
// (DESIGN.md §14).
//
// Three pieces, composed by ThreadRuntime's per-rank contexts:
//
//  - SpscRing<T>: a fixed-capacity single-producer/single-consumer ring
//    buffer.  One thread may push, one thread may pop; the two indices
//    are published with release stores and observed with acquire loads,
//    so the slot write always happens-before the index load that makes
//    it visible.  Slots are preconstructed once — steady-state delivery
//    moves a Message into an existing slot and out again, with no
//    allocation and no lock.
//
//  - SpscChannel<T>: one (sender -> receiver) mailbox lane.  The common
//    case is the ring; when the ring is full the producer diverts to a
//    mutex-guarded overflow queue ("overflow mode") so delivery never
//    blocks and never drops.  Per-pair FIFO order survives overflow:
//    while the overflow flag is set the producer never touches the ring,
//    and the consumer drains the (older) ring entries before the
//    overflow queue, clearing the flag only when the queue is empty —
//    both transitions serialized by the overflow mutex.
//
//  - ParkingLot: an eventcount so an idle consumer still sleeps instead
//    of spinning across its (empty) lanes.  The producer's fast path is
//    one fence + one relaxed load; the condvar is touched only when a
//    consumer has actually announced itself.
//
// Everything here is also exercised by tests/test_spsc_ring.cpp (wrap,
// backpressure, fuzzed drain-while-fill) and the TSan job (CI `tsan`).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "core/thread_annotations.hpp"

namespace sf {

namespace detail {

// Asymmetric Dekker fence for the eventcount (DESIGN.md §14).  The
// parking side runs only when a rank goes idle; the delivering side
// runs on every message.  membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)
// lets the slow side buy the store-load ordering for both sides: the
// kernel interrupts every running thread of the process with a full
// barrier, so the fast side needs only compiler ordering (the IPI
// either lands after the producer's publish retired — then the parking
// thread's post-barrier re-check sees the publish — or the producer's
// waiter load runs after the barrier and sees the announcement).  When
// the syscall is unavailable (non-Linux, seccomp) both sides fall back
// to the symmetric seq_cst fence.
//
// ThreadSanitizer models neither standalone fences nor membarrier, and
// GCC rejects atomic_thread_fence under -fsanitize=thread (-Wtsan).  A
// TSan build therefore runs both halves as a seq_cst RMW on one shared
// atomic: RMWs on one object are totally ordered and each acquires what
// the earlier ones released, so whichever side's RMW comes second sees
// the other side's store — the same Dekker guarantee, in a form TSan
// checks.  Release builds never compile this branch.
#if defined(__SANITIZE_THREAD__)
#define SF_PARKING_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SF_PARKING_TSAN 1
#endif
#endif

#if defined(SF_PARKING_TSAN)
inline void parking_tsan_fence() {
  static std::atomic<unsigned> word{0};
  // lockfree-lint: spsc — both parking halves RMW this one word; the
  // later RMW synchronizes with the earlier (acq_rel), so the earlier
  // side's store happens-before the later side's load (Dekker).
  word.fetch_add(1, std::memory_order_seq_cst);
}
inline void parking_heavy_fence() { parking_tsan_fence(); }
inline void parking_light_fence() { parking_tsan_fence(); }
#elif defined(__linux__)
inline bool asymmetric_fence_available() {
  static const bool ok = [] {
    const long cmds = ::syscall(__NR_membarrier, MEMBARRIER_CMD_QUERY, 0, 0);
    if (cmds <= 0 ||
        !(cmds & MEMBARRIER_CMD_PRIVATE_EXPEDITED) ||
        !(cmds & MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED)) {
      return false;
    }
    return ::syscall(__NR_membarrier,
                     MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, 0, 0) == 0;
  }();
  return ok;
}

inline void parking_heavy_fence() {
  if (asymmetric_fence_available()) {
    ::syscall(__NR_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0);
    return;
  }
  // lockfree-lint: spsc — symmetric fallback; pairs with the fence in
  // parking_light_fence so at least one side observes the other
  // (store-load ordering, Dekker happens-before argument in ParkingLot).
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

inline void parking_light_fence() {
  if (asymmetric_fence_available()) {
    // lockfree-lint: spsc — compiler-only ordering: the hardware
    // store-load ordering is supplied by the parker's membarrier IPI,
    // which happens-before the parker's lane re-check (see
    // parking_heavy_fence above).
    std::atomic_signal_fence(std::memory_order_seq_cst);
    return;
  }
  // lockfree-lint: spsc — symmetric fallback; pairs with the fence in
  // parking_heavy_fence (store-load ordering, Dekker) so the publish
  // happens-before the parker's re-check or the announcement is seen.
  std::atomic_thread_fence(std::memory_order_seq_cst);
}
#else
inline void parking_heavy_fence() {
  // lockfree-lint: spsc — seq_cst fence; pairs with parking_light_fence
  // (store-load ordering, Dekker happens-before argument in ParkingLot).
  std::atomic_thread_fence(std::memory_order_seq_cst);
}
inline void parking_light_fence() {
  // lockfree-lint: spsc — seq_cst fence; pairs with parking_heavy_fence
  // (store-load ordering, Dekker happens-before argument in ParkingLot).
  std::atomic_thread_fence(std::memory_order_seq_cst);
}
#endif

}  // namespace detail

// Fixed-capacity single-producer/single-consumer ring.  try_push may be
// called by at most one thread at a time, try_pop by at most one thread
// at a time (they may be the same thread).  Capacity is rounded up to a
// power of two; indices increase monotonically and are mapped to slots
// by masking, so the full/empty distinction needs no wasted slot.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  std::size_t capacity() const { return slots_.size(); }

  // Producer side.  Returns false (and does not consume `value`) when
  // the ring is full.
  bool try_push(T&& value) {
    // lockfree-lint: spsc — producer owns tail_; relaxed self-read.
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ == slots_.size()) {
      // lockfree-lint: spsc — acquire pairs with the release store in
      // try_pop: the consumer's move-out of slot[head] happens-before
      // this load observing the bumped head, so overwriting the slot
      // below cannot race the consumer's read of it.
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ == slots_.size()) return false;
    }
    slots_[tail & mask_] = std::move(value);
    // lockfree-lint: spsc — release publish; pairs with the acquire
    // load in try_pop so the slot write happens-before any consumer
    // read that observes the new tail.
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side.  Returns false when the ring is empty.
  bool try_pop(T& out) {
    // lockfree-lint: spsc — consumer owns head_; relaxed self-read.
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      // lockfree-lint: spsc — acquire pairs with the release store in
      // try_push: the producer's slot write happens-before this load
      // observing the bumped tail, so the move-out below reads a fully
      // constructed value.
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head & mask_]);
    // lockfree-lint: spsc — release publish; pairs with the acquire
    // load in try_push so the slot is only reused after the move-out
    // above happens-before the producer observing the bumped head.
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Callable from any thread; a conservative snapshot (may report
  // non-empty for an instant after the consumer drains).
  bool empty() const {
    // lockfree-lint: spsc — acquire/acquire snapshot of both indices;
    // used only as a parking hint, the consumer re-polls after waking,
    // and the producer-side fence in ParkingLot::unpark orders its
    // release push happens-before the consumer's re-check.
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  // Producer cacheline: the producer's index plus its cached view of the
  // consumer's; padded apart so steady-state push/pop never false-share.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_ = 0;
  // Consumer cacheline.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t tail_cache_ = 0;
};

// One mailbox lane: SPSC ring with a bounded-ring -> elastic-overflow
// escape hatch.  push() never blocks on the consumer and never drops;
// the overflow queue is mutex-guarded but reached only when the ring is
// full (or still draining from a previous burst), so steady-state
// delivery is lock-free.  FIFO per lane is preserved across overflow —
// see the invariant notes on each member.
template <typename T>
class SpscChannel {
 public:
  explicit SpscChannel(std::size_t ring_slots) : ring_(ring_slots) {}

  std::size_t ring_capacity() const { return ring_.capacity(); }

  // Producer side; single producer thread per channel.
  void push(T&& value) SF_EXCLUDES(overflow_mutex_) {
    // lockfree-lint: spsc — overflowed_ is set only by this (single)
    // producer and cleared only by the consumer, both under
    // overflow_mutex_; the unlock/lock pair makes the clear (and the
    // drain it certifies) happen-before a producer load that sees
    // false, so falling through to the ring cannot overtake queued
    // overflow entries.
    if (overflowed_.load(std::memory_order_acquire)) {
      MutexLock lock(overflow_mutex_);
      if (overflowed_.load(std::memory_order_relaxed)) {
        overflow_.push_back(std::move(value));
        return;
      }
      // The consumer drained the queue and cleared the flag while we
      // waited for the lock: the ring is the FIFO tail again.
    }
    if (ring_.try_push(std::move(value))) return;
    // Ring full: enter overflow mode.  Everything already in the ring
    // is older than `value`, and the consumer always drains the ring
    // before the queue, so appending here preserves lane order.
    MutexLock lock(overflow_mutex_);
    // lockfree-lint: spsc — release store under the mutex pairs with
    // the consumer's acquire load in pop(): the queue append below
    // happens-before any pop that observes the flag.
    overflowed_.store(true, std::memory_order_release);
    overflow_.push_back(std::move(value));
  }

  // Consumer side; single consumer thread per channel.
  bool pop(T& out) SF_EXCLUDES(overflow_mutex_) {
    if (ring_.try_pop(out)) return true;
    // lockfree-lint: spsc — acquire pairs with the producer's release
    // store in push(): the overflow append happens-before this load
    // observing the flag, so the locked drain below sees the entry.
    if (!overflowed_.load(std::memory_order_acquire)) return false;
    MutexLock lock(overflow_mutex_);
    // While the flag is set the producer never pushes to the ring, so
    // any ring residue is strictly older than the queue: drain it
    // first.  (The unlocked try_pop above can race a producer that was
    // still filling the ring right before it flipped to overflow —
    // this locked re-check closes that window.)
    if (ring_.try_pop(out)) return true;
    if (overflow_.empty()) {
      // Possible only on the consumer's stale-flag re-entry after the
      // final drain below already cleared the queue in this same call
      // sequence; treat as empty.
      // lockfree-lint: spsc — release store under the mutex, the same
      // pairing as the drain-clear below: the producer's acquire load
      // in push() observing false happens-after this clear.
      overflowed_.store(false, std::memory_order_release);
      return false;
    }
    out = std::move(overflow_.front());
    overflow_.pop_front();
    if (overflow_.empty()) {
      // lockfree-lint: spsc — release store under the mutex pairs with
      // the producer's acquire load in push(): the drain above
      // happens-before a producer that sees the flag cleared, so its
      // next ring push is ordered after every overflow entry.
      overflowed_.store(false, std::memory_order_release);
    }
    return true;
  }

  // Parking hint; callable from any thread.  May transiently report
  // non-empty, never the reverse (see SpscRing::empty).
  bool empty() const {
    // lockfree-lint: spsc — acquire load; the producer's overflow
    // append happens-before the flag store it pairs with, so a cleared
    // flag plus an empty ring means no queued entries at snapshot time.
    return ring_.empty() && !overflowed_.load(std::memory_order_acquire);
  }

 private:
  SpscRing<T> ring_;
  // true while overflow_ may be non-empty.  Set by the producer (under
  // overflow_mutex_) when the ring fills; cleared by the consumer
  // (under overflow_mutex_) when the queue empties.  While set, the
  // producer appends only to overflow_ — that is the FIFO argument.
  std::atomic<bool> overflowed_{false};
  Mutex overflow_mutex_{LockRank::kMailbox};
  std::deque<T> overflow_ SF_GUARDED_BY(overflow_mutex_);
};

// Eventcount-style parking for a consumer polling several lock-free
// lanes.  The consumer announces intent (waiter_), re-checks its lanes,
// and only then blocks; the producer publishes work, fences, and
// notifies only if a waiter is announced.  The fence pair makes the
// classic Dekker argument: either the producer's load sees the waiter
// (and bumps the wake token under the mutex, which the wait re-checks),
// or the consumer's lane re-check sees the published work — a wakeup
// can be delayed by at most the caller's timeout, never lost entirely.
// The fences are asymmetric where the OS allows (detail::parking_*_
// fence): the rarely-run parking side pays a membarrier syscall so the
// per-message unpark needs only compiler ordering.
class ParkingLot {
 public:
  // Consumer side.  `nonempty` must re-poll the protected queues; when
  // it returns true the park is abandoned without blocking.
  template <typename NonEmptyFn>
  void park(NonEmptyFn&& nonempty, std::chrono::milliseconds timeout)
      SF_EXCLUDES(mutex_) {
    // lockfree-lint: spsc — waiter_ announcement; the heavy fence below
    // orders it before the lane re-check (Dekker pairing with unpark).
    waiter_.store(true, std::memory_order_relaxed);
    // Heavy half of the Dekker pair: the waiter_ store above is ordered
    // before the lane loads in nonempty(), so at least one side
    // observes the other — the producer publish happens-before our
    // re-check or our announcement happens-before its waiter_ load.
    // That is what makes a lost wakeup impossible.
    detail::parking_heavy_fence();
    if (nonempty()) {
      // lockfree-lint: spsc — relaxed retraction: only promptness is at
      // stake (a producer that still sees true pays one spare notify);
      // the mutex below owns the wake token happens-before edges.
      waiter_.store(false, std::memory_order_relaxed);
      return;
    }
    {
      MutexLock lock(mutex_);
      if (!wake_pending_) cv_.wait_for(mutex_, timeout);
      wake_pending_ = false;
    }
    // lockfree-lint: spsc — relaxed retraction, as above: the mutex owns
    // the wake-token happens-before edges; a stale true costs one
    // spurious notify, never a lost wakeup.
    waiter_.store(false, std::memory_order_relaxed);
  }

  // Producer side; call after publishing work to any lane this
  // consumer drains.
  void unpark() SF_EXCLUDES(mutex_) {
    // Light half of the Dekker pair: orders the lane publish (release
    // store in SpscRing/SpscChannel) before the waiter_ load below —
    // the publish happens-before the consumer's lane re-check whenever
    // this load misses the waiter announcement.
    detail::parking_light_fence();
    // lockfree-lint: spsc — relaxed probe; the fence above supplies the
    // store-load ordering (see the Dekker pairing in park()).
    if (!waiter_.load(std::memory_order_relaxed)) return;
    {
      MutexLock lock(mutex_);
      wake_pending_ = true;
    }
    cv_.notify_one();
  }

 private:
  std::atomic<bool> waiter_{false};
  Mutex mutex_{LockRank::kMailbox};
  CondVar cv_;
  // Wake token: set under mutex_ by unpark, consumed under mutex_ by
  // park, so a notify that lands between the consumer's lane re-check
  // and its wait is not lost.  A stale token only costs one spurious
  // (immediately re-polling) pass.
  bool wake_pending_ SF_GUARDED_BY(mutex_) = false;
};

}  // namespace sf
