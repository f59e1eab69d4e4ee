#pragma once

// Real-thread runtime: runs the same RankPrograms as SimRuntime, but with
// one OS thread per rank, real mailboxes and real block I/O.
//
// This demonstrates that the algorithms are not simulator-bound — the
// identical state machines execute end to end on actual threads and
// disks — and it is the execution engine a downstream user would run on a
// real multi-core node.  Timing metrics are measured wall-clock seconds;
// for scaling *studies* use SimRuntime, which models a large machine.

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "check/invariants.hpp"
#include "core/dataset.hpp"
#include "core/thread_annotations.hpp"
#include "core/tracer.hpp"
#include "io/async_loader.hpp"
#include "runtime/metrics.hpp"
#include "runtime/rank_context.hpp"
#include "runtime/run_board.hpp"

namespace sf {

// The thread runtime's own settings on top of the shared ones.  With
// async I/O on, one shared AsyncBlockLoader serves every rank's
// prefetch hints, coalescing reads of the same block across ranks; each
// rank thread polls its completions, so all cache mutation stays on the
// owning thread.
struct ThreadRuntimeConfig : RuntimeConfig {
  // Schedule-perturbation fuzzing (DESIGN.md §8): when non-zero, every
  // rank thread injects seeded random yields/short sleeps at mailbox and
  // cache boundaries so sanitizer runs explore diverse interleavings.
  // 0 disables (the default); results are unaffected either way.
  std::uint64_t schedule_fuzz_seed = 0;
  // Slots per (sender, receiver) mailbox ring (DESIGN.md §14; rounded up
  // to a power of two).  Bursts beyond this spill to the channel's
  // mutex-guarded overflow queue — delivery never blocks and never
  // drops, the spill just pays the old lock price.  Small values are
  // for tests that want to exercise the overflow path.
  std::size_t mailbox_ring_slots = 64;
};

class ThreadRuntime {
 public:
  // Throws std::invalid_argument on a cancel with `at > 0`.
  ThreadRuntime(const ThreadRuntimeConfig& config,
                const BlockDecomposition* decomp, const BlockSource* source,
                const IntegratorParams& iparams, const TraceLimits& limits);
  ~ThreadRuntime();

  RunMetrics run(const ProgramFactory& factory);

 private:
  class Context;

  // First exception a rank thread died on; rethrown from run().
  void note_failure(std::exception_ptr error) SF_EXCLUDES(failure_mutex_);

  ThreadRuntimeConfig config_;
  const BlockDecomposition* decomp_;
  const BlockSource* source_;
  // Shared read-only by every rank thread during run(); the embedded
  // QueryCancelSet is the only mutable member and locks internally.
  Tracer tracer_;
  QueryCancelSet cancel_set_;
  // Per-query termination board: decremented by every rank thread, so
  // the last terminator of a query fires its completion exactly once.
  RunBoard board_;
  std::vector<std::unique_ptr<Context>> contexts_;
  // Live only inside run(), and only when config_.async_io.enabled.
  std::unique_ptr<AsyncBlockLoader> loader_;
  // Live only inside run(); null when compiled out (Release).  The
  // checker serializes internally, so all rank threads share it.
  std::unique_ptr<InvariantChecker> checker_;
  Mutex failure_mutex_{LockRank::kFailureBoard};
  std::exception_ptr failure_ SF_GUARDED_BY(failure_mutex_);
  // Written by run() on the main thread strictly before the rank
  // threads launch and after they join; rank threads only load/store
  // through the pointee atomic.
  std::atomic<bool>* abort_flag_ = nullptr;
};

}  // namespace sf
