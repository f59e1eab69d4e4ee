#pragma once

// The rank-side block plane (DESIGN.md §10.5): one rank's LRU block
// cache, its pending demands, its in-flight prefetches and the bounded
// staging area prefetched grids wait in until a demand claims them.
// Both runtimes hold one per rank and keep only their read backend — how
// a read starts and when it completes (a DES disk event, or
// BlockSource::load plus an AsyncBlockLoader future) — and their clock.
//
// The plane owns the accounting rules both runtimes share: a read's
// bytes count when it is issued; a claimed prefetch counts as one load
// and one prefetch hit, in LRU order at the moment of demand, so async
// I/O keeps the sync path's load/purge ledger; every issued prefetch
// ends claimed or wasted.  It fires every block and prefetch invariant
// hook, reading the host clock only inside the hook arguments.
//
// Thread-confined like BlockCache: one rank's thread at a time.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "core/dataset.hpp"
#include "io/async_loader.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/metrics.hpp"

namespace sf {

class RankBlockPlane {
 public:
  // What a demand found, and so what the read backend must do next.
  enum class Demand {
    kResident,  // a hit, or a staged prefetch claimed now: notify
    kPending,   // a read for it is already running: nothing to do
    kInFlight,  // now waits on the in-flight prefetch for it
    kMiss,      // now pending: start a read, then complete_load()
  };

  // `metrics` and `checker` outlive the plane; `clock` stamps hooks.
  RankBlockPlane(int rank, std::size_t cache_blocks,
                 const AsyncIoConfig& async_io,
                 std::size_t particle_memory_bytes, const BlockSource& source,
                 RankMetrics& metrics,
                 const std::unique_ptr<InvariantChecker>& checker,
                 std::function<double()> clock);

  Demand demand(BlockId id);
  // Counts one read of `id` issued (every attempt); returns its bytes.
  std::size_t count_read(BlockId id);
  // A demand read finished: the block enters the cache.
  void complete_load(BlockId id, GridPtr grid);

  // Starts tracking a prefetch and returns true when the backend should
  // read `id`: async I/O on, the block not resident, pending, staged or
  // in flight, and fewer than prefetch_capacity() reads in flight.
  bool issue_prefetch(BlockId id);
  // A prefetch read finished.  Returns true when a waiting demand
  // claimed it (the backend then notifies); otherwise the grid is
  // staged, discarding the oldest staged grid past the bound.  A null
  // grid (the read failed or was cancelled) abandons the prefetch.
  bool complete_prefetch(BlockId id, GridPtr grid);
  // Gives up on an in-flight prefetch (counted as wasted).
  void abandon_prefetch(BlockId id);
  // Wastes every staged and in-flight prefetch, so all issued ones are
  // resolved at run end.
  void resolve_outstanding_prefetches();
  int prefetch_capacity() const;

  bool resident(BlockId id) const { return cache_.contains(id); }
  bool pending(BlockId id) const { return pending_.count(id) != 0; }
  std::vector<BlockId> resident_blocks() const { return cache_.resident(); }
  // The cached grid (touching LRU order), or nullptr.
  const StructuredGrid* block(BlockId id);
  void pin(BlockId id);
  void unpin(BlockId id);  // may run the deferred eviction

  // Warm start from a previous run's captured residency, MRU first.
  void adopt_shared(const std::vector<std::pair<BlockId, GridPtr>>& blocks);
  // Particle memory accounting; throws SimAbort past the budget.
  void charge_particle_memory(std::int64_t delta_bytes);
  // Copies the cache's load/purge/hit counters into the metrics.
  void sync_counters();

  const BlockCache& cache() const { return cache_; }

 private:
  void claim(BlockId id, GridPtr grid);
  void waste(BlockId id);  // a prefetch that ends unclaimed

  int rank_;
  AsyncIoConfig async_io_;
  std::size_t particle_memory_bytes_;
  const BlockSource& source_;
  RankMetrics& metrics_;
  [[maybe_unused]] const std::unique_ptr<InvariantChecker>& checker_;
  [[maybe_unused]] std::function<double()> clock_;
  BlockCache cache_;
  std::set<BlockId> pending_;
  std::set<BlockId> inflight_;  // prefetch reads not yet completed
  // Arrived prefetched grids nobody claimed yet, oldest first.
  std::vector<std::pair<BlockId, GridPtr>> staged_;
  std::int64_t particle_bytes_ = 0;
};

}  // namespace sf
