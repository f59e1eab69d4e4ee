#pragma once

// Run-level bookkeeping both runtimes share: building and seeding the
// invariant checker, the per-query termination board, and the result
// finalisation every run ends with.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "check/invariants.hpp"
#include "core/thread_annotations.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/metrics.hpp"
#include "runtime/rank_context.hpp"
#include "runtime/rank_block_plane.hpp"

namespace sf {

class RunBoard {
 public:
  // One rank as the board sees it; a null plane marks a dead rank.
  struct Rank {
    const RankProgram* program;
    RankBlockPlane* plane;
  };

  // Builds the checker into `checker` (the runtime's slot the planes'
  // hooks read; null when compiled out) and seeds it with every
  // program's initial particles and `presettled`; takes the per-query
  // census of live seeded streamlines (deduped by id: at t = 0 each has
  // exactly one owner); and warm-starts each plane from `pool` (when
  // set), so the first demands of an overlapping query hit.
  void begin(const CheckerConfig& config, const std::vector<Rank>& ranks,
             const std::vector<Particle>& presettled, SharedBlockPool* pool,
             std::unique_ptr<InvariantChecker>& checker) SF_EXCLUDES(mutex_);

  // A first-time termination.  Records the query's completion when its
  // last seeded streamline ends; the checker hook fires after the lock
  // is released (checker last in the lock order).  Thread-safe.
  void note_termination(const Particle& p, double now) SF_EXCLUDES(mutex_);

  // Sorts the particles by id, moves in the completions sorted by query,
  // and captures each live rank's residency into `pool` (when set); a
  // dead rank's captured blocks are dropped.
  void finish(RunMetrics& metrics, SharedBlockPool* pool,
              const std::vector<Rank>& ranks) SF_EXCLUDES(mutex_);

 private:
  InvariantChecker* checker_ = nullptr;  // owned by the runtime
  Mutex mutex_{LockRank::kQueryBoard};
  std::map<std::uint32_t, std::uint32_t> remaining_ SF_GUARDED_BY(mutex_);
  std::map<std::uint32_t, std::uint32_t> total_ SF_GUARDED_BY(mutex_);
  std::vector<QueryCompletion> completions_ SF_GUARDED_BY(mutex_);
};

}  // namespace sf
