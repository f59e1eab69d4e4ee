#pragma once

// Shared helpers for the three parallelization strategies: contiguous
// block ownership, per-block particle pools, and resident-particle memory
// accounting.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/block_decomposition.hpp"
#include "core/particle.hpp"
#include "core/vec3.hpp"
#include "runtime/rank_context.hpp"

namespace sf {

// Static Allocation's block->processor map: "the first of n processors is
// assigned the first 1/n of the blocks, the next processor the second
// 1/n" (§4.1).  Balanced contiguous ranges.
int contiguous_owner(int num_blocks, int num_ranks, BlockId block);

// The contiguous [first, last) block range owned by `rank`.
std::pair<BlockId, BlockId> contiguous_range(int num_blocks, int num_ranks,
                                             int rank);

// Bytes a resident particle occupies on a rank: fixed bookkeeping plus
// its recorded geometry (kept after termination — trajectories are
// gathered for rendering).
std::size_t resident_particle_bytes(const Particle& p,
                                    const MachineModel& model);

// Particles waiting on a rank, grouped by the block they currently
// reside in.  std::map keeps iteration deterministic.
class ParticlePool {
 public:
  // Enqueue a particle under the block it currently resides in.
  void add(BlockId block, Particle p);
  // Pop one particle from block `b`; nullopt if none.
  std::optional<Particle> take_from(BlockId b);

  bool empty() const { return total_ == 0; }
  std::size_t size() const { return total_; }
  std::size_t count_in(BlockId b) const;

  // First block (in id order) whose particles can run, per `resident`.
  template <typename Pred>
  BlockId first_block_where(Pred resident) const {
    for (const auto& [block, queue] : by_block_) {
      if (!queue.empty() && resident(block)) return block;
    }
    return kInvalidBlock;
  }

  // Block with the most waiting particles (ties -> lowest id).
  BlockId densest_block() const;

  // Blocks with at least one waiting particle, with counts.
  std::vector<std::pair<BlockId, std::uint32_t>> census() const;

  // Remove and return every particle waiting in block `b`.
  std::vector<Particle> drain_block(BlockId b);

  // Copy every waiting particle into `out` (checkpoint snapshots).
  void append_all(std::vector<Particle>& out) const;

 private:
  std::map<BlockId, std::deque<Particle>> by_block_;
  std::size_t total_ = 0;
};

// Create initial particles from seed points.  Seeds outside the domain
// terminate immediately (status kExitedDomain) and are returned in
// `rejected`; ids are the seed indices.
std::vector<Particle> make_particles(const BlockDecomposition& decomp,
                                     std::span<const Vec3> seeds,
                                     std::vector<Particle>& rejected);

// Advance every particle of one block's pool queue against the rank's
// cache in a single burst through Tracer::advance_batch (shared
// block/cell cursor), charging the summed geometry growth.  outcome[i]
// matches batch[i]; total_steps sums the accepted steps for
// ctx.begin_compute.
struct BatchAdvanceResult {
  std::vector<AdvanceOutcome> outcomes;
  std::uint64_t total_steps = 0;
};
BatchAdvanceResult advance_block_and_charge(RankContext& ctx,
                                            std::span<Particle> batch);

// Prefetch predictor shared by the three algorithms (DESIGN.md §10):
// hint the runtime at the pooled blocks most likely to be demanded next
// — the ones with the most waiting streamlines that are not yet
// resident or pending, skipping `exclude` (the block being demanded or
// integrated right now).  Issues at most `max_hints` hints in a
// deterministic order (count descending, id ascending).  A no-op when
// the runtime's async I/O is off, so the synchronous demand path and
// its accounting are untouched.
void prefetch_densest(RankContext& ctx, const ParticlePool& pool,
                      BlockId exclude, int max_hints);

// Prefetch predictor for a burst in flight: the pool census cannot see
// the particles being integrated right now, but their advance outcomes
// name the exact blocks they stopped for.  Hint those (count
// descending, id ascending) — for a dense cohort marching through the
// dataset together this is the whole next working set.  Same no-op
// guarantees as prefetch_densest.
void prefetch_blocking_targets(RankContext& ctx,
                               std::span<const AdvanceOutcome> outcomes,
                               BlockId exclude, int max_hints);

// Second-order predictor: the blocking-target hints only look one burst
// ahead, and a short burst leaves the background read no time to finish
// before the demand lands (a partial overlap).  Extrapolate each still-
// active particle past its blocking block along its direction of travel
// over the burst — the block a streamline *points at* — so the block
// demanded two bursts from now is already staged when its turn comes.
// `start_positions[i]` is batch[i]'s position before the burst;
// outcomes[i] matches batch[i].  Same no-op guarantees as
// prefetch_densest.
void prefetch_streamline_lookahead(RankContext& ctx,
                                   const BlockDecomposition& decomp,
                                   std::span<const Particle> batch,
                                   std::span<const Vec3> start_positions,
                                   std::span<const AdvanceOutcome> outcomes,
                                   BlockId exclude, int max_hints);

// First alive rank after `after` in cyclic order (never `after` itself
// unless it is the only live rank).  Requires at least one alive rank.
int next_live_rank(const RankContext& ctx, int after);

// contiguous_owner, redirected to the next live rank when the owner is
// dead (Static Allocation's crash re-routing).
int live_owner(const RankContext& ctx, int num_blocks, BlockId block);

}  // namespace sf
