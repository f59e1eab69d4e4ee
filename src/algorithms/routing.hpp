#pragma once

// Shared helpers for the three parallelization strategies: contiguous
// block ownership, per-block particle pools, the rank worker that runs
// and settles their compute bursts, and resident-particle memory
// accounting.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <utility>
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

// The rank-side work every algorithm shares: the rank's pool of waiting
// streamlines, the burst being computed with its advance outcomes, and
// the lines that terminated here.  The one place a particle is charged
// as resident or refunded, a burst is started and charged, and a
// finished burst is settled.
class RankWork {
 public:
  // Pool a particle arriving on this rank under `block`, charging it as
  // resident.
  void admit(RankContext& ctx, BlockId block, Particle p);
  // Refund the residency of particles leaving this rank.
  void release(RankContext& ctx, std::span<const Particle> leaving);

  ParticlePool& pool() { return pool_; }
  const ParticlePool& pool() const { return pool_; }
  // True from drain() until settle().
  bool in_flight() const { return !burst_.empty(); }

  // Start a burst with block `b`'s whole queue (§9 batching).  The span
  // stays valid until settle().
  std::span<Particle> drain(BlockId b);
  // Advance the drained burst in one Tracer::advance_batch (shared
  // block/cell cursor, each round's focus block pinned), charge its
  // geometry growth and begin its modelled compute.  Returns the
  // accepted steps.
  std::uint64_t advance(RankContext& ctx);
  // outcomes()[i] matches the burst's particle i, from advance() on.
  std::span<const AdvanceOutcome> outcomes() const { return outcomes_; }

  // Settle the finished burst: log and keep each terminated line, and
  // hand each still-active one to blocked(particle, block it needs).
  // Returns the first-time terminations (a recovery re-run's duplicate
  // must not count toward a global total twice).
  template <typename Blocked>
  std::uint32_t settle(RankContext& ctx, Blocked&& blocked) {
    std::vector<Particle> burst = std::exchange(burst_, {});
    std::vector<AdvanceOutcome> outcomes = std::exchange(outcomes_, {});
    std::uint32_t first = 0;
    for (std::size_t i = 0; i < burst.size(); ++i) {
      if (is_terminal(outcomes[i].status)) {
        if (ctx.log_termination(burst[i])) ++first;
        done_.push_back(std::move(burst[i]));
      } else {
        blocked(std::move(burst[i]), outcomes[i].blocking_block);
      }
    }
    return first;
  }

  // Append the terminated lines (result gathering).
  void collect(std::vector<Particle>& out) const;
  // Append the pooled lines, then the burst (checkpoint snapshots).
  void snapshot(std::vector<Particle>& out) const;

 private:
  ParticlePool pool_;
  std::vector<Particle> burst_;
  std::vector<AdvanceOutcome> outcomes_;
  std::vector<Particle> done_;
};

// A program factory's seed split must hold one chunk per rank (per leaf
// master for the hybrid); throws std::invalid_argument naming `factory`
// unless it holds exactly `expected`.
void check_chunk_count(std::size_t chunks, int expected, const char* factory);

// Prefetch depth of the ranks whose useful horizon is short, whatever the
// configured depth: a Static owner only reads its own contiguous range,
// where a deep speculative pipeline just churns staging; a hybrid slave
// looks one Load round ahead, and a deep pipeline there claims blocks the
// master never schedules on it and perturbs its Load/Send decisions more
// than it hides latency.
inline constexpr int kShallowPrefetchDepth = 4;

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

// Wrap one payload in a Message and send it.
template <typename Payload>
void post(RankContext& ctx, int to, Payload payload) {
  Message m;
  m.payload = std::move(payload);
  ctx.send(to, std::move(m));
}

// The lowest live rank (0 if none is).  Every rank computes it from the
// runtime's liveness view, so a role pinned to it — Static's termination
// counter, the hybrid's failover successor — migrates on a death without
// any election traffic.
int lowest_live_rank(const RankContext& ctx);

// First alive rank after `after` in cyclic order (never `after` itself
// unless it is the only live rank).  Requires at least one alive rank.
int next_live_rank(const RankContext& ctx, int after);

// contiguous_owner, redirected to the next live rank when the owner is
// dead (Static Allocation's crash re-routing).
int live_owner(const RankContext& ctx, int num_blocks, BlockId block);

}  // namespace sf
