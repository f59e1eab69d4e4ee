#include "algorithms/load_on_demand.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace sf {

namespace {

class LoadOnDemandProgram final : public RankProgram {
 public:
  LoadOnDemandProgram(const BlockDecomposition* decomp,
                      std::vector<Particle> initial)
      : decomp_(decomp), initial_(std::move(initial)) {}

  void start(RankContext& ctx) override {
    for (Particle& p : initial_) {
      work_.admit(ctx, decomp_->block_of(p.pos), std::move(p));
    }
    initial_.clear();
    try_start(ctx);
  }

  void on_message(RankContext& ctx, Message msg) override {
    // Load On Demand never communicates during normal operation; the only
    // messages it can receive are recovery hand-offs of a dead rank's
    // remaining streamlines, which just join the pool.  An Undeliverable
    // is one of those hand-offs bounced off a rank that died before
    // delivery: adopt its particles the same way so none are lost.
    // protocol-lint: ignores StatusUpdate, Command, TerminationCount
    // protocol-lint: ignores DoneSignal, SeedRequest, SeedRelay
    // protocol-lint: ignores SeedTransfer
    // protocol-lint: ignores MasterBeacon, ControlAck
    // protocol-lint: ignores QuerySubmit, QueryCancel, QueryResult
    // protocol-lint: ignores QueryDone
    std::vector<Particle>* adopted = nullptr;
    if (auto* batch = std::get_if<ParticleBatch>(&msg.payload)) {
      adopted = &batch->particles;
    } else if (auto* undeliv = std::get_if<Undeliverable>(&msg.payload)) {
      adopted = &undeliv->particles;
    }
    if (adopted == nullptr) return;
    for (Particle& p : *adopted) {
      work_.admit(ctx, decomp_->block_of(p.pos), std::move(p));
    }
    if (!work_.pool().empty()) finished_ = false;  // adopted work re-opens us
    try_start(ctx);
  }

  void on_block_loaded(RankContext& ctx, BlockId) override {
    if (loads_outstanding_ > 0) --loads_outstanding_;
    try_start(ctx);
  }

  void on_compute_done(RankContext& ctx) override {
    work_.settle(ctx, [this](Particle p, BlockId need) {
      work_.pool().add(need, std::move(p));
    });
    try_start(ctx);
  }

  bool finished() const override { return finished_; }

  void collect_particles(std::vector<Particle>& out) const override {
    work_.collect(out);
  }

  void snapshot_particles(std::vector<Particle>& out) const override {
    out.insert(out.end(), initial_.begin(), initial_.end());
    work_.snapshot(out);
  }

 private:
  void try_start(RankContext& ctx) {
    if (finished_ || ctx.busy() || work_.in_flight()) return;

    const ParticlePool& pool = work_.pool();
    if (pool.empty()) {
      // All of this rank's streamlines have terminated; it is done,
      // independently of everyone else (§4.2).
      finished_ = true;
      return;
    }

    const BlockId runnable = pool.first_block_where(
        [&ctx](BlockId id) { return ctx.block_resident(id); });
    if (runnable != kInvalidBlock) {
      const std::span<Particle> burst = work_.drain(runnable);
      const int lookahead = ctx.prefetch_capacity();
      std::vector<Vec3> starts;
      if (lookahead > 0) {
        starts.reserve(burst.size());
        for (const Particle& p : burst) starts.push_back(p.pos);
      }
      work_.advance(ctx);
      // Overlap: while this burst integrates, background-read the blocks
      // it is about to stop for (the outcomes name them exactly), then
      // the blocks those streamlines point at one block further on —
      // a short burst gives the one-ahead read no time to finish, the
      // two-ahead hint absorbs that — then fill any leftover depth with
      // the pooled runners-up.
      prefetch_blocking_targets(ctx, work_.outcomes(), runnable, lookahead);
      prefetch_streamline_lookahead(ctx, *decomp_, burst, starts,
                                    work_.outcomes(), runnable, lookahead);
      prefetch_densest(ctx, pool, runnable, lookahead);
      return;
    }

    // No in-memory work left: only now read one block from disk — the one
    // that unblocks the most streamlines.
    if (loads_outstanding_ == 0) {
      const BlockId next = pool.densest_block();
      if (next != kInvalidBlock && !ctx.block_pending(next)) {
        ++loads_outstanding_;
        ctx.request_block(next);
        // Overlap the demand read with hints for the runners-up.
        prefetch_densest(ctx, pool, next, ctx.prefetch_capacity());
      }
    }
  }

  const BlockDecomposition* decomp_;
  std::vector<Particle> initial_;
  RankWork work_;
  int loads_outstanding_ = 0;
  bool finished_ = false;
};

}  // namespace

std::vector<std::vector<Particle>> partition_evenly_by_block(
    int num_ranks, const BlockDecomposition& decomp,
    std::vector<Particle> particles) {
  std::stable_sort(particles.begin(), particles.end(),
                   [&decomp](const Particle& a, const Particle& b) {
                     return decomp.block_of(a.pos) < decomp.block_of(b.pos);
                   });
  std::vector<std::vector<Particle>> out(
      static_cast<std::size_t>(num_ranks));
  const std::size_t total = particles.size();
  for (std::size_t r = 0; r < out.size(); ++r) {
    const std::size_t first = total * r / out.size();
    const std::size_t last = total * (r + 1) / out.size();
    out[r].assign(std::make_move_iterator(particles.begin() + first),
                  std::make_move_iterator(particles.begin() + last));
  }
  return out;
}

ProgramFactory make_load_on_demand(
    const BlockDecomposition* decomp,
    std::vector<std::vector<Particle>> initial) {
  auto shared = std::make_shared<std::vector<std::vector<Particle>>>(
      std::move(initial));
  return [decomp, shared](int rank,
                          int num_ranks) -> std::unique_ptr<RankProgram> {
    check_chunk_count(shared->size(), num_ranks, "make_load_on_demand");
    return std::make_unique<LoadOnDemandProgram>(
        decomp, std::move((*shared)[static_cast<std::size_t>(rank)]));
  };
}

}  // namespace sf
