#include "algorithms/static_alloc.hpp"

#include <map>
#include <memory>
#include <utility>

namespace sf {

namespace {

class StaticProgram final : public RankProgram {
 public:
  StaticProgram(const BlockDecomposition* decomp, int rank,
                std::vector<Particle> initial, std::uint32_t total_active)
      : decomp_(decomp),
        rank_(rank),
        initial_(std::move(initial)),
        total_active_(total_active) {}

  void start(RankContext& ctx) override {
    for (Particle& p : initial_) {
      work_.admit(ctx, decomp_->block_of(p.pos), std::move(p));
    }
    initial_.clear();
    if (total_active_ == 0 && rank_ == lowest_live_rank(ctx)) {
      broadcast_done(ctx);
      return;
    }
    try_start(ctx);
  }

  void on_message(RankContext& ctx, Message msg) override {
    // Static Allocation only trades particles and the §4.1 termination
    // count; Hybrid-only traffic cannot legally reach it, and ControlAck
    // is consumed by the control transport before program dispatch.
    // protocol-lint: ignores StatusUpdate, Command, SeedRequest
    // protocol-lint: ignores SeedRelay, SeedTransfer, MasterBeacon
    // protocol-lint: ignores ControlAck
    // protocol-lint: ignores QuerySubmit, QueryCancel, QueryResult
    // protocol-lint: ignores QueryDone
    if (auto* batch = std::get_if<ParticleBatch>(&msg.payload)) {
      for (Particle& p : batch->particles) {
        accept_or_forward(ctx, std::move(p));
      }
      try_start(ctx);
    } else if (auto* undeliv = std::get_if<Undeliverable>(&msg.payload)) {
      // One of our hand-offs bounced (dropped link or dead owner):
      // re-route each particle to the block's current live owner.
      for (Particle& p : undeliv->particles) {
        accept_or_forward(ctx, std::move(p));
      }
      try_start(ctx);
    } else if (auto* term = std::get_if<TerminationCount>(&msg.payload)) {
      // A worker's cumulative report, or the runtime's full-ledger
      // recount delivered to us as the new acting counter after a crash.
      merge_board(ctx, term->totals);
    } else if (std::holds_alternative<DoneSignal>(msg.payload)) {
      finished_ = true;
    }
  }

  void on_block_loaded(RankContext& ctx, BlockId) override { try_start(ctx); }

  void on_compute_done(RankContext& ctx) override {
    // Group hand-offs by (owner, block) so one burst produces one
    // ParticleBatch per destination instead of one per streamline.
    std::map<std::pair<int, BlockId>, std::vector<Particle>> forwards;
    const std::uint32_t new_terminations =
        work_.settle(ctx, [&](Particle p, BlockId need) {
          // The static block->rank map, redirected past dead ranks: a
          // dead owner's blocks fall to the next live rank in cyclic
          // order.
          const int owner = live_owner(ctx, decomp_->num_blocks(), need);
          if (owner == rank_) {
            work_.pool().add(need, std::move(p));
            if (!ctx.block_resident(need) && !ctx.block_pending(need)) {
              ctx.request_block(need);
            }
          } else {
            // Communicate the streamline to the block's owner (§4.1).
            work_.release(ctx, {&p, 1});
            forwards[{owner, need}].push_back(std::move(p));
          }
        });
    for (auto& [dest, particles] : forwards) {
      post(ctx, dest.first, ParticleBatch{dest.second, std::move(particles)});
    }
    if (new_terminations > 0) note_terminations(ctx, new_terminations);
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
  // Pool an incoming particle if its block is (now) ours, else forward it
  // to the block's live owner.  Outside fault injection the owner is
  // always this rank (hand-offs are addressed to the static owner).
  void accept_or_forward(RankContext& ctx, Particle p) {
    const BlockId b = decomp_->block_of(p.pos);
    const int owner = live_owner(ctx, decomp_->num_blocks(), b);
    if (owner == rank_) {
      work_.admit(ctx, b, std::move(p));
    } else {
      post(ctx, owner, ParticleBatch{b, {std::move(p)}});
    }
  }

  void try_start(RankContext& ctx) {
    if (finished_ || ctx.busy() || work_.in_flight()) return;

    const BlockId runnable = work_.pool().first_block_where(
        [&ctx](BlockId id) { return ctx.block_resident(id); });
    if (runnable != kInvalidBlock) {
      work_.drain(runnable);
      work_.advance(ctx);
      // Overlap: hand-offs that arrived during earlier bursts pooled
      // under not-yet-resident owned blocks; read them in the background
      // while this burst integrates.
      prefetch_densest(ctx, work_.pool(), runnable,
                       std::min(kShallowPrefetchDepth,
                                ctx.prefetch_capacity()));
      return;
    }

    // Nothing runnable: fetch every pooled block that has waiting work
    // (owned blocks by construction, plus any adopted from a dead rank).
    for (const auto& [block, count] : work_.pool().census()) {
      if (!ctx.block_resident(block) && !ctx.block_pending(block)) {
        ctx.request_block(block);
      }
    }
  }

  void note_terminations(RankContext& ctx, std::uint32_t n) {
    my_total_ += n;
    if (board_[rank_] < my_total_) board_[rank_] = my_total_;
    // The acting counter is the lowest live rank: when rank 0 dies the
    // role (and every later report) migrates to the next survivor, whose
    // board the runtime seeds with a full ledger recount so reports the
    // dead counter already absorbed are not lost.
    const int counter = lowest_live_rank(ctx);
    if (counter == rank_) {
      maybe_finish(ctx);
      return;
    }
    // Report the cumulative total, not a delta: max-merge on the counter
    // makes duplicated or re-ordered reports (at-least-once control
    // delivery, post-crash re-reports) harmless.
    post(ctx, counter, TerminationCount{{{rank_, my_total_}}});
  }

  // Max-merge per-rank cumulative totals into the board; when this rank
  // is the acting counter and every streamline is accounted for, finish.
  void merge_board(RankContext& ctx,
                   const std::vector<std::pair<int, std::uint32_t>>& totals) {
    for (const auto& [r, total] : totals) {
      auto& hw = board_[r];
      if (total > hw) hw = total;
    }
    maybe_finish(ctx);
  }

  void maybe_finish(RankContext& ctx) {
    if (finished_ || rank_ != lowest_live_rank(ctx)) return;
    std::uint64_t done = 0;
    for (const auto& [r, total] : board_) done += total;
    if (done >= total_active_) broadcast_done(ctx);
  }

  void broadcast_done(RankContext& ctx) {
    for (int r = 0; r < ctx.num_ranks(); ++r) {
      if (r == rank_ || !ctx.is_alive(r)) continue;
      post(ctx, r, DoneSignal{});
    }
    finished_ = true;
  }

  const BlockDecomposition* decomp_;
  int rank_;
  std::vector<Particle> initial_;
  std::uint32_t total_active_;  // global streamline count (every rank)
  std::uint32_t my_total_ = 0;  // cumulative first-time terminations here
  // Per-rank cumulative high-water marks; authoritative on the acting
  // counter, where global done = sum of the board.
  std::map<int, std::uint32_t> board_;

  RankWork work_;
  bool finished_ = false;
};

}  // namespace

std::vector<std::vector<Particle>> partition_by_block_owner(
    const BlockDecomposition& decomp, int num_ranks,
    std::vector<Particle> particles) {
  std::vector<std::vector<Particle>> out(
      static_cast<std::size_t>(num_ranks));
  for (Particle& p : particles) {
    const BlockId b = decomp.block_of(p.pos);
    const int owner = contiguous_owner(decomp.num_blocks(), num_ranks, b);
    out[static_cast<std::size_t>(owner)].push_back(std::move(p));
  }
  return out;
}

ProgramFactory make_static_allocation(
    const BlockDecomposition* decomp,
    std::vector<std::vector<Particle>> initial, std::uint32_t total_active) {
  auto shared = std::make_shared<std::vector<std::vector<Particle>>>(
      std::move(initial));
  return [decomp, shared, total_active](
             int rank, int num_ranks) -> std::unique_ptr<RankProgram> {
    check_chunk_count(shared->size(), num_ranks, "make_static_allocation");
    return std::make_unique<StaticProgram>(
        decomp, rank, std::move((*shared)[static_cast<std::size_t>(rank)]),
        total_active);
  };
}

}  // namespace sf
