#include "algorithms/hybrid.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/rng.hpp"

namespace sf {

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

HybridLayout HybridLayout::make(int num_ranks, int slaves_per_master,
                                int root_fanout) {
  if (num_ranks < 2) {
    throw std::invalid_argument("HybridLayout: need at least 2 ranks");
  }
  if (slaves_per_master < 1) {
    throw std::invalid_argument("HybridLayout: W >= 1");
  }
  HybridLayout layout;
  layout.num_ranks = num_ranks;
  // One master per W slaves, carved out of the allocation itself.
  const int flat_masters =
      std::clamp(num_ranks / (slaves_per_master + 1), 1, num_ranks - 1);
  layout.num_masters = flat_masters;
  // Two-level tree: once the flat master count exceeds the root fanout,
  // add a root tier of ceil(masters / fanout) extra coordinator ranks
  // above the (unchanged) leaf-master count.  Below that threshold the
  // layout — and hence the whole message sequence — is exactly the flat
  // one, which is the bit-identity contract (DESIGN.md §15).
  if (root_fanout > 0 && flat_masters > root_fanout) {
    const int roots = (flat_masters + root_fanout - 1) / root_fanout;
    if (flat_masters + roots < num_ranks) {  // must leave >= 1 slave
      layout.num_roots = roots;
      layout.num_masters = flat_masters + roots;
    }
  }
  return layout;
}

int HybridLayout::master_of(int slave_rank) const {
  const int s = slave_rank - num_masters;  // slave index
  // Inverse of slaves_of's balanced contiguous split.
  return num_roots +
         static_cast<int>(((static_cast<std::int64_t>(s) + 1) * num_leaves() -
                           1) /
                          num_slaves());
}

std::pair<int, int> HybridLayout::slaves_of(int master_rank) const {
  if (master_rank < num_roots) return {num_masters, num_masters};  // empty
  const int leaf = master_rank - num_roots;
  const auto ns = static_cast<std::int64_t>(num_slaves());
  const int first = num_masters + static_cast<int>(ns * leaf / num_leaves());
  const int last =
      num_masters + static_cast<int>(ns * (leaf + 1) / num_leaves());
  return {first, last};
}

int HybridLayout::root_of(int leaf_master) const {
  const int l = leaf_master - num_roots;  // leaf index
  // Inverse of leaves_of's balanced contiguous split.
  return static_cast<int>(
      ((static_cast<std::int64_t>(l) + 1) * num_roots - 1) / num_leaves());
}

std::pair<int, int> HybridLayout::leaves_of(int root_rank) const {
  const auto nl = static_cast<std::int64_t>(num_leaves());
  const int first = num_roots + static_cast<int>(nl * root_rank / num_roots);
  const int last =
      num_roots + static_cast<int>(nl * (root_rank + 1) / num_roots);
  return {first, last};
}

namespace {

// Straggler detection (gray failures, DESIGN.md §16): progress windows
// span kStragglerMinBeats heartbeat periods, and a working slave whose
// effective speed falls below kStragglerSlowness x the healthy-group
// median is flagged.
constexpr double kStragglerSlowness = 0.25;
constexpr int kStragglerMinBeats = 3;
// Seeds the Send_hint tie-break among equally busy slaves; each
// coordinator offsets it by its own rank.
constexpr std::uint64_t kHintRngSeed = 0x1dd51c3ULL;

// A Command without particles or hint blocks.
Command command(Command::Type type, BlockId block = kInvalidBlock,
                int target = -1) {
  Command cmd;
  cmd.type = type;
  cmd.block = block;
  cmd.target = target;
  return cmd;
}

// The unique live rank responsible for absorbing a dead coordinator — and
// hence where its orphaned slaves re-home: its parent root when the tree
// is on and the parent survives, else the global successor: the lowest
// live rank, which is a slave only once every master is dead (possibly
// the orphan itself, promoting), and is also the acting termination
// counter.  Uniqueness keeps ledger recovery single-fire on the primary
// path (duplicate adoption stays safe — recovered credits max-merge and
// re-run terminations dedup — but never happens fault-free under this
// rule).
int adopter_of(const RankContext& ctx, const HybridLayout& layout, int dead) {
  if (layout.num_roots > 0 && dead >= layout.num_roots &&
      dead < layout.num_masters) {
    const int parent = layout.root_of(dead);
    if (ctx.is_alive(parent)) return parent;
  }
  return lowest_live_rank(ctx);
}

// The fault plane's heartbeat period; 0 on a fault-free run, which arms
// no timers and so runs the paper's five rules alone.
double heartbeat_period(const RankContext& ctx) {
  const FaultConfig* plane = ctx.fault_plane();
  return plane ? plane->heartbeat_period : 0.0;
}

// How long a peer may stay silent before it is presumed dead: a master's
// deadline for its slaves (the sixth rule) and a slave's for its master.
double deadline(const RankContext& ctx) {
  const FaultConfig* plane = ctx.fault_plane();
  return plane ? plane->heartbeat_miss_limit * plane->heartbeat_period : 0.0;
}

// ---------------------------------------------------------------------------
// Master scheduling core
// ---------------------------------------------------------------------------

// The whole master-side state machine — the five balancing rules, the
// sixth (declare-dead) rule, master-to-master seed balancing, and the
// survivable termination board.  HybridRank engages it at start on layout
// master ranks, and on a slave from the moment it promotes itself
// (DESIGN.md §11), so both run the identical logic.
class MasterCore {
 public:
  MasterCore(const BlockDecomposition* decomp, int self, HybridLayout layout,
             HybridParams params, std::uint32_t total_active)
      : decomp_(decomp),
        self_(self),
        layout_(layout),
        params_(params),
        total_active_(total_active),
        rng_(kHintRngSeed + static_cast<std::uint64_t>(self)) {}

  bool finished() const { return finished_; }

  // A coordinator with no live slave registered — a promoted slave, or a
  // leaf master whose whole group died — must integrate the seed pool
  // itself or the run would stall.  Never a root: its records are always
  // empty, and it must not start advecting.
  bool solo() const { return !layout_.is_root(self_) && records_.empty(); }

  void start_as_master(RankContext& ctx, std::vector<Particle> seeds) {
    const auto [first, last] = layout_.slaves_of(self_);
    for (int s = first; s < last; ++s) records_[s] = SlaveRecord{};
    for (Particle& p : seeds) pool_seed(ctx, std::move(p));

    if (total_active_ == 0 && lowest_live_rank(ctx) == self_) {
      finish_everyone(ctx);
      return;
    }

    // Initial allocation: N seeds per slave through Assign_unloaded.
    for (auto& [slave, record] : records_) {
      if (seeds_.empty()) break;
      assign_seeds(ctx, slave, record);
    }

    if (heartbeat_period(ctx) > 0.0 && !finished_) {
      for (const auto& [slave, record] : records_) {
        last_heard_[slave] = ctx.now();
      }
    }
  }

  // Promotion entry point: adopt every dead coordinator's group — ledger
  // recovery of the dead ranks plus registration of the survivors, whose
  // re-reported statuses rebuild the scheduling state.
  void start_as_successor(RankContext& ctx) {
    for (int m = 0; m < layout_.num_masters; ++m) {
      if (!ctx.is_alive(m)) adopt_coordinator(ctx, m);
    }
    publish_totals(ctx);
    if (!finished_) assignment_pass(ctx);
  }

  // One heartbeat period on a coordinator.  Only fault runs arm the
  // timer, so everything below is fault-plane duty.
  void tick(RankContext& ctx) {
    if (finished_) return;
    // The sixth rule: a slave silent for heartbeat_miss_limit periods is
    // declared dead and its streamlines are reclaimed and reassigned.
    // Detection is purely silence-based — no liveness oracle.
    std::vector<int> missing;
    for (const auto& [slave, heard_at] : last_heard_) {
      if (ctx.now() - heard_at > deadline(ctx)) missing.push_back(slave);
    }
    for (const int slave : missing) {
      declare_dead(ctx, slave);
      if (finished_) return;  // reclaimed credits may have ended the run
    }

    // Parent duty (tree layouts): each live root absorbs its own dead
    // leaf children, keeping recovery local to the subtree instead of
    // serializing every adoption through the global successor.
    if (layout_.num_roots > 0 && layout_.is_root(self_)) {
      const auto [first, last] = layout_.leaves_of(self_);
      for (int leaf = first; leaf < last; ++leaf) {
        if (ctx.is_alive(leaf)) continue;
        adopt_coordinator(ctx, leaf);
        if (finished_) return;
      }
    }
    // Successor duty: absorb groups whose dead master has no survivor
    // left to re-home (dead promoted coordinators are reached through
    // their own group's dead-slave recovery).  Under the tree, a dead
    // leaf master with a live parent is that parent's duty, not ours —
    // exactly one live rank claims any dead coordinator.
    if (lowest_live_rank(ctx) == self_) {
      for (int m = 0; m < layout_.num_masters; ++m) {
        if (m == self_ || ctx.is_alive(m)) continue;
        if (adopter_of(ctx, layout_, m) != self_) continue;
        adopt_coordinator(ctx, m);
        if (finished_) return;
      }
    }
    // Un-wedge master-to-master balancing if the donor died mid-request.
    if (seed_request_outstanding_ && !ctx.is_alive(seed_request_target_)) {
      seed_request_outstanding_ = false;
      dry_masters_.insert(seed_request_target_);
    }
    // Same for a brokered relay whose donor died before answering.
    if (relay_outstanding_ && !ctx.is_alive(relay_target_)) {
      relay_outstanding_ = false;
      dry_masters_.insert(relay_target_);
      if (!pending_requests_.empty()) broker(ctx);
      if (finished_) return;
    }
    // Liveness beacons: slaves track the last time they heard us; silence
    // past their miss limit is what triggers their re-homing.
    for (const auto& [slave, rec] : records_) {
      if (ctx.is_alive(slave)) post(ctx, slave, MasterBeacon{});
    }
    publish_totals(ctx);  // re-report the board if the counter moved
    if (finished_) return;
    assignment_pass(ctx);  // adopted seeds may be waiting for takers
  }

  void on_status(RankContext& ctx, int from, StatusUpdate status) {
    if (finished_) {
      if (ctx.fault_plane() != nullptr) {
        // A re-home that arrived after the run ended: answer with the
        // terminate the orphan missed so it can quiesce.
        post(ctx, from, command(Command::Type::kTerminate));
      }
      return;
    }
    if (ctx.fault_plane() != nullptr && records_.count(from) == 0) {
      // A re-homing orphan: adopt its dead coordinator's group first,
      // then the orphan itself.
      if (status.orphaned_from >= 0) {
        adopt_coordinator(ctx, status.orphaned_from);
      }
      register_slave(ctx, from);
      if (finished_) return;  // adoption credits may have ended the run
    }
    auto it = records_.find(from);
    if (it == records_.end()) return;
    if (heartbeat_period(ctx) > 0.0) last_heard_[from] = ctx.now();
    apply_status(from, it->second, status);
    update_progress(ctx, from, status.progress);
    merge_total(from, status.terminated_total);
    publish_totals(ctx);
    if (finished_) return;  // terminations may have ended the run
    assignment_pass(ctx);
  }

  // A peer's board, or a promoted host's own advection credits, which
  // flow straight into the board instead of through a StatusUpdate to
  // itself.
  void on_termination_count(
      RankContext& ctx,
      const std::vector<std::pair<int, std::uint32_t>>& totals) {
    if (finished_) return;
    for (const auto& [rank, total] : totals) merge_total(rank, total);
    publish_totals(ctx);
  }

  // A seed demand: a starving master's SeedRequest (`may_escalate` set),
  // or a broker root's SeedRelay, which donates back to the broker for
  // forwarding to whichever starving master it serves.  In tree mode a
  // root brokers demand it cannot satisfy from its own pool instead of
  // answering dry — the requester's one candidate is its root, so a dry
  // answer would quench balancing for the whole subtree while leaf pools
  // still hold seeds.  A relayed demand is brokered within the subtree
  // but never escalated again: the one-escalation rule bounds the chain.
  void on_seed_request(RankContext& ctx, int requester, bool may_escalate) {
    if (finished_) return;
    if (layout_.num_roots > 0 && layout_.is_root(self_)) {
      pending_requests_.push_back({requester, may_escalate});
      broker(ctx);
      return;
    }
    // Always answer — an empty transfer is the "I am dry" signal the
    // requester's dry_masters_ set quenches on.
    post(ctx, requester, collect_donation(ctx));
  }

  void on_seed_transfer(RankContext& ctx, int from, SeedTransfer transfer) {
    if (finished_) return;
    // Clear only the matching outstanding marker: a broker root can have
    // its own request and a relayed donation in flight at once.
    if (from == seed_request_target_) seed_request_outstanding_ = false;
    if (from == relay_target_) relay_outstanding_ = false;
    if (transfer.seeds.empty()) dry_masters_.insert(from);
    for (Particle& p : transfer.seeds) pool_seed(ctx, std::move(p));
    if (!pending_requests_.empty()) {
      broker(ctx);
      if (finished_) return;
    }
    assignment_pass(ctx);
  }

  void on_done_signal(RankContext& ctx) {
    if (finished_) return;
    terminate_slaves(ctx, /*everyone=*/false);
  }

  // A particle-bearing message we sent bounced (dropped link or dead
  // destination): take the payload back and retry through the normal
  // machinery.
  void reclaim_undelivered(RankContext& ctx, Undeliverable u) {
    if (finished_) return;
    if (u.target >= 0 && u.target < layout_.num_masters &&
        u.target != self_ && ctx.is_alive(u.target)) {
      // A master-to-master seed transfer bounced off a live peer: the
      // link dropped it, so just retry the transfer (the requester is
      // still waiting on its outstanding request).  A dead peer's seeds
      // fall through to the generic reclaim below instead.
      post(ctx, u.target, SeedTransfer{std::move(u.particles)});
      return;
    }

    // A seed assignment to a slave failed: un-book the optimistic queue
    // accounting so the rules do not chase phantom particles.
    auto it = records_.find(u.target);
    if (it != records_.end() && u.block != kInvalidBlock) {
      auto qit = it->second.queued.find(u.block);
      if (qit != it->second.queued.end()) {
        const auto n = static_cast<std::uint32_t>(u.particles.size());
        index_unqueue(u.target, u.block);
        if (qit->second > n) {
          qit->second -= n;
          index_queue(u.target, u.block, qit->second);
        } else {
          it->second.queued.erase(qit);
        }
      }
      it->second.outstanding = false;
    }
    for (Particle& p : u.particles) pool_seed(ctx, std::move(p));
    assignment_pass(ctx);
  }

  // Hand the whole seed pool, densest block first, to a solo host for
  // direct integration.
  std::vector<Particle> drain_seeds(RankContext& ctx) {
    std::vector<Particle> out;
    for (BlockId b = seeds_.densest_block(); b != kInvalidBlock;
         b = seeds_.densest_block()) {
      while (auto p = take_seed(ctx, b)) out.push_back(std::move(*p));
    }
    return out;
  }

  void snapshot_seeds(std::vector<Particle>& out) const {
    seeds_.append_all(out);
  }

 private:
  struct SlaveRecord {
    std::map<BlockId, std::uint32_t> queued;  // waiting, by current block
    std::set<BlockId> loaded;
    std::set<BlockId> loading;
    std::uint32_t workable = 0;
    bool outstanding = false;  // assigned work since its last status
    bool needs_work = false;
    bool hint_requested = false;  // a Send_hint on its behalf is pending
  };

  // The one way seeds enter and leave the pool.  Pooled seeds are bare
  // seed points, not active streamline objects: each is charged at
  // solver-state size on the way in and refunded the same on the way out.
  void pool_seed(RankContext& ctx, Particle p) {
    ctx.charge_particle_memory(
        static_cast<std::int64_t>(particle_message_bytes(p, false)));
    seeds_.add(decomp_->block_of(p.pos), std::move(p));
  }

  std::optional<Particle> take_seed(RankContext& ctx, BlockId b) {
    std::optional<Particle> p = seeds_.take_from(b);
    if (p) {
      ctx.charge_particle_memory(
          -static_cast<std::int64_t>(particle_message_bytes(*p, false)));
    }
    return p;
  }

  // --- straggler detection (gray failures, DESIGN.md §16) ------------------

  struct ProgressTrack {
    std::uint64_t anchor_steps = 0;  // watermark at the window anchor
    double anchor_busy = 0.0;        // busy clock at the window anchor
    double anchor_time = 0.0;        // when the current window opened
    double rate = 0.0;      // steps per *busy* second, last closed window
    double last_busy = 0.0; // busy seconds inside the last closed window
    int windows = 0;        // closed windows so far
    bool computing = false;          // latest status: burst in flight
    bool started = false;
    bool flagged = false;
  };

  bool straggler_flagged(int slave) const {
    const auto it = progress_.find(slave);
    return it != progress_.end() && it->second.flagged;
  }

  // Width of one progress-measurement window.  Several heartbeat periods
  // wide, so a window spans multiple bursts: per-status rate samples are
  // all-or-nothing noise (a burst credits its steps at acceptance), while
  // a multi-beat window averages over the burst cadence.
  static double progress_window(const RankContext& ctx) {
    return static_cast<double>(kStragglerMinBeats) * heartbeat_period(ctx);
  }

  // Straggler detection (gray failures): every fault-run status carries
  // the slave's cumulative accepted-step watermark and its cumulative busy
  // clock.  The master differentiates watermark against busy clock over
  // fixed-width wall windows into an *effective compute speed* — steps
  // per busy second.  Wall-clock rates cannot separate "slow" from
  // "starved" (a mostly-idle healthy slave and a continuously-busy slow
  // one post similar steps/wall-second), but busy-second rates can:
  // every healthy slave computes at exactly 1/seconds_per_step no matter
  // how little work it holds, while a gray-slowed slave's bursts take
  // longer than the steps they retire, collapsing its ratio by the
  // slowdown factor.  Cumulative counters make this robust to re-reports
  // and failover re-homing: a duplicate merges as zero delta, never as
  // double progress.
  void update_progress(RankContext& ctx, int slave,
                       const std::optional<SlaveProgress>& progress) {
    if (!progress || heartbeat_period(ctx) <= 0.0 ||
        !params_.speculative_reissue) {
      return;
    }
    const auto [steps_total, busy_seconds, computing] = *progress;
    ProgressTrack& t = progress_[slave];
    t.computing = computing;
    const double now = ctx.now();
    if (!t.started) {
      t.started = true;
      t.anchor_steps = steps_total;
      t.anchor_busy = busy_seconds;
      t.anchor_time = now;
      return;
    }
    if (now - t.anchor_time < progress_window(ctx)) return;  // window open
    const std::uint64_t ds =
        steps_total > t.anchor_steps ? steps_total - t.anchor_steps : 0;
    const double dbusy = busy_seconds - t.anchor_busy;
    // No busy time in the window: the slave never computed, so there is
    // no speed sample.  Rate 0 with computing set still marks it a
    // candidate (burst accepted but no progress at all = hard stall).
    t.rate = dbusy > 0.0 ? static_cast<double>(ds) / dbusy : 0.0;
    t.last_busy = dbusy > 0.0 ? dbusy : 0.0;
    ++t.windows;
    t.anchor_steps = steps_total;
    t.anchor_busy = busy_seconds;
    t.anchor_time = now;
    flag_stragglers(ctx);
  }

  // A slave is a detection candidate only while it is *expected* to
  // progress: its latest status says a burst is in flight, or it
  // reported runnable (resident-block) work.  A slave whose particles
  // are all blocked on unloaded blocks — or which has simply run dry —
  // produces a zero rate that means "no runnable work", not "slow";
  // flagging the waiting and idle tails would starve them forever and
  // poison the median.
  bool detection_candidate(int slave, const ProgressTrack& t) const {
    if (t.computing) return true;
    const auto it = records_.find(slave);
    return it != records_.end() && it->second.workable > 0;
  }

  // Flag every candidate slave whose last-window effective speed sits
  // below the slowness threshold of the healthy-group median, and
  // speculatively re-issue its ledger-owned streamlines into the seed
  // pool for healthy slaves.  The reference group is every unflagged
  // slave with a positive speed sample — a single short burst already
  // yields an accurate steps-per-busy-second reading — so healthy bursts
  // finishing between heartbeats never shrink it; requiring two of them
  // also guarantees a healthy slave remains to run the copies.  Flagging
  // additionally demands the suspect spent most of its last window
  // *busy*: a slave that barely computed has a noisy speed sample (the
  // pro-rated watermark truncates to whole steps), while a genuinely
  // gray-slowed slave is busy wall-to-wall — its bursts overrun the
  // window — so the gate costs no detection coverage where mitigation
  // matters.
  void flag_stragglers(RankContext& ctx) {
    std::vector<double> rates;
    for (const auto& [slave, t] : progress_) {
      if (t.flagged || t.windows < 1 || t.rate <= 0.0) continue;
      rates.push_back(t.rate);
    }
    if (rates.size() < 2) return;
    const std::size_t mid = rates.size() / 2;
    std::nth_element(rates.begin(),
                     rates.begin() + static_cast<std::ptrdiff_t>(mid),
                     rates.end());
    const double median = rates[mid];
    if (median <= 0.0) return;
    const double busy_floor = 0.5 * progress_window(ctx);
    for (auto& [slave, t] : progress_) {
      if (t.flagged || t.windows < 1) continue;
      if (t.last_busy < busy_floor) continue;
      if (!detection_candidate(slave, t)) continue;
      if (t.rate >= kStragglerSlowness * median) continue;
      t.flagged = true;
      // Copy the straggler's in-progress streamlines out of the ledger
      // into the seed pool, like absorb_recovered — except the straggler
      // stays alive and keeps its own copies, so its termination total is
      // NOT merged here (it reports its own credits; first-terminal-wins
      // dedups whichever copy loses the race).
      for (Particle& p : ctx.speculate_rank(slave)) {
        pool_seed(ctx, std::move(p));
      }
    }
  }

  // --- index maintenance ---------------------------------------------------
  // Two inverted indexes keep the rule passes O(own state) instead of
  // O(slaves x blocks): which slaves hold a block (loaded or loading),
  // and which slaves have particles queued in it.

  void index_hold(int slave, BlockId b) { holders_[b].insert(slave); }

  void index_unhold(int slave, BlockId b) {
    auto it = holders_.find(b);
    if (it == holders_.end()) return;
    it->second.erase(slave);
    if (it->second.empty()) holders_.erase(it);
  }

  void index_queue(int slave, BlockId b, std::uint32_t count) {
    if (count > 0) queued_idx_[b][slave] += count;
  }

  void index_unqueue(int slave, BlockId b) {
    auto it = queued_idx_.find(b);
    if (it == queued_idx_.end()) return;
    it->second.erase(slave);
    if (it->second.empty()) queued_idx_.erase(it);
  }

  void apply_status(int slave, SlaveRecord& rec, const StatusUpdate& status) {
    for (const auto& [b, count] : rec.queued) index_unqueue(slave, b);
    for (const BlockId b : rec.loaded) index_unhold(slave, b);
    for (const BlockId b : rec.loading) index_unhold(slave, b);

    rec.queued.clear();
    for (const auto& [block, count] : status.queued_by_block) {
      rec.queued[block] = count;
      index_queue(slave, block, count);
    }
    rec.loaded = std::set<BlockId>(status.loaded.begin(), status.loaded.end());
    rec.loading =
        std::set<BlockId>(status.loading.begin(), status.loading.end());
    for (const BlockId b : rec.loaded) index_hold(slave, b);
    for (const BlockId b : rec.loading) index_hold(slave, b);
    rec.workable = status.workable;
    rec.outstanding = false;
    rec.needs_work = (status.workable == 0);
    rec.hint_requested = false;
  }

  // Optimistic bookkeeping for a Send_force: move the queued particles
  // of block `b` from one record to another.
  void move_queued(int from_slave, SlaveRecord& from_rec, BlockId b,
                   int to_slave) {
    const auto it = from_rec.queued.find(b);
    if (it == from_rec.queued.end()) return;
    const std::uint32_t count = it->second;
    from_rec.queued.erase(it);
    index_unqueue(from_slave, b);
    records_[to_slave].queued[b] += count;
    index_queue(to_slave, b, count);
  }

  void note_load_command(int slave, SlaveRecord& rec, BlockId b) {
    rec.loading.insert(b);
    index_hold(slave, b);
  }

  static std::uint32_t workload(const SlaveRecord& rec) {
    std::uint32_t n = rec.workable;
    for (const auto& [block, count] : rec.queued) n += count;
    return n;
  }

  static bool has_block(const SlaveRecord& rec, BlockId b) {
    return rec.loaded.count(b) != 0 || rec.loading.count(b) != 0;
  }

  std::uint32_t overload_limit() const {
    return static_cast<std::uint32_t>(params_.overload_factor *
                                      params_.assign_batch);
  }

  void assign_seeds(RankContext& ctx, int slave, SlaveRecord& rec) {
    // Prefer a block the slave already has loaded (Assign_loaded), else
    // the densest seed block (Assign_unloaded).
    BlockId from = kInvalidBlock;
    for (const auto& [block, count] : seeds_.census()) {
      if (rec.loaded.count(block) != 0) {
        from = block;
        break;
      }
    }
    if (from == kInvalidBlock) from = seeds_.densest_block();
    if (from == kInvalidBlock) return;

    // Take up to N seeds out of that block of the pool.
    std::vector<Particle> batch;
    while (batch.size() < static_cast<std::size_t>(params_.assign_batch)) {
      auto p = take_seed(ctx, from);
      if (!p) break;
      batch.push_back(std::move(*p));
    }
    rec.queued[from] += static_cast<std::uint32_t>(batch.size());
    index_queue(slave, from, static_cast<std::uint32_t>(batch.size()));
    // The slave auto-loads the blocks of assigned seeds (Assign_unloaded).
    if (!has_block(rec, from)) note_load_command(slave, rec, from);
    rec.outstanding = true;
    rec.needs_work = false;
    Command cmd = command(Command::Type::kAssign, from);
    cmd.particles = std::move(batch);
    post(ctx, slave, std::move(cmd));
  }

  // The densest block holding more than `floor` of S's particles that S
  // neither has loaded nor is loading; kInvalidBlock when there is none.
  static BlockId densest_stuck(const SlaveRecord& rec, std::uint32_t floor) {
    BlockId best = kInvalidBlock;
    for (const auto& [b, count] : rec.queued) {
      if (!has_block(rec, b) && count > floor) {
        best = b;
        floor = count;
      }
    }
    return best;
  }

  // Order S to load `b` (the Load rule); false when `b` is no block.
  bool order_load(RankContext& ctx, int slave, SlaveRecord& rec, BlockId b) {
    if (b == kInvalidBlock) return false;
    post(ctx, slave, command(Command::Type::kLoad, b));
    note_load_command(slave, rec, b);
    return true;
  }

  // The §4.3 rule sequence for one workless slave.  Returns true when S
  // was supplied with work.  The last-resort rules (6's global fallback
  // and 7) are gated by `allow_expensive`: the assignment pass grants
  // them to one starving slave per pass, because they scan group-wide
  // state and rarely succeed twice in the same pass ("the next time
  // another slave posts a status ... there is another opportunity").
  bool rules_for(RankContext& ctx, int slave, SlaveRecord& rec,
                 bool allow_expensive) {
    // (1) Send_force away: S's particles in unloaded blocks go to group
    // slaves that have those blocks loaded/loading (if they stay under
    // NO).  A block still in flight counts: particles queue on the
    // receiving slave until its read lands.
    {
      std::vector<BlockId> stuck;
      for (const auto& [b, count] : rec.queued) {
        if (count > 0 && !has_block(rec, b)) stuck.push_back(b);
      }
      for (const BlockId b : stuck) {
        const auto hit = holders_.find(b);
        if (hit == holders_.end()) continue;
        const std::uint32_t count = rec.queued[b];
        for (const int cand : hit->second) {
          if (cand == slave || straggler_flagged(cand)) continue;
          if (workload(records_[cand]) + count > overload_limit()) continue;
          post(ctx, slave, command(Command::Type::kSendForce, b, cand));
          move_queued(slave, rec, b, cand);
          break;
        }
      }
    }

    // (2) Load: S has more than NL particles stuck in one unloaded block.
    bool assigned = order_load(
        ctx, slave, rec,
        densest_stuck(rec, static_cast<std::uint32_t>(params_.load_threshold)));

    // (3) The loads above changed the group's loaded sets: other slaves
    // may now Send_force their stuck particles to S.
    {
      std::vector<BlockId> held(rec.loaded.begin(), rec.loaded.end());
      held.insert(held.end(), rec.loading.begin(), rec.loading.end());
      for (const BlockId b : held) {
        const auto qit = queued_idx_.find(b);
        if (qit == queued_idx_.end()) continue;
        // Copy: move_queued mutates the index.
        const std::vector<std::pair<int, std::uint32_t>> waiters(
            qit->second.begin(), qit->second.end());
        for (const auto& [other, count] : waiters) {
          if (other == slave || count == 0) continue;
          SlaveRecord& orec = records_[other];
          if (has_block(orec, b)) continue;  // they can run it themselves
          if (workload(rec) + count > overload_limit()) break;
          post(ctx, other, command(Command::Type::kSendForce, b, slave));
          move_queued(other, orec, b, slave);
          assigned = true;
        }
      }
    }

    // (4) Assign_loaded / (5) Assign_unloaded from the master seed pool.
    if (!assigned && !seeds_.empty()) {
      assign_seeds(ctx, slave, rec);
      return true;  // assign_seeds maintains the record flags itself
    }

    // (6) Still nothing: make S load the block holding its most
    // streamlines (or, failing that, the group's hottest block).
    if (!assigned) {
      BlockId best = densest_stuck(rec, 0);
      if (best == kInvalidBlock && allow_expensive) {
        // Fall back to the group's hottest block — but only one held by
        // *no* group slave.  If somebody already holds it, migration
        // (rules 1/3/7) is strictly cheaper than a duplicate 12 MB read,
        // and without this guard every starved slave in a large group
        // re-loads the same hot block.
        std::uint32_t best_count = 0;
        for (const auto& [b, waiters] : queued_idx_) {
          if (holders_.count(b) != 0) continue;
          std::uint32_t total = 0;
          for (const auto& [other, count] : waiters) total += count;
          if (total > best_count) {
            best = b;
            best_count = total;
          }
        }
      }
      assigned = order_load(ctx, slave, rec, best);
    }

    // (7) Hint the busiest slave that S can take work off its hands.
    // At most one outstanding hint per starving slave (re-armed by its
    // next status) — unthrottled hinting floods the group.
    if (!assigned && allow_expensive && !rec.hint_requested) {
      std::vector<int> busiest;
      std::uint32_t most = 0;
      for (const auto& [other, orec] : records_) {
        if (other == slave) continue;
        const std::uint32_t w = workload(orec);
        if (w > most) {
          most = w;
          busiest.assign(1, other);
        } else if (w == most && w > 0) {
          busiest.push_back(other);
        }
      }
      if (!busiest.empty() && most > 0) {
        const int target = busiest[static_cast<std::size_t>(
            rng_.next_below(busiest.size()))];
        Command cmd = command(Command::Type::kSendHint, kInvalidBlock, slave);
        for (const auto& [b, count] : records_[target].queued) {
          if (count > 0 && !has_block(records_[target], b)) {
            cmd.hint_blocks.push_back(b);
          }
        }
        if (!cmd.hint_blocks.empty()) {
          post(ctx, target, std::move(cmd));
          rec.hint_requested = true;
        }
      }
    }

    return assigned;
  }

  void assignment_pass(RankContext& ctx) {
    bool expensive_available = true;
    for (auto& [slave, rec] : records_) {
      if (!rec.needs_work || rec.outstanding) continue;
      // A flagged straggler gets no new work: its remaining copies race
      // the speculated ones, and feeding it more only slows the run.
      if (straggler_flagged(slave)) continue;
      if (rules_for(ctx, slave, rec, expensive_available)) {
        rec.needs_work = false;
        rec.outstanding = true;
      } else if (expensive_available) {
        // The group-wide last-resort rules ran and found nothing; do not
        // re-scan for every other starving slave in this pass.
        expensive_available = false;
      }
    }

    // Master-to-master balancing: my pool is dry but slaves are starving.
    if (seeds_.empty() && !seed_request_outstanding_ &&
        layout_.num_masters > 1) {
      bool starving = false;
      for (const auto& [slave, rec] : records_) {
        if (rec.needs_work && !rec.outstanding) starving = true;
      }
      if (starving) {
        const int candidate = seed_donor_candidate(ctx);
        if (candidate >= 0) {
          post(ctx, candidate, SeedRequest{});
          seed_request_outstanding_ = true;
          seed_request_target_ = candidate;
        }
      }
    }
  }

  // Whom a starving master asks for seeds.  Flat layout: round-robin over
  // the peer masters.  Tree layout: a leaf asks a root (its parent first),
  // so demand is brokered instead of flooding every master; a root asks
  // its own leaf children first, then peer roots (roots hold no pool of
  // their own unless they adopted one).  -1 when every candidate is dry
  // or dead.
  int seed_donor_candidate(const RankContext& ctx) const {
    auto viable = [&](int m) {
      return m != self_ && dry_masters_.count(m) == 0 && ctx.is_alive(m);
    };
    if (layout_.num_roots == 0 || self_ >= layout_.num_masters) {
      // Flat layout — or a promoted slave, whose master candidates are
      // all dead by the promotion condition (the loop degenerates).
      for (int m = 0; m < layout_.num_masters; ++m) {
        const int candidate = (self_ + 1 + m) % layout_.num_masters;
        if (viable(candidate)) return candidate;
      }
      return -1;
    }
    if (layout_.is_root(self_)) {
      const auto [first, last] = layout_.leaves_of(self_);
      for (int leaf = first; leaf < last; ++leaf) {
        if (viable(leaf)) return leaf;
      }
      for (int i = 0; i < layout_.num_roots; ++i) {
        const int peer = (self_ + 1 + i) % layout_.num_roots;
        if (viable(peer)) return peer;
      }
      return -1;
    }
    const int parent = layout_.root_of(self_);
    for (int i = 0; i < layout_.num_roots; ++i) {
      const int candidate = (parent + i) % layout_.num_roots;
      if (viable(candidate)) return candidate;
    }
    return -1;
  }

  // --- root-tier seed brokering (tree layouts) -----------------------------

  // Donate up to 4N seeds, densest block first, if we can spare them.
  SeedTransfer collect_donation(RankContext& ctx) {
    SeedTransfer transfer;
    const std::size_t spare_floor =
        static_cast<std::size_t>(params_.assign_batch) * records_.size();
    const std::size_t donate_cap =
        static_cast<std::size_t>(4 * params_.assign_batch);
    while (seeds_.size() > spare_floor && transfer.seeds.size() < donate_cap) {
      auto p = take_seed(ctx, seeds_.densest_block());
      if (!p) break;
      transfer.seeds.push_back(std::move(*p));
    }
    return transfer;
  }

  // Serve queued demands from this root's own pool; when dry, relay one
  // demand at a time to a child leaf (round-robin), escalating once to a
  // peer root when the whole subtree answered dry.  Donations flow back
  // here (on_seed_transfer re-enters), so every queued demand ends in
  // either seeds or a definitive empty answer once all candidates are dry
  // — the same quenching guarantee the flat round-robin has.
  void broker(RankContext& ctx) {
    while (!pending_requests_.empty()) {
      PendingSeedRequest& req = pending_requests_.front();
      if (!ctx.is_alive(req.reply_to)) {
        pending_requests_.pop_front();  // failover reclaims its work
        continue;
      }
      SeedTransfer transfer = collect_donation(ctx);
      if (!transfer.seeds.empty()) {
        post(ctx, req.reply_to, std::move(transfer));
        pending_requests_.pop_front();
        continue;
      }
      if (relay_outstanding_) return;  // a donation is already in flight
      const auto [first, last] = layout_.leaves_of(self_);
      const int span = last - first;
      for (int i = 0; i < span; ++i) {
        const int leaf = first + (relay_cursor_ + i) % span;
        if (leaf == req.reply_to || dry_masters_.count(leaf) != 0) continue;
        if (!ctx.is_alive(leaf)) continue;
        relay_cursor_ = (leaf - first + 1) % span;
        send_relay(ctx, leaf);
        return;
      }
      if (req.may_escalate) {
        req.may_escalate = false;
        for (int i = 0; i < layout_.num_roots; ++i) {
          const int peer = (self_ + 1 + i) % layout_.num_roots;
          if (peer == self_ || peer == req.reply_to) continue;
          if (dry_masters_.count(peer) != 0 || !ctx.is_alive(peer)) continue;
          send_relay(ctx, peer);
          return;
        }
      }
      // Every candidate is dry or dead: a definitive empty answer, which
      // marks this root dry at the requester and quenches its asking.
      post(ctx, req.reply_to, SeedTransfer{});
      pending_requests_.pop_front();
    }
  }

  void send_relay(RankContext& ctx, int donor) {
    post(ctx, donor, SeedRelay{});
    relay_outstanding_ = true;
    relay_target_ = donor;
  }

  // --- failover ------------------------------------------------------------

  void register_slave(RankContext& ctx, int slave) {
    if (records_.count(slave) != 0) return;
    records_[slave] = SlaveRecord{};
    // Adopted slaves get one extra detection window before the sixth rule
    // may declare them: their own re-home detection runs on the same
    // silence clock as ours, so a fresh adoptee may legitimately report
    // up to a full deadline late.
    last_heard_[slave] = ctx.now() + deadline(ctx);
  }

  // Absorb a dead coordinator: its unassigned seed pool and termination
  // total come out of the particle ledger; the survivors of its group are
  // registered (their re-reports arrive within a heartbeat), and its dead
  // slaves are recovered too so no credit or streamline is orphaned by a
  // chain of deaths.
  void adopt_coordinator(RankContext& ctx, int dead) {
    if (ctx.is_alive(dead)) return;
    if (!recovered_coords_.insert(dead).second) return;
    absorb_recovered(ctx, dead);
    if (dead < layout_.num_masters) {
      const auto [first, last] = layout_.slaves_of(dead);
      for (int s = first; s < last; ++s) {
        if (s == self_) continue;
        if (ctx.is_alive(s)) {
          register_slave(ctx, s);
        } else if (recovered_coords_.insert(s).second) {
          absorb_recovered(ctx, s);
        }
      }
    }
    publish_totals(ctx);
  }

  void absorb_recovered(RankContext& ctx, int dead) {
    RecoveredWork work = ctx.recover_rank(dead);
    for (Particle& p : work.active) pool_seed(ctx, std::move(p));
    merge_total(dead, work.terminated_total);
  }

  // The sixth rule's action: forget everything we believed about the
  // slave, reclaim its streamlines from the ledger into the seed pool,
  // fold its ledger-logged termination total into the board, and
  // rebalance.
  void declare_dead(RankContext& ctx, int slave) {
    auto it = records_.find(slave);
    if (it == records_.end()) return;
    // Purge the record's index entries by applying an empty status, then
    // drop the record: dead slaves take no further part in any rule.
    apply_status(slave, it->second, StatusUpdate{});
    records_.erase(it);
    last_heard_.erase(slave);
    progress_.erase(slave);

    recovered_coords_.insert(slave);
    absorb_recovered(ctx, slave);
    publish_totals(ctx);
    if (finished_) return;
    assignment_pass(ctx);
  }

  // --- termination board ---------------------------------------------------

  void merge_total(int rank, std::uint32_t total) {
    if (total == 0) return;
    auto& hw = totals_[rank];
    if (total <= hw) return;
    hw = total;
    totals_dirty_ = true;
  }

  // Where this coordinator publishes its board.  Flat layout: straight to
  // the acting counter.  Tree layout: leaf masters report to their parent
  // root, which max-merges its subtree's boards and forwards the merged
  // board to the counter — a two-level reduction that replaces the
  // all-to-all master exchange, so the counter hears O(num_roots) links
  // instead of O(num_masters).  A dead parent falls back to the
  // successor, so every credit still reaches the counter.
  int publish_target(const RankContext& ctx) const {
    if (layout_.num_roots > 0 && !layout_.is_root(self_) &&
        self_ < layout_.num_masters) {
      const int parent = layout_.root_of(self_);
      if (ctx.is_alive(parent)) return parent;
    }
    return lowest_live_rank(ctx);
  }

  // Push the per-rank high-water board one tier up (or, when we are the
  // counter, check for completion).  Re-publishing the *full* board — not
  // deltas — is what lets a counter successor reconstruct the count after
  // the old counter died with reports it never broadcast, and what makes
  // the tree reduction idempotent (max-merge of cumulative totals).
  void publish_totals(RankContext& ctx) {
    if (finished_) return;
    const int counter = publish_target(ctx);
    if (counter == self_) {
      last_published_counter_ = counter;
      totals_dirty_ = false;
      maybe_finish(ctx);
      return;
    }
    if (!totals_dirty_ && counter == last_published_counter_) return;
    TerminationCount tc;
    for (const auto& [rank, total] : totals_) {
      if (total > 0) tc.totals.emplace_back(rank, total);
    }
    if (tc.totals.empty()) return;
    post(ctx, counter, std::move(tc));
    totals_dirty_ = false;
    last_published_counter_ = counter;
  }

  void maybe_finish(RankContext& ctx) {
    std::uint64_t done = 0;
    for (const auto& [rank, total] : totals_) done += total;
    if (done >= total_active_) finish_everyone(ctx);
  }

  void finish_everyone(RankContext& ctx) {
    for (int m = 0; m < layout_.num_masters; ++m) {
      if (m != self_ && ctx.is_alive(m)) post(ctx, m, DoneSignal{});
    }
    // With failover a master can die with its DoneSignal still in flight;
    // its orphans would then re-home to a coordinator that already
    // finished.  The counter closes that window by terminating every live
    // slave directly (duplicate kTerminates are idempotent).
    terminate_slaves(ctx, /*everyone=*/ctx.fault_plane() != nullptr);
  }

  // Send kTerminate to every live slave rank but us — all of them, or
  // only those this coordinator is responsible for: its layout group
  // (including slaves erased from records_ by a false-positive
  // declare-dead), plus anyone adopted through failover — and finish.
  void terminate_slaves(RankContext& ctx, bool everyone) {
    for (int s = layout_.num_masters; s < layout_.num_ranks; ++s) {
      if (s == self_ || !ctx.is_alive(s)) continue;
      if (!everyone && records_.count(s) == 0 && !coordinates(ctx, s)) {
        continue;
      }
      post(ctx, s, command(Command::Type::kTerminate));
    }
    finished_ = true;
  }

  bool coordinates(const RankContext& ctx, int slave) const {
    const int m = layout_.master_of(slave);
    if (ctx.is_alive(m)) return m == self_;
    return adopter_of(ctx, layout_, m) == self_;
  }

  const BlockDecomposition* decomp_;
  int self_;
  HybridLayout layout_;
  HybridParams params_;
  std::uint32_t total_active_;  // global streamline count
  Rng rng_;

  ParticlePool seeds_;
  std::map<int, SlaveRecord> records_;
  std::map<int, double> last_heard_;  // heartbeat bookkeeping (§7)
  std::map<int, ProgressTrack> progress_;  // straggler detection (§16)
  // Inverted indexes over the records (see index_* helpers).
  std::map<BlockId, std::set<int>> holders_;
  std::map<BlockId, std::map<int, std::uint32_t>> queued_idx_;
  std::set<int> dry_masters_;
  bool seed_request_outstanding_ = false;
  int seed_request_target_ = -1;
  // Root-tier brokering state (tree layouts; unused in flat runs).  One
  // queued demand records whom the eventual SeedTransfer goes to (the
  // starving master, or the peer root that escalated on its behalf) and
  // whether one escalation is still allowed.
  struct PendingSeedRequest {
    int reply_to = -1;
    bool may_escalate = false;
  };
  std::deque<PendingSeedRequest> pending_requests_;
  int relay_cursor_ = 0;
  bool relay_outstanding_ = false;
  int relay_target_ = -1;
  // Survivable termination accounting (§11): per-rank cumulative
  // high-water marks, max-merged from statuses, peer boards, and ledger
  // recoveries; global done = sum of the board.
  std::map<int, std::uint32_t> totals_;
  bool totals_dirty_ = false;
  int last_published_counter_ = -1;
  // Dead coordinators (and dead slaves) whose ledger state was already
  // absorbed; keeps adoption idempotent across re-homing bursts.
  std::set<int> recovered_coords_;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Rank program
// ---------------------------------------------------------------------------

// The one hybrid rank program.  A slave advances streamlines from its
// block cache and reports status to its coordinator; a layout master
// engages the MasterCore at start and only coordinates until its whole
// group is dead.  A slave that finds every master dead engages the same
// core on promotion and keeps advecting its own pool alongside (the core
// never schedules it).
class HybridRank final : public RankProgram {
 public:
  HybridRank(const BlockDecomposition* decomp, int rank, HybridLayout layout,
             HybridParams params, std::vector<Particle> seeds,
             std::uint32_t total_active)
      : decomp_(decomp),
        rank_(rank),
        layout_(layout),
        params_(params),
        total_active_(total_active),
        coord_(layout.is_master(rank) ? rank : layout.master_of(rank)),
        initial_seeds_(std::move(seeds)) {}

  void start(RankContext& ctx) override {
    // Slaves begin idle; everything arrives from the master.  Do not
    // report yet — the master hands out the initial allocation unasked.
    master_heard_ = ctx.now();
    if (layout_.is_master(rank_)) {
      core_.emplace(decomp_, rank_, layout_, params_, total_active_);
      core_->start_as_master(ctx, std::exchange(initial_seeds_, {}));
      core_post(ctx);
    }
    if (heartbeat_period(ctx) > 0.0 && !finished_) {
      ctx.set_timer(heartbeat_period(ctx));
    }
  }

  void on_timer(RankContext& ctx) override {
    if (finished_) return;
    if (core_) {
      core_->tick(ctx);
      core_post(ctx);
    } else {
      maybe_failover(ctx);
      if (!core_ && !finished_) {
        // Heartbeat: prove liveness and report the cumulative termination
        // total even while busy; the coordinator declares silent slaves
        // dead.
        send_status(ctx, workable(ctx));
      }
    }
    if (!finished_) ctx.set_timer(heartbeat_period(ctx));
  }

  void on_message(RankContext& ctx, Message msg) override {
    // ControlAck is consumed by the runtime's transport layer and never
    // reaches a program.
    // protocol-lint: ignores ControlAck
    // protocol-lint: ignores QuerySubmit, QueryCancel, QueryResult
    // protocol-lint: ignores QueryDone
    if (auto* batch = std::get_if<ParticleBatch>(&msg.payload)) {
      accept_particles(ctx, std::move(batch->particles));
      try_start(ctx);
      return;
    }
    if (auto* undeliv = std::get_if<Undeliverable>(&msg.payload)) {
      // A shipment bounced (dropped link or dead receiver): take the
      // particles back.  A plain worker re-pools them for re-routing; a
      // coordinator reclaims them through its scheduling machinery.
      if (core_) {
        core_->reclaim_undelivered(ctx, std::move(*undeliv));
        core_post(ctx);
      } else {
        accept_particles(ctx, std::move(undeliv->particles));
        try_start(ctx);
      }
      return;
    }
    if (std::holds_alternative<MasterBeacon>(msg.payload)) {
      master_heard_ = ctx.now();
      // A beacon from a master we do not report to, while ours is dead,
      // is a takeover announcement: the sender adopted our group.  Re-home
      // now instead of waiting out the silence deadline — without this the
      // new coordinator's beacons would keep resetting the silence clock
      // while our reports still went to the corpse, and the adopter would
      // eventually declare *us* dead for never reporting.
      if (ctx.fault_plane() != nullptr && msg.from != coord_ &&
          !ctx.is_alive(coord_)) {
        coord_ = msg.from;
      }
      return;
    }
    if (auto* cmd = std::get_if<Command>(&msg.payload)) {
      master_heard_ = ctx.now();
      on_command(ctx, std::move(*cmd));
      return;
    }

    // Coordinator-side traffic (statuses, boards, seed balancing, done).
    // On a slave it only means something once it is the failover
    // successor.  A peer that computed us as successor may deliver before
    // our own silence detection fires — promote on demand; the liveness
    // view makes this safe (successor == self implies every master is
    // already dead).
    if (!core_ && ctx.fault_plane() != nullptr && !finished_ &&
        lowest_live_rank(ctx) == rank_) {
      promote(ctx);
    }
    // A finished layout master still hands the core late re-homes (it
    // answers them with the terminate they missed); a finished promoted
    // slave goes quiet.
    if (!core_ || (finished_ && !layout_.is_master(rank_))) return;
    if (auto* status = std::get_if<StatusUpdate>(&msg.payload)) {
      core_->on_status(ctx, msg.from, std::move(*status));
    } else if (auto* term = std::get_if<TerminationCount>(&msg.payload)) {
      core_->on_termination_count(ctx, term->totals);
    } else if (std::holds_alternative<SeedRequest>(msg.payload)) {
      core_->on_seed_request(ctx, msg.from, /*may_escalate=*/true);
    } else if (std::holds_alternative<SeedRelay>(msg.payload)) {
      core_->on_seed_request(ctx, msg.from, /*may_escalate=*/false);
    } else if (auto* transfer = std::get_if<SeedTransfer>(&msg.payload)) {
      core_->on_seed_transfer(ctx, msg.from, std::move(*transfer));
    } else if (std::holds_alternative<DoneSignal>(msg.payload)) {
      core_->on_done_signal(ctx);
    }
    core_post(ctx);
  }

  void on_block_loaded(RankContext& ctx, BlockId) override {
    if (pending_loads_ > 0) --pending_loads_;
    reported_ = false;
    try_start(ctx);
  }

  void on_compute_done(RankContext& ctx) override {
    steps_total_ += in_flight_steps_;
    in_flight_steps_ = 0;
    busy_total_ += ctx.now() - burst_start_;
    terminated_total_ += work_.settle(ctx, [this](Particle p, BlockId need) {
      work_.pool().add(need, std::move(p));
    });
    reported_ = false;
    if (core_) {
      core_->on_termination_count(ctx, {{rank_, terminated_total_}});
      core_post(ctx);
      return;
    }
    try_start(ctx);
  }

  bool finished() const override { return finished_; }

  void collect_particles(std::vector<Particle>& out) const override {
    work_.collect(out);
  }

  void snapshot_particles(std::vector<Particle>& out) const override {
    work_.snapshot(out);
    out.insert(out.end(), initial_seeds_.begin(), initial_seeds_.end());
    if (core_) core_->snapshot_seeds(out);
  }

 private:
  void on_command(RankContext& ctx, Command cmd) {
    switch (cmd.type) {
      case Command::Type::kAssign: {
        // Assign_loaded / Assign_unloaded: integrate these seeds; load
        // their blocks if we do not have them.
        std::set<BlockId> blocks;
        for (const Particle& p : cmd.particles) {
          blocks.insert(decomp_->block_of(p.pos));
        }
        accept_particles(ctx, std::move(cmd.particles));
        for (const BlockId b : blocks) {
          request_if_needed(ctx, b);
        }
        try_start(ctx);
        break;
      }
      case Command::Type::kLoad:
        request_if_needed(ctx, cmd.block);
        try_start(ctx);
        break;
      case Command::Type::kSendForce: {
        // Mandatory migration of our particles in `block` to `target`.
        std::vector<Particle> moving = work_.pool().drain_block(cmd.block);
        ship_particles(ctx, cmd.target, cmd.block, std::move(moving));
        reported_ = false;
        try_start(ctx);
        break;
      }
      case Command::Type::kSendHint: {
        // Optional: offload particles waiting in *unloaded* hint blocks.
        // If none are appropriate, ignore the hint (the autonomy rule).
        for (const BlockId b : cmd.hint_blocks) {
          if (ctx.block_resident(b) || ctx.block_pending(b)) continue;
          std::vector<Particle> moving = work_.pool().drain_block(b);
          if (!moving.empty()) {
            ship_particles(ctx, cmd.target, b, std::move(moving));
            reported_ = false;
          }
        }
        try_start(ctx);
        break;
      }
      case Command::Type::kTerminate:
        finished_ = true;
        break;
    }
  }

  // Silence-based master failure detection (§11): beacons and commands
  // refresh master_heard_; a coordinator silent past the miss limit whose
  // death the runtime confirms triggers re-homing — to the successor, or
  // to ourselves by promotion when no master survives.  The liveness
  // confirmation is what prevents a lossy-link silence from electing two
  // acting masters.  Runs from the heartbeat timer, so on fault runs only.
  void maybe_failover(RankContext& ctx) {
    if (ctx.now() - master_heard_ <= deadline(ctx)) return;  // not yet
    if (ctx.is_alive(coord_)) return;  // silent but alive: keep waiting
    // Re-home to whichever rank absorbs our dead coordinator's group.
    const int succ = adopter_of(ctx, layout_, coord_);
    if (succ == rank_) {
      promote(ctx);
      return;
    }
    const int orphaned = coord_;
    coord_ = succ;
    master_heard_ = ctx.now();  // restart the clock on the successor
    send_status(ctx, workable(ctx), orphaned);
  }

  // Become the acting master: engage the scheduling core a layout master
  // runs, adopt every dead coordinator's ledger state, and keep advecting
  // our own pool alongside (the core never schedules us).
  void promote(RankContext& ctx) {
    core_.emplace(decomp_, rank_, layout_, params_, total_active_);
    core_->start_as_successor(ctx);
    core_->on_termination_count(ctx, {{rank_, terminated_total_}});
    core_post(ctx);
  }

  // After any core interaction: propagate its finish, and in solo mode
  // (no live slave left to command) integrate the seed pool ourselves.
  void core_post(RankContext& ctx) {
    if (core_->finished()) {
      finished_ = true;
      return;
    }
    if (core_->solo()) {
      std::vector<Particle> adopted = core_->drain_seeds(ctx);
      if (!adopted.empty()) accept_particles(ctx, std::move(adopted));
    }
    try_start(ctx);
  }

  std::uint32_t workable(RankContext& ctx) const {
    std::uint32_t n = 0;
    for (const auto& [block, count] : work_.pool().census()) {
      if (ctx.block_resident(block)) n += count;
    }
    return n;
  }

  void accept_particles(RankContext& ctx, std::vector<Particle> particles) {
    for (Particle& p : particles) {
      work_.admit(ctx, decomp_->block_of(p.pos), std::move(p));
    }
    reported_ = false;
  }

  void ship_particles(RankContext& ctx, int target, BlockId block,
                      std::vector<Particle> particles) {
    if (particles.empty()) return;
    work_.release(ctx, particles);
    post(ctx, target, ParticleBatch{block, std::move(particles)});
  }

  void request_if_needed(RankContext& ctx, BlockId b) {
    if (b == kInvalidBlock || ctx.block_resident(b) || ctx.block_pending(b)) {
      return;
    }
    ++pending_loads_;
    ctx.request_block(b);
  }

  // Cumulative accepted-step watermark for straggler detection (§16):
  // completed bursts in full, plus the in-flight burst pro-rated by how
  // much of its *planned* modelled duration has elapsed.  On a healthy
  // slave the pro-rating tracks reality and the watermark rises smoothly
  // through multi-heartbeat bursts; on a secretly slowed rank the planned
  // fraction is exhausted early and the watermark sits flat until the
  // burst really completes — exactly the rate collapse the master's
  // windowed detector needs.  Monotone: the fraction is capped at 1 and
  // burst completion folds the same total into steps_total_.
  std::uint64_t watermark(const RankContext& ctx) const {
    if (in_flight_steps_ == 0) return steps_total_;
    double frac = 1.0;
    if (burst_duration_ > 0.0) {
      frac = (ctx.now() - burst_start_) / burst_duration_;
      if (frac > 1.0) frac = 1.0;
      if (frac < 0.0) frac = 0.0;
    }
    return steps_total_ +
           static_cast<std::uint64_t>(
               frac * static_cast<double>(in_flight_steps_));
  }

  void send_status(RankContext& ctx, std::uint32_t workable_now,
                   int orphaned_from = -1) {
    StatusUpdate s;
    for (const auto& [block, count] : work_.pool().census()) {
      s.queued_by_block.emplace_back(block, count);
    }
    s.loaded = ctx.resident_blocks();
    for (const auto& [block, count] : work_.pool().census()) {
      if (ctx.block_pending(block)) s.loading.push_back(block);
    }
    s.workable = workable_now;
    s.terminated_total = terminated_total_;
    if (ctx.fault_plane() != nullptr) {
      const bool computing = in_flight_steps_ > 0;
      const double burst = computing ? ctx.now() - burst_start_ : 0.0;
      s.progress = SlaveProgress{watermark(ctx), busy_total_ + burst, computing};
    }
    s.orphaned_from = orphaned_from;
    post(ctx, coord_, std::move(s));
    reported_ = true;
  }

  void try_start(RankContext& ctx) {
    if (finished_ || ctx.busy() || work_.in_flight()) return;

    const BlockId runnable = work_.pool().first_block_where(
        [&ctx](BlockId id) { return ctx.block_resident(id); });
    if (runnable != kInvalidBlock) {
      // Latency hiding (§4.3): report *before* a burst that will drain
      // the last workable streamlines so the master's reply overlaps it.
      // The burst takes runnable's whole queue, so that is the case when
      // nothing else is workable.
      const auto draining =
          static_cast<std::uint32_t>(work_.pool().count_in(runnable));
      if (!core_ && !reported_ && workable(ctx) == draining) {
        send_status(ctx, 0);
      }
      work_.drain(runnable);
      // Folded into steps_total_ when the burst completes; a heartbeat
      // status mid-burst reports the burst's steps pro-rated by elapsed
      // planned time (see watermark()), so the master sees progress as a
      // smooth rate rather than burst-sized quanta.
      in_flight_steps_ = work_.advance(ctx);
      burst_start_ = ctx.now();
      burst_duration_ = static_cast<double>(in_flight_steps_) *
                        ctx.model().seconds_per_step;
      // Overlap: background-read where this burst is headed (its
      // outcomes name the blocks exactly), then the densest blocked
      // queues, so the master's next kLoad (or our own wait for it)
      // finds the grid already staged — the Load rule becomes a
      // non-blocking claim.  No streamline lookahead here: the master
      // schedules this rank's loads, so two-ahead speculation only
      // claims blocks it never sends us to.
      const int lookahead =
          std::min(kShallowPrefetchDepth, ctx.prefetch_capacity());
      prefetch_blocking_targets(ctx, work_.outcomes(), runnable, lookahead);
      prefetch_densest(ctx, work_.pool(), runnable, lookahead);
      return;
    }

    if (pending_loads_ > 0) return;  // work arrives when the load lands

    if (core_) {
      // Acting master: nobody commands our loads, so self-serve the
      // densest pooled block, Load-On-Demand style.
      request_if_needed(ctx, work_.pool().densest_block());
      return;
    }

    // Out of work: tell the master (once per state change).
    if (!reported_) send_status(ctx, 0);
  }

  const BlockDecomposition* decomp_;
  int rank_;
  HybridLayout layout_;
  HybridParams params_;
  std::uint32_t total_active_;  // global streamline count
  int coord_;                   // current coordinator (re-homed on failover)
  std::vector<Particle> initial_seeds_;  // a leaf master's pool until start

  RankWork work_;
  std::uint32_t terminated_total_ = 0;   // cumulative first-time credits
  std::uint64_t steps_total_ = 0;      // completed-burst steps (§16)
  std::uint64_t in_flight_steps_ = 0;  // accepted steps of the burst
  double burst_start_ = 0.0;           // when the burst began computing
  double burst_duration_ = 0.0;        // its *planned* modelled seconds
  double busy_total_ = 0.0;            // observed compute seconds (§16)
  double master_heard_ = 0.0;            // last beacon/command time
  int pending_loads_ = 0;
  bool reported_ = false;
  bool finished_ = false;
  // Engaged at start on layout masters, and on promotion on a slave.
  std::optional<MasterCore> core_;
};


}  // namespace

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

ProgramFactory make_hybrid(const BlockDecomposition* decomp,
                           std::vector<std::vector<Particle>> seeds_per_master,
                           std::uint32_t total_active, HybridParams params) {
  auto shared = std::make_shared<std::vector<std::vector<Particle>>>(
      std::move(seeds_per_master));
  return [decomp, shared, total_active, params](
             int rank, int num_ranks) -> std::unique_ptr<RankProgram> {
    const HybridLayout layout = HybridLayout::make(
        num_ranks, params.slaves_per_master, params.root_fanout);
    check_chunk_count(shared->size(), layout.num_leaves(), "make_hybrid");
    // Seeds are partitioned over the leaf masters (the masters that own
    // slave groups); roots start empty and only hold seeds transiently
    // while brokering, and slaves get theirs from a master.
    std::vector<Particle> seeds;
    if (layout.is_master(rank) && !layout.is_root(rank)) {
      seeds = std::move(
          (*shared)[static_cast<std::size_t>(rank - layout.num_roots)]);
    }
    return std::make_unique<HybridRank>(decomp, rank, layout, params,
                                        std::move(seeds), total_active);
  };
}

}  // namespace sf
