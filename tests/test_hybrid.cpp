#include "algorithms/hybrid.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "algorithms/driver.hpp"
#include "test_support.hpp"

namespace sf {
namespace {

using sf::testing::test_config;

TEST(HybridLayout, MastersPerW) {
  const HybridLayout l = HybridLayout::make(33, 32);
  EXPECT_EQ(l.num_masters, 1);
  EXPECT_EQ(l.num_slaves(), 32);

  const HybridLayout big = HybridLayout::make(66, 32);
  EXPECT_EQ(big.num_masters, 2);
  EXPECT_EQ(big.num_slaves(), 64);

  // Even tiny allocations keep at least one master and one slave.
  const HybridLayout tiny = HybridLayout::make(2, 32);
  EXPECT_EQ(tiny.num_masters, 1);
  EXPECT_EQ(tiny.num_slaves(), 1);
}

TEST(HybridLayout, SlaveGroupsPartition) {
  const HybridLayout l = HybridLayout::make(40, 8);
  int covered = 0;
  for (int m = 0; m < l.num_masters; ++m) {
    const auto [first, last] = l.slaves_of(m);
    EXPECT_GE(first, l.num_masters);
    EXPECT_LE(last, l.num_ranks);
    for (int s = first; s < last; ++s) {
      EXPECT_EQ(l.master_of(s), m);
      ++covered;
    }
  }
  EXPECT_EQ(covered, l.num_slaves());
}

TEST(HybridLayout, Validation) {
  EXPECT_THROW(HybridLayout::make(1, 32), std::invalid_argument);
  EXPECT_THROW(HybridLayout::make(8, 0), std::invalid_argument);
}

TEST(HybridLayout, NonDivisibleGroupsDifferByAtMostOne) {
  // 23 ranks at W=4: 4 masters, 19 slaves — groups of 4 or 5, never
  // worse, and the contiguous split covers every slave exactly once.
  const HybridLayout l = HybridLayout::make(23, 4);
  ASSERT_EQ(l.num_masters, 4);
  for (int m = 0; m < l.num_masters; ++m) {
    const auto [first, last] = l.slaves_of(m);
    EXPECT_GE(last - first, 4) << "master " << m;
    EXPECT_LE(last - first, 5) << "master " << m;
  }
}

TEST(HybridLayout, ClampsMastersForExtremeW) {
  // W far beyond the rank count still yields one master, one+ slaves.
  const HybridLayout wide = HybridLayout::make(3, 1000);
  EXPECT_EQ(wide.num_masters, 1);
  EXPECT_EQ(wide.num_slaves(), 2);
  // W = 1 wants a master per slave; the clamp keeps at least one slave.
  const HybridLayout narrow = HybridLayout::make(2, 1);
  EXPECT_EQ(narrow.num_masters, 1);
  EXPECT_EQ(narrow.num_slaves(), 1);
}

TEST(HybridLayout, FlatWhenFanoutNotExceeded) {
  // 40 ranks at W=8 is 4 masters; a fanout of 100 never engages the tree
  // and the layout is field-for-field the two-arg (flat) one.
  const HybridLayout l = HybridLayout::make(40, 8, 100);
  const HybridLayout flat = HybridLayout::make(40, 8);
  EXPECT_EQ(l.num_roots, 0);
  EXPECT_EQ(l.num_masters, flat.num_masters);
  for (int s = l.num_masters; s < l.num_ranks; ++s) {
    EXPECT_EQ(l.master_of(s), flat.master_of(s));
  }
}

TEST(HybridLayout, DefaultFanoutKeepsPaperScalesFlat) {
  // The <= 512-rank bit-identity contract is structural: at the default
  // W=32 / fanout=32 the root tier only appears past ~1K ranks.
  for (const int ranks : {64, 128, 512, 1056}) {
    EXPECT_EQ(HybridLayout::make(ranks, 32, 32).num_roots, 0) << ranks;
  }
  EXPECT_GT(HybridLayout::make(2048, 32, 32).num_roots, 0);
  EXPECT_GT(HybridLayout::make(16384, 32, 32).num_roots, 0);
}

TEST(HybridLayout, TreeTierPartitionsAndInverts) {
  const HybridLayout l = HybridLayout::make(4096, 32, 32);
  ASSERT_GT(l.num_roots, 0);
  EXPECT_EQ(l.num_masters, l.num_roots + l.num_leaves());
  // Roots own no slave group.
  for (int r = 0; r < l.num_roots; ++r) {
    const auto [first, last] = l.slaves_of(r);
    EXPECT_EQ(first, last) << "root " << r;
  }
  // leaves_of partitions the leaf tier; root_of inverts it; no subtree
  // exceeds the fanout.
  int covered = 0;
  for (int r = 0; r < l.num_roots; ++r) {
    const auto [first, last] = l.leaves_of(r);
    EXPECT_GE(first, l.num_roots);
    EXPECT_LE(last, l.num_masters);
    EXPECT_LE(last - first, 32) << "root " << r;
    for (int m = first; m < last; ++m) {
      EXPECT_EQ(l.root_of(m), r);
      ++covered;
    }
  }
  EXPECT_EQ(covered, l.num_leaves());
  // Slaves map to leaf masters only, covering every slave exactly once.
  covered = 0;
  for (int m = l.num_roots; m < l.num_masters; ++m) {
    const auto [first, last] = l.slaves_of(m);
    for (int s = first; s < last; ++s) {
      EXPECT_EQ(l.master_of(s), m);
      ++covered;
    }
  }
  EXPECT_EQ(covered, l.num_slaves());
}

TEST(HybridLayout, TreeStaysFlatWhenRootsWouldStarveSlaves) {
  // 4 ranks at W=1 is 2 flat masters; fanout 1 would want 2 roots, which
  // leaves no slaves at all — the tree must decline and stay flat.
  const HybridLayout l = HybridLayout::make(4, 1, 1);
  EXPECT_EQ(l.num_roots, 0);
  EXPECT_EQ(l.num_masters, 2);
  EXPECT_EQ(l.num_slaves(), 2);
}

TEST(Hybrid, AllParticlesTerminate) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(7);
  const auto seeds = random_seeds(w.dataset->bounds(), 50, rng);
  const auto cfg = test_config(Algorithm::kHybridMasterSlave, 6);
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  ASSERT_EQ(m.particles.size(), seeds.size());
  for (const Particle& p : m.particles) EXPECT_TRUE(is_terminal(p.status));
}

TEST(Hybrid, MastersDoNotCompute) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(9);
  const auto seeds = random_seeds(w.dataset->bounds(), 30, rng);
  auto cfg = test_config(Algorithm::kHybridMasterSlave, 6);
  const HybridLayout layout =
      HybridLayout::make(6, cfg.hybrid.slaves_per_master);
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  for (int r = 0; r < layout.num_masters; ++r) {
    EXPECT_EQ(m.ranks[static_cast<std::size_t>(r)].steps, 0u);
    EXPECT_EQ(m.ranks[static_cast<std::size_t>(r)].blocks_loaded, 0u);
  }
  // Masters do communicate.
  EXPECT_GT(m.ranks[0].messages_sent, 0u);
}

TEST(Hybrid, WorkSpreadsAcrossSlaves) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(13);
  const auto seeds = random_seeds(w.dataset->bounds(), 80, rng);
  const auto cfg = test_config(Algorithm::kHybridMasterSlave, 6);
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  int slaves_used = 0;
  for (std::size_t r = 1; r < m.ranks.size(); ++r) {
    if (m.ranks[r].steps > 0) ++slaves_used;
  }
  EXPECT_GE(slaves_used, 3);
}

TEST(Hybrid, DenseClusterDoesNotOomWhereStaticDoes) {
  // The headline adaptive behaviour: the same configuration that kills
  // Static Allocation (dense seeds on one owner) completes under the
  // hybrid because the master doles work out in batches of N.
  auto w = sf::testing::rotor_world(2);
  Rng rng(5);
  const auto seeds =
      cluster_seeds({1.0, 1.0, 1.0}, 0.05, 400, rng, w.dataset->bounds());

  auto cfg = test_config(Algorithm::kStaticAllocation, 6);
  cfg.runtime.model.particle_memory_bytes = 64 << 10;
  const RunMetrics st = run_experiment(cfg, w.decomp(), *w.source, seeds);
  EXPECT_TRUE(st.failed_oom);

  cfg.algorithm = Algorithm::kHybridMasterSlave;
  // Masters hold the full seed pool; give them room for the pool itself
  // but far less than static's per-rank blow-up needed.
  cfg.runtime.model.particle_memory_bytes = 2u << 20;
  const RunMetrics hy = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(hy.failed_oom);
  EXPECT_EQ(hy.particles.size(), seeds.size());
}

TEST(Hybrid, MultipleMastersBalanceSeeds) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(21);
  const auto seeds = random_seeds(w.dataset->bounds(), 60, rng);
  auto cfg = test_config(Algorithm::kHybridMasterSlave, 10);
  cfg.hybrid.slaves_per_master = 4;  // forces 2 masters
  const HybridLayout layout = HybridLayout::make(10, 4);
  ASSERT_EQ(layout.num_masters, 2);
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  EXPECT_EQ(m.particles.size(), seeds.size());
}

TEST(Hybrid, AssignBatchSizeIsBehaviorPreserving) {
  // N changes scheduling granularity only: any batch size yields the
  // same terminated streamlines, bit for bit.
  auto w = sf::testing::rotor_world(2);
  Rng rng(31);
  const auto seeds = random_seeds(w.dataset->bounds(), 100, rng);

  std::vector<Particle> reference;
  for (const int n : {1, 10, 50}) {
    auto cfg = test_config(Algorithm::kHybridMasterSlave, 4);
    cfg.hybrid.assign_batch = n;
    const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
    ASSERT_FALSE(m.failed_oom);
    ASSERT_EQ(m.particles.size(), seeds.size()) << "N=" << n;
    if (reference.empty()) {
      reference = m.particles;
      continue;
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].steps, m.particles[i].steps) << "N=" << n;
      EXPECT_EQ(reference[i].pos.x, m.particles[i].pos.x) << "N=" << n;
    }
  }
}

TEST(Hybrid, TreeLayoutIsBehaviorPreserving) {
  // The master tree moves coordination traffic, never integration work:
  // a run with a root tier terminates the same streamlines, bit for
  // bit, as the flat layout at the same rank count.  13 ranks at W=2 /
  // fanout=2 gives roots {0, 1}, leaf masters {2..5}, slaves {6..12}.
  auto w = sf::testing::rotor_world(2);
  Rng rng(53);
  const auto seeds = random_seeds(w.dataset->bounds(), 60, rng);

  auto flat_cfg = test_config(Algorithm::kHybridMasterSlave, 13);
  flat_cfg.hybrid.slaves_per_master = 2;
  flat_cfg.hybrid.root_fanout = 0;  // force flat
  const RunMetrics flat = run_experiment(flat_cfg, w.decomp(), *w.source,
                                         seeds);
  ASSERT_FALSE(flat.failed_oom);
  ASSERT_EQ(flat.particles.size(), seeds.size());

  auto tree_cfg = flat_cfg;
  tree_cfg.hybrid.root_fanout = 2;
  ASSERT_EQ(HybridLayout::make(13, 2, 2).num_roots, 2);
  const RunMetrics tree = run_experiment(tree_cfg, w.decomp(), *w.source,
                                         seeds);
  ASSERT_FALSE(tree.failed_oom);
  ASSERT_EQ(tree.particles.size(), seeds.size());

  for (std::size_t i = 0; i < flat.particles.size(); ++i) {
    EXPECT_EQ(flat.particles[i].id, tree.particles[i].id) << "i=" << i;
    EXPECT_EQ(flat.particles[i].steps, tree.particles[i].steps) << "i=" << i;
    EXPECT_EQ(flat.particles[i].pos.x, tree.particles[i].pos.x) << "i=" << i;
  }
  // Roots coordinate; they never integrate a streamline themselves.
  EXPECT_EQ(tree.ranks[0].steps, 0u);
  EXPECT_EQ(tree.ranks[1].steps, 0u);
}

TEST(Hybrid, TwoRanksMinimumWorks) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(41);
  const auto seeds = random_seeds(w.dataset->bounds(), 10, rng);
  const auto cfg = test_config(Algorithm::kHybridMasterSlave, 2);
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  EXPECT_EQ(m.particles.size(), 10u);
}

TEST(Hybrid, EmptySeedSetTerminates) {
  auto w = sf::testing::rotor_world(2);
  const auto cfg = test_config(Algorithm::kHybridMasterSlave, 4);
  const RunMetrics m =
      run_experiment(cfg, w.decomp(), *w.source, std::span<const Vec3>{});
  EXPECT_FALSE(m.failed_oom);
  EXPECT_TRUE(m.particles.empty());
}

// ---------------------------------------------------------------------------
// The §4.3 rules, one hand-built status at a time (unit level)

using sf::testing::FakeContext;

constexpr BlockId kBlockA = 5;
constexpr BlockId kBlockB = 21;
constexpr BlockId kBlockC = 42;

// Rank 0 of a make_hybrid run over `num_ranks` ranks — the lone master of
// slaves 1..num_ranks-1 at the paper's N = 10, NO = 20 N, NL = 40 —
// started on a FakeContext with `seeds[b]` seeds at the centre of block b.
struct MasterBench {
  sf::testing::TestWorld w = sf::testing::rotor_world(4);
  Tracer tracer{&w.decomp(), IntegratorParams{}, TraceLimits{}};
  FakeContext ctx;
  std::unique_ptr<RankProgram> master;

  MasterBench(int num_ranks, const std::map<BlockId, int>& seeds)
      : ctx(&w.decomp(), &tracer, 0, num_ranks) {
    HybridParams params;
    params.slaves_per_master = num_ranks - 1;
    std::vector<Particle> pool;
    for (const auto& [block, count] : seeds) {
      for (int i = 0; i < count; ++i) {
        Particle p;
        p.id = static_cast<std::uint32_t>(pool.size());
        p.pos = w.decomp().block_bounds(block).center();
        pool.push_back(p);
      }
    }
    master = make_hybrid(&w.decomp(), {pool}, 1000, params)(0, num_ranks);
    master->start(ctx);
  }

  void status(int from, StatusUpdate s) {
    Message m;
    m.from = from;
    m.payload = std::move(s);
    master->on_message(ctx, std::move(m));
  }

  // Every Command of `type` sent so far, with its destination.
  std::vector<std::pair<int, Command>> sent(Command::Type type) const {
    std::vector<std::pair<int, Command>> out;
    for (const auto& [to, msg] : ctx.sent) {
      const auto* cmd = std::get_if<Command>(&msg.payload);
      if (cmd != nullptr && cmd->type == type) out.emplace_back(to, *cmd);
    }
    return out;
  }

  std::size_t pooled() const {
    std::vector<Particle> out;
    master->snapshot_particles(out);
    return out.size();
  }
};

StatusUpdate starving(std::vector<std::pair<BlockId, std::uint32_t>> queued =
                          {},
                      std::vector<BlockId> loaded = {}) {
  StatusUpdate s;
  s.queued_by_block = std::move(queued);
  s.loaded = std::move(loaded);
  return s;
}

StatusUpdate busy(std::uint32_t workable, std::vector<BlockId> loaded = {},
                  std::vector<std::pair<BlockId, std::uint32_t>> queued = {}) {
  StatusUpdate s = starving(std::move(queued), std::move(loaded));
  s.workable = workable;
  return s;
}

TEST(HybridRules, InitialAllocationIsNSeedsPerSlaveFromTheDensestBlock) {
  MasterBench bench(3, {{kBlockA, 12}, {kBlockB, 30}});
  const auto assigns = bench.sent(Command::Type::kAssign);
  ASSERT_EQ(assigns.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    const auto& [to, cmd] = assigns[static_cast<std::size_t>(i)];
    EXPECT_EQ(to, i + 1);
    EXPECT_EQ(cmd.block, kBlockB);
    ASSERT_EQ(cmd.particles.size(), 10u);
    for (const Particle& p : cmd.particles) {
      EXPECT_EQ(bench.w.decomp().block_of(p.pos), kBlockB);
    }
  }
  EXPECT_EQ(bench.ctx.sent.size(), 2u);  // nothing but the assignments
  EXPECT_EQ(bench.pooled(), 22u);
}

TEST(HybridRules, MasterChargesExactlyItsPooledSeeds) {
  // Pooled seeds are charged at solver-state size and must be refunded
  // the same when they leave: the charge always equals the pool.
  const auto seed_bytes =
      static_cast<std::int64_t>(particle_message_bytes(Particle{}, false));
  MasterBench bench(3, {{kBlockA, 12}, {kBlockB, 30}});
  EXPECT_EQ(bench.ctx.charged,
            seed_bytes * static_cast<std::int64_t>(bench.pooled()));
  bench.status(1, starving());
  EXPECT_EQ(bench.sent(Command::Type::kAssign).size(), 3u);
  EXPECT_EQ(bench.pooled(), 12u);
  EXPECT_EQ(bench.ctx.charged, seed_bytes * 12);
}

TEST(HybridRules, AssignLoadedPreferredOnceABlockIsReportedLoaded) {
  MasterBench bench(3, {{kBlockB, 40}, {kBlockC, 15}});
  bench.ctx.sent.clear();  // initial allocation: 10 + 10 from B
  // Nothing loaded: Assign_unloaded from the densest block (B: 20 > 15).
  bench.status(2, starving());
  // C reported loaded: Assign_loaded from C, although B is denser.
  bench.status(1, starving({}, {kBlockC}));
  const auto assigns = bench.sent(Command::Type::kAssign);
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_EQ(assigns[0].first, 2);
  EXPECT_EQ(assigns[0].second.block, kBlockB);
  EXPECT_EQ(assigns[1].first, 1);
  EXPECT_EQ(assigns[1].second.block, kBlockC);
  EXPECT_EQ(assigns[1].second.particles.size(), 10u);
}

TEST(HybridRules, SendForceWithheldAboveTheOverloadLimit) {
  // Slave 1 has 30 particles stuck in A, which slave 2 holds.  Moving them
  // is allowed while slave 2's load stays within NO = 200.
  for (const std::uint32_t load : {170u, 171u}) {
    MasterBench bench(3, {});
    bench.status(2, busy(load, {kBlockA}));
    bench.status(1, starving({{kBlockA, 30}}));
    const auto forces = bench.sent(Command::Type::kSendForce);
    if (load + 30 <= 200) {
      ASSERT_EQ(forces.size(), 1u) << "load " << load;
      EXPECT_EQ(forces[0].first, 1);
      EXPECT_EQ(forces[0].second.block, kBlockA);
      EXPECT_EQ(forces[0].second.target, 2);
    } else {
      EXPECT_TRUE(forces.empty()) << "load " << load;
    }
  }
}

TEST(HybridRules, LoadFiresOnlyAboveNLStuckParticles) {
  // The pool still holds seeds, so a slave not owed a Load is assigned.
  for (const std::uint32_t stuck : {40u, 41u}) {
    MasterBench bench(3, {{kBlockA, 30}});
    bench.ctx.sent.clear();
    bench.status(1, starving({{kBlockB, stuck}}));
    const auto loads = bench.sent(Command::Type::kLoad);
    const auto assigns = bench.sent(Command::Type::kAssign);
    if (stuck > 40) {
      ASSERT_EQ(loads.size(), 1u);
      EXPECT_EQ(loads[0].first, 1);
      EXPECT_EQ(loads[0].second.block, kBlockB);
      EXPECT_TRUE(assigns.empty());
    } else {
      EXPECT_TRUE(loads.empty());
      ASSERT_EQ(assigns.size(), 1u);
      EXPECT_EQ(assigns[0].second.block, kBlockA);
    }
  }
}

TEST(HybridRules, StarvingSlaveGetsOneSendHintPerStatus) {
  // Slave 3 holds B, so nobody is told to load it again; slave 2 is the
  // busiest and has 5 particles waiting in B.  Slave 1 starves.
  MasterBench bench(4, {});
  bench.status(3, busy(10, {kBlockB}));
  bench.status(2, busy(20, {}, {{kBlockB, 5}}));
  bench.status(1, starving());
  auto hints = bench.sent(Command::Type::kSendHint);
  ASSERT_EQ(hints.size(), 1u);
  EXPECT_EQ(hints[0].first, 2);
  EXPECT_EQ(hints[0].second.target, 1);
  EXPECT_EQ(hints[0].second.hint_blocks, std::vector<BlockId>{kBlockB});
  EXPECT_TRUE(bench.sent(Command::Type::kLoad).empty());

  // Another slave's status re-runs the rules for slave 1: no second hint.
  bench.status(3, busy(10, {kBlockB}));
  EXPECT_EQ(bench.sent(Command::Type::kSendHint).size(), 1u);

  // Slave 1's own next status re-arms it.
  bench.status(1, starving());
  EXPECT_EQ(bench.sent(Command::Type::kSendHint).size(), 2u);
}

TEST(HybridRules, StatusCarriesProgressOnlyOnFaultRuns) {
  // A fault-free slave's status is sized for the paper's fields alone;
  // the 16-byte straggler-detector report rides only when the runtime
  // hosts a fault plane.
  const auto w = sf::testing::rotor_world(4);
  const Tracer tracer{&w.decomp(), IntegratorParams{}, TraceLimits{}};
  for (const bool faulty : {false, true}) {
    FakeContext ctx(&w.decomp(), &tracer, 1, 2);
    if (faulty) ctx.fault = FaultConfig{};
    auto slave = make_hybrid(&w.decomp(), {{}}, 2, HybridParams{})(1, 2);
    slave->start(ctx);
    Command assign;
    assign.type = Command::Type::kAssign;
    for (const BlockId b : {kBlockA, kBlockB}) {
      Particle p;
      p.pos = w.decomp().block_bounds(b).center();
      assign.particles.push_back(p);
    }
    Message m;
    m.from = 0;
    m.payload = std::move(assign);
    slave->on_message(ctx, std::move(m));
    // Both loads land with nothing resident: the slave reports, once.
    ASSERT_EQ(ctx.requested.size(), 2u);
    for (const BlockId b : ctx.requested) slave->on_block_loaded(ctx, b);
    ASSERT_EQ(ctx.sent.size(), 1u);
    EXPECT_EQ(ctx.sent[0].first, 0);
    const auto& s = std::get<StatusUpdate>(ctx.sent[0].second.payload);
    EXPECT_EQ(s.queued_by_block.size(), 2u);
    EXPECT_EQ(s.progress.has_value(), faulty);
    const std::size_t paper = 32 + 8 * s.queued_by_block.size() +
                              4 * s.loaded.size() + 4 * s.loading.size() + 8;
    EXPECT_EQ(message_bytes(ctx.sent[0].second, true),
              paper + (faulty ? 16u : 0u))
        << (faulty ? "fault run" : "fault-free run");
  }
}

}  // namespace
}  // namespace sf
