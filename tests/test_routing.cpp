#include "algorithms/routing.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "algorithms/hybrid.hpp"
#include "algorithms/load_on_demand.hpp"
#include "algorithms/static_alloc.hpp"
#include "core/analytic_fields.hpp"
#include "test_support.hpp"

namespace sf {
namespace {

Particle particle(std::uint32_t id, std::uint32_t geometry = 1) {
  Particle p;
  p.id = id;
  p.geometry_points = geometry;
  return p;
}

TEST(ParticlePool, AddTakeCounts) {
  ParticlePool pool;
  EXPECT_TRUE(pool.empty());
  pool.add(3, particle(0));
  pool.add(3, particle(1));
  pool.add(7, particle(2));
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.count_in(3), 2u);
  EXPECT_EQ(pool.count_in(7), 1u);
  EXPECT_EQ(pool.count_in(99), 0u);

  const auto p = pool.take_from(3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->id, 0u);  // FIFO within a block
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_FALSE(pool.take_from(42).has_value());
}

TEST(ParticlePool, TakeDrainsBlockEntry) {
  ParticlePool pool;
  pool.add(5, particle(0));
  ASSERT_TRUE(pool.take_from(5).has_value());
  EXPECT_FALSE(pool.take_from(5).has_value());
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.census().empty());
}

TEST(ParticlePool, DensestBlockBreaksTiesLow) {
  ParticlePool pool;
  EXPECT_EQ(pool.densest_block(), kInvalidBlock);
  pool.add(9, particle(0));
  pool.add(2, particle(1));
  pool.add(2, particle(2));
  pool.add(5, particle(3));
  pool.add(5, particle(4));
  EXPECT_EQ(pool.densest_block(), 2);
}

TEST(ParticlePool, CensusIsSortedByBlock) {
  ParticlePool pool;
  pool.add(9, particle(0));
  pool.add(1, particle(1));
  pool.add(9, particle(2));
  const auto census = pool.census();
  ASSERT_EQ(census.size(), 2u);
  EXPECT_EQ(census[0], (std::pair<BlockId, std::uint32_t>{1, 1}));
  EXPECT_EQ(census[1], (std::pair<BlockId, std::uint32_t>{9, 2}));
}

TEST(ParticlePool, DrainBlockRemovesAll) {
  ParticlePool pool;
  for (std::uint32_t i = 0; i < 5; ++i) pool.add(4, particle(i));
  pool.add(6, particle(99));
  const auto drained = pool.drain_block(4);
  EXPECT_EQ(drained.size(), 5u);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.drain_block(4).empty());
}

TEST(ParticlePool, FirstBlockWhereRespectsPredicate) {
  ParticlePool pool;
  pool.add(2, particle(0));
  pool.add(5, particle(1));
  EXPECT_EQ(pool.first_block_where([](BlockId b) { return b == 5; }), 5);
  EXPECT_EQ(pool.first_block_where([](BlockId) { return true; }), 2);
  EXPECT_EQ(pool.first_block_where([](BlockId) { return false; }),
            kInvalidBlock);
}

TEST(ResidentBytes, OverheadPlusGeometry) {
  MachineModel m;
  m.particle_overhead_bytes = 1000;
  EXPECT_EQ(resident_particle_bytes(particle(0, 1), m),
            1000 + sizeof(Vec3));
  EXPECT_EQ(resident_particle_bytes(particle(0, 100), m),
            1000 + 100 * sizeof(Vec3));
}

TEST(MakeParticles, SplitsValidAndRejected) {
  const BlockDecomposition decomp({{0, 0, 0}, {1, 1, 1}}, 2, 2, 2);
  const std::vector<Vec3> seeds{
      {0.5, 0.5, 0.5}, {2, 2, 2}, {0.1, 0.1, 0.1}, {-1, 0, 0}};
  std::vector<Particle> rejected;
  const auto valid = make_particles(decomp, seeds, rejected);
  ASSERT_EQ(valid.size(), 2u);
  ASSERT_EQ(rejected.size(), 2u);
  // Ids are seed indices, preserved across the split.
  EXPECT_EQ(valid[0].id, 0u);
  EXPECT_EQ(valid[1].id, 2u);
  EXPECT_EQ(rejected[0].id, 1u);
  EXPECT_EQ(rejected[1].id, 3u);
  for (const Particle& p : rejected) {
    EXPECT_EQ(p.status, ParticleStatus::kExitedDomain);
  }
  for (const Particle& p : valid) {
    EXPECT_EQ(p.status, ParticleStatus::kActive);
  }
}

// A RankWork on a FakeContext, which has nothing resident and counts
// begin_compute calls.
struct WorkBench {
  sf::testing::TestWorld w = sf::testing::rotor_world(2);
  Tracer tracer{&w.decomp(), IntegratorParams{}, TraceLimits{}};
  sf::testing::FakeContext ctx{&w.decomp(), &tracer, 0, 1};
  RankWork work;

  // A particle at the centre of block `b`.
  Particle at(BlockId b, std::uint32_t id) const {
    Particle p = particle(id, id + 1);
    p.pos = w.decomp().block_bounds(b).center();
    return p;
  }
};

TEST(RankWork, ReleasingEveryAdmittedParticleRefundsItsCharge) {
  WorkBench bench;
  for (std::uint32_t i = 0; i < 5; ++i) {
    bench.work.admit(bench.ctx, 1 + i % 2, bench.at(1 + i % 2, i));
  }
  EXPECT_EQ(bench.work.pool().size(), 5u);
  EXPECT_GT(bench.ctx.charged, 0);
  for (const BlockId b : {1, 2}) {
    bench.work.release(bench.ctx, bench.work.pool().drain_block(b));
  }
  EXPECT_EQ(bench.ctx.charged, 0);
}

TEST(RankWork, SettleKeepsTerminatedLinesAndHandsBackBlockedOnes) {
  WorkBench bench;
  Particle ended = bench.at(3, 7);
  ended.status = ParticleStatus::kMaxSteps;
  bench.work.admit(bench.ctx, 3, ended);
  bench.work.admit(bench.ctx, 3, bench.at(3, 8));

  EXPECT_EQ(bench.work.drain(3).size(), 2u);
  EXPECT_TRUE(bench.work.in_flight());
  EXPECT_TRUE(bench.work.pool().empty());
  bench.work.advance(bench.ctx);
  EXPECT_EQ(bench.ctx.computes, 1);

  std::vector<std::pair<std::uint32_t, BlockId>> blocked;
  const std::uint32_t first =
      bench.work.settle(bench.ctx, [&](Particle p, BlockId need) {
        blocked.emplace_back(p.id, need);
      });
  EXPECT_EQ(first, 1u);
  EXPECT_FALSE(bench.work.in_flight());
  // Nothing is resident, so the active line stops for its own block.
  ASSERT_EQ(blocked.size(), 1u);
  EXPECT_EQ(blocked[0].first, 8u);
  EXPECT_EQ(blocked[0].second, 3);
  std::vector<Particle> done;
  bench.work.collect(done);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, 7u);
  EXPECT_EQ(done[0].status, ParticleStatus::kMaxSteps);
  EXPECT_EQ(bench.ctx.computes, 1);
}

// Each factory takes one seed chunk per rank (per leaf master for the
// hybrid).  Too few would index past the split; too many would drop
// seeds the termination count still waits for.
TEST(ProgramFactories, StaticAllocationRejectsWrongChunkCount) {
  const auto w = sf::testing::rotor_world(2);
  EXPECT_THROW(make_static_allocation(&w.decomp(), {{}, {}}, 0)(3, 4),
               std::invalid_argument);
  EXPECT_THROW(make_static_allocation(&w.decomp(), {{}, {}, {}, {}, {}}, 0)(
                   0, 4),
               std::invalid_argument);
  EXPECT_NE(make_static_allocation(&w.decomp(), {{}, {}, {}, {}}, 0)(3, 4),
            nullptr);
}

TEST(ProgramFactories, LoadOnDemandRejectsWrongChunkCount) {
  const auto w = sf::testing::rotor_world(2);
  EXPECT_THROW(make_load_on_demand(&w.decomp(), {{}, {}})(3, 4),
               std::invalid_argument);
  EXPECT_THROW(make_load_on_demand(&w.decomp(), {{}, {}, {}, {}, {}})(0, 4),
               std::invalid_argument);
  EXPECT_NE(make_load_on_demand(&w.decomp(), {{}, {}, {}, {}})(3, 4),
            nullptr);
}

TEST(ProgramFactories, HybridRejectsWrongChunkCount) {
  const auto w = sf::testing::rotor_world(2);
  // Six ranks at the default W = 32: one leaf master, rank 0.
  EXPECT_THROW(make_hybrid(&w.decomp(), {}, 0, HybridParams{})(0, 6),
               std::invalid_argument);
  EXPECT_THROW(make_hybrid(&w.decomp(), {{}, {}}, 0, HybridParams{})(0, 6),
               std::invalid_argument);
  EXPECT_NE(make_hybrid(&w.decomp(), {{}}, 0, HybridParams{})(0, 6), nullptr);
}

}  // namespace
}  // namespace sf
