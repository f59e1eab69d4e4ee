#include "runtime/thread_runtime.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "algorithms/load_on_demand.hpp"
#include "algorithms/hybrid.hpp"
#include "algorithms/static_alloc.hpp"
#include "io/block_store.hpp"
#include "test_support.hpp"

namespace sf {
namespace {

ThreadRuntimeConfig thread_config(int ranks) {
  ThreadRuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.model = sf::testing::test_model();
  cfg.cache_blocks = 16;
  return cfg;
}

IntegratorParams iparams() { return {}; }
TraceLimits limits() {
  return {.max_time = 15.0, .max_steps = 1500, .min_speed = 1e-8};
}

std::vector<Particle> run_threads(Algorithm algo, int ranks,
                                  const sf::testing::TestWorld& w,
                                  const std::vector<Vec3>& seeds,
                                  const BlockSource& source,
                                  std::uint64_t fuzz_seed = 0) {
  std::vector<Particle> rejected;
  std::vector<Particle> particles =
      make_particles(w.decomp(), seeds, rejected);
  const auto total = static_cast<std::uint32_t>(particles.size());

  ProgramFactory factory;
  switch (algo) {
    case Algorithm::kStaticAllocation:
      factory = make_static_allocation(
          &w.decomp(),
          partition_by_block_owner(w.decomp(), ranks, std::move(particles)),
          total);
      break;
    case Algorithm::kLoadOnDemand:
      factory = make_load_on_demand(
          &w.decomp(),
          partition_evenly_by_block(ranks, w.decomp(), std::move(particles)));
      break;
    case Algorithm::kHybridMasterSlave: {
      HybridParams hp;
      hp.slaves_per_master = 4;
      const HybridLayout layout = HybridLayout::make(ranks, 4);
      factory = make_hybrid(
          &w.decomp(),
          partition_evenly_by_block(layout.num_leaves(), w.decomp(),
                                    std::move(particles)),
          total, hp);
      break;
    }
  }

  ThreadRuntimeConfig cfg = thread_config(ranks);
  cfg.schedule_fuzz_seed = fuzz_seed;
  ThreadRuntime rt(cfg, &w.decomp(), &source, iparams(), limits());
  RunMetrics m = rt.run(factory);
  EXPECT_FALSE(m.failed_oom);
  m.particles.insert(m.particles.end(), rejected.begin(), rejected.end());
  std::sort(m.particles.begin(), m.particles.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  return m.particles;
}

TEST(ThreadRuntime, LoadOnDemandMatchesSerial) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(5);
  const auto seeds = random_seeds(w.dataset->bounds(), 20, rng);
  const auto threads =
      run_threads(Algorithm::kLoadOnDemand, 3, w, seeds, *w.source);
  const auto serial = trace_all(*w.dataset, seeds, iparams(), limits());
  ASSERT_EQ(threads.size(), serial.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    EXPECT_EQ(threads[i].status, serial[i].status);
    EXPECT_EQ(threads[i].steps, serial[i].steps);
    EXPECT_EQ(threads[i].pos.x, serial[i].pos.x);
  }
}

TEST(ThreadRuntime, StaticAllocationTerminatesAndMatches) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(7);
  const auto seeds = random_seeds(w.dataset->bounds(), 16, rng);
  const auto threads =
      run_threads(Algorithm::kStaticAllocation, 4, w, seeds, *w.source);
  const auto serial = trace_all(*w.dataset, seeds, iparams(), limits());
  ASSERT_EQ(threads.size(), serial.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    EXPECT_EQ(threads[i].steps, serial[i].steps) << i;
  }
}

TEST(ThreadRuntime, HybridTerminatesAndMatches) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(9);
  const auto seeds = random_seeds(w.dataset->bounds(), 16, rng);
  const auto threads =
      run_threads(Algorithm::kHybridMasterSlave, 4, w, seeds, *w.source);
  const auto serial = trace_all(*w.dataset, seeds, iparams(), limits());
  ASSERT_EQ(threads.size(), serial.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    EXPECT_EQ(threads[i].steps, serial[i].steps) << i;
    EXPECT_EQ(threads[i].pos.y, serial[i].pos.y) << i;
  }
}

TEST(ThreadRuntime, RealDiskIoEndToEnd) {
  // Full stack: dataset -> BlockStore on disk -> DiskBlockSource -> the
  // Load On Demand program on real threads reading real files.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("sf_threads_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  auto w = sf::testing::rotor_world(2);
  BlockStore::write(dir, *w.dataset);
  auto store = std::make_shared<BlockStore>(dir);
  const DiskBlockSource disk_source(store);

  Rng rng(11);
  const auto seeds = random_seeds(w.dataset->bounds(), 10, rng);
  const auto from_disk =
      run_threads(Algorithm::kLoadOnDemand, 2, w, seeds, disk_source);
  const auto serial = trace_all(*w.dataset, seeds, iparams(), limits());
  ASSERT_EQ(from_disk.size(), serial.size());
  for (std::size_t i = 0; i < from_disk.size(); ++i) {
    EXPECT_EQ(from_disk[i].steps, serial[i].steps);
  }
  fs::remove_all(dir);
}

// The schedule-perturbation harness injects randomized yields and short
// sleeps at every mailbox and cache boundary.  Whatever interleaving that
// produces, the results must still match the serial tracer exactly — any
// divergence means an order-dependence bug in the protocol.
TEST(ThreadRuntime, ScheduleFuzzMatchesSerialAcrossSeeds) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(13);
  const auto seeds = random_seeds(w.dataset->bounds(), 14, rng);
  const auto serial = trace_all(*w.dataset, seeds, iparams(), limits());
  const Algorithm algos[] = {Algorithm::kStaticAllocation,
                             Algorithm::kLoadOnDemand,
                             Algorithm::kHybridMasterSlave};
  for (const Algorithm algo : algos) {
    for (std::uint64_t fuzz : {1ULL, 71ULL, 4242ULL}) {
      const auto threads = run_threads(algo, 4, w, seeds, *w.source, fuzz);
      ASSERT_EQ(threads.size(), serial.size());
      for (std::size_t i = 0; i < threads.size(); ++i) {
        EXPECT_EQ(threads[i].status, serial[i].status)
            << "algo " << static_cast<int>(algo) << " fuzz " << fuzz
            << " particle " << i;
        EXPECT_EQ(threads[i].steps, serial[i].steps)
            << "algo " << static_cast<int>(algo) << " fuzz " << fuzz
            << " particle " << i;
        EXPECT_EQ(threads[i].pos.x, serial[i].pos.x)
            << "algo " << static_cast<int>(algo) << " fuzz " << fuzz
            << " particle " << i;
      }
    }
  }
}

TEST(ThreadRuntime, CancelAtStartEndsEveryParticleOfTheQuery) {
  // Half the seeds belong to query 5, cancelled at run start; the other
  // half (query 6) must run as usual.
  auto w = sf::testing::rotor_world(2);
  Rng rng(15);
  const auto seeds = random_seeds(w.dataset->bounds(), 12, rng);
  std::vector<Particle> rejected;
  std::vector<Particle> particles =
      make_particles(w.decomp(), seeds, rejected);
  ASSERT_TRUE(rejected.empty());
  for (Particle& p : particles) p.query = p.id % 2 == 0 ? 5 : 6;

  ThreadRuntimeConfig cfg = thread_config(3);
  cfg.cancels = {{5, 0.0}};
  ThreadRuntime rt(cfg, &w.decomp(), w.source.get(), iparams(), limits());
  const RunMetrics m = rt.run(make_load_on_demand(
      &w.decomp(),
      partition_evenly_by_block(3, w.decomp(), std::move(particles))));
  ASSERT_EQ(m.particles.size(), seeds.size());
  for (const Particle& p : m.particles) {
    if (p.query == 5) {
      EXPECT_EQ(p.status, ParticleStatus::kCancelled) << "particle " << p.id;
      EXPECT_EQ(p.steps, 0u) << "particle " << p.id;
    } else {
      EXPECT_NE(p.status, ParticleStatus::kCancelled) << "particle " << p.id;
    }
  }
}

TEST(ThreadRuntime, Validation) {
  auto w = sf::testing::rotor_world(2);
  ThreadRuntimeConfig bad = thread_config(0);
  EXPECT_THROW(ThreadRuntime(bad, &w.decomp(), w.source.get(), iparams(),
                             limits()),
               std::invalid_argument);
}

}  // namespace
}  // namespace sf
