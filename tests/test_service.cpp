// Streamline-as-a-service tests (src/service, DESIGN.md §12).
//
// The load-bearing property is the equivalence gate: a query's result
// through the service — alone or multiplexed with other queries, cold or
// warm-cached — is bit-identical to a standalone Driver run of the same
// seeds.  Around it: admission control, queued and mid-flight
// cancellation, rank crashes with queries in flight, deterministic
// Poisson arrivals, per-query metrics accumulation, and the checker's
// query-completion invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <utility>
#include <variant>
#include <vector>

#include "check/invariants.hpp"
#include "io/checkpoint_io.hpp"
#include "service/service.hpp"
#include "test_support.hpp"

namespace sf {
namespace {

using sf::testing::test_config;

void expect_same_particles(const std::vector<Particle>& a,
                           const std::vector<Particle>& b,
                           const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << label << " i=" << i;
    EXPECT_EQ(a[i].status, b[i].status) << label << " i=" << i;
    EXPECT_EQ(a[i].steps, b[i].steps) << label << " i=" << i;
    EXPECT_EQ(a[i].pos.x, b[i].pos.x) << label << " i=" << i;
    EXPECT_EQ(a[i].pos.y, b[i].pos.y) << label << " i=" << i;
    EXPECT_EQ(a[i].pos.z, b[i].pos.z) << label << " i=" << i;
    EXPECT_EQ(a[i].time, b[i].time) << label << " i=" << i;
  }
}

ServiceConfig service_config(Algorithm algo, int ranks) {
  ServiceConfig sc;
  sc.base = test_config(algo, ranks);
  sc.base.limits.max_steps = 600;
  sc.base.limits.max_time = 10.0;
  return sc;
}

std::vector<Vec3> seeds_for(const sf::testing::TestWorld& w, int n,
                            std::uint64_t seed) {
  Rng rng(seed);
  auto seeds = random_seeds(w.dataset->bounds(), n, rng);
  return seeds;
}

std::uint64_t total_steps(const std::vector<Particle>& ps) {
  std::uint64_t s = 0;
  for (const Particle& p : ps) s += p.steps;
  return s;
}

// --- Equivalence gate -------------------------------------------------------

class ServiceEquivalence : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ServiceEquivalence, SingleQueryMatchesStandaloneSim) {
  const Algorithm algo = GetParam();
  auto w = sf::testing::abc_world(2);
  auto seeds = seeds_for(w, 25, 123);
  seeds.push_back({-5, 0, 0});  // out-of-domain seed joins the result too

  const ServiceConfig sc = service_config(algo, 4);
  const RunMetrics solo =
      run_experiment(sc.base, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(solo.failed_oom);

  StreamlineService svc(sc, &w.decomp(), w.source.get());
  const QueryId q = svc.submit(seeds);
  svc.run_until_idle();

  const QueryRecord& rec = svc.record(q);
  EXPECT_EQ(rec.state, QueryState::kDone);
  EXPECT_GE(rec.done_time, 0.0);
  expect_same_particles(solo.particles, rec.particles, "service-vs-solo");
  EXPECT_EQ(total_steps(solo.particles), total_steps(rec.particles));
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ServiceEquivalence,
                         ::testing::Values(Algorithm::kStaticAllocation,
                                           Algorithm::kLoadOnDemand,
                                           Algorithm::kHybridMasterSlave));

TEST(Service, MultiQueryResultsMatchSoloRuns) {
  // Three queries multiplexed into one epoch: each query's demuxed result
  // must be bit-identical to running its seeds alone, because
  // advance_batch treats every particle independently.
  auto w = sf::testing::rotor_world(3);
  const std::vector<std::vector<Vec3>> sets = {
      seeds_for(w, 12, 7), seeds_for(w, 9, 8), seeds_for(w, 15, 9)};

  ServiceConfig sc = service_config(Algorithm::kLoadOnDemand, 4);
  sc.max_queries_per_epoch = 3;
  StreamlineService svc(sc, &w.decomp(), w.source.get());
  std::vector<QueryId> ids;
  for (const auto& s : sets) ids.push_back(svc.submit(s));
  svc.run_until_idle();
  EXPECT_EQ(svc.report().epochs, 1u);

  for (std::size_t i = 0; i < sets.size(); ++i) {
    const RunMetrics solo =
        run_experiment(sc.base, w.decomp(), *w.source, sets[i]);
    const QueryRecord& rec = svc.record(ids[i]);
    EXPECT_EQ(rec.state, QueryState::kDone);
    expect_same_particles(solo.particles, rec.particles, "per-query");
  }
}

TEST(Service, SharedCacheWarmsAcrossQueriesWithoutChangingResults) {
  // The same query twice: with cache sharing the second epoch adopts the
  // first epoch's resident blocks (fewer loads, adoptions counted); the
  // trajectories are unchanged either way.
  auto w = sf::testing::abc_world(3);
  const auto seeds = seeds_for(w, 20, 41);

  auto run_pair = [&](bool share) {
    ServiceConfig sc = service_config(Algorithm::kLoadOnDemand, 4);
    sc.max_queries_per_epoch = 1;  // force two epochs
    sc.share_cache = share;
    StreamlineService svc(sc, &w.decomp(), w.source.get());
    const QueryId a = svc.submit(seeds);
    const QueryId b = svc.submit(seeds);
    svc.run_until_idle();
    EXPECT_EQ(svc.record(a).state, QueryState::kDone);
    EXPECT_EQ(svc.record(b).state, QueryState::kDone);
    expect_same_particles(svc.record(a).particles, svc.record(b).particles,
                          share ? "shared-a-vs-b" : "cold-a-vs-b");
    return std::pair{svc.report(), svc.record(b).particles};
  };

  const auto [shared, shared_particles] = run_pair(true);
  const auto [cold, cold_particles] = run_pair(false);

  expect_same_particles(shared_particles, cold_particles, "shared-vs-cold");
  EXPECT_GT(shared.blocks_adopted, 0u);
  EXPECT_EQ(cold.blocks_adopted, 0u);
  // Full overlap: the warm epoch re-reads strictly less.
  EXPECT_LT(shared.blocks_loaded, cold.blocks_loaded);
  EXPECT_GT(shared.cache_hit_rate, cold.cache_hit_rate);
}

// --- Cancellation -----------------------------------------------------------

TEST(Service, CancelWhileQueued) {
  auto w = sf::testing::rotor_world(2);
  ServiceConfig sc = service_config(Algorithm::kStaticAllocation, 3);
  sc.max_queries_per_epoch = 1;
  StreamlineService svc(sc, &w.decomp(), w.source.get());

  const QueryId keep = svc.submit(seeds_for(w, 10, 3));
  const QueryId gone = svc.submit(seeds_for(w, 10, 4));
  EXPECT_TRUE(svc.cancel(gone));
  EXPECT_FALSE(svc.cancel(gone + 100));  // unknown id
  svc.run_until_idle();

  EXPECT_EQ(svc.record(keep).state, QueryState::kDone);
  const QueryRecord& rec = svc.record(gone);
  EXPECT_EQ(rec.state, QueryState::kCancelled);
  EXPECT_TRUE(rec.particles.empty());
  EXPECT_GE(rec.cancel_time, 0.0);
  EXPECT_FALSE(svc.cancel(gone));  // already cancelled
}

TEST(Service, CancelMidFlightDrainsParticlesAndLeavesOthersBitIdentical) {
  auto w = sf::testing::abc_world(3);
  const auto keep_seeds = seeds_for(w, 15, 21);
  const auto cancel_seeds = seeds_for(w, 15, 22);

  ServiceConfig sc = service_config(Algorithm::kLoadOnDemand, 4);
  sc.max_queries_per_epoch = 2;
  const RunMetrics solo_keep =
      run_experiment(sc.base, w.decomp(), *w.source, keep_seeds);
  const RunMetrics solo_cancel =
      run_experiment(sc.base, w.decomp(), *w.source, cancel_seeds);

  StreamlineService svc(sc, &w.decomp(), w.source.get());
  const QueryId keep = svc.submit(keep_seeds);
  const QueryId gone = svc.submit(cancel_seeds);
  // Mid-flight: well after the epoch starts, well before the cancelled
  // query could finish on its own (the epoch shares ranks two ways).
  EXPECT_TRUE(svc.cancel_at(gone, 0.3 * solo_cancel.wall_clock));
  svc.run_until_idle();

  // The surviving query is untouched by its neighbor's cancellation.
  expect_same_particles(solo_keep.particles, svc.record(keep).particles,
                        "keep-query");

  // The cancelled query drained: every particle is terminal and
  // accounted for, at least one actually died as kCancelled, and the
  // query did strictly less work than its solo run.
  const QueryRecord& rec = svc.record(gone);
  EXPECT_EQ(rec.state, QueryState::kCancelled);
  ASSERT_EQ(rec.particles.size(), cancel_seeds.size());
  std::size_t cancelled = 0;
  for (const Particle& p : rec.particles) {
    EXPECT_TRUE(is_terminal(p.status));
    if (p.status == ParticleStatus::kCancelled) ++cancelled;
  }
  EXPECT_GT(cancelled, 0u);
  EXPECT_LT(total_steps(rec.particles), total_steps(solo_cancel.particles));
  EXPECT_GE(rec.done_time, 0.0);
}

// --- Faults -----------------------------------------------------------------

TEST(Service, RankCrashWithThreeQueriesInFlight) {
  auto w = sf::testing::rotor_world(3);
  const std::vector<std::vector<Vec3>> sets = {
      seeds_for(w, 10, 61), seeds_for(w, 10, 62), seeds_for(w, 10, 63)};

  ServiceConfig sc = service_config(Algorithm::kLoadOnDemand, 6);
  sc.max_queries_per_epoch = 3;
  // Calibrate the crash instant off a clean multiplexed epoch.
  StreamlineService clean(sc, &w.decomp(), w.source.get());
  for (const auto& s : sets) clean.submit(s);
  clean.run_until_idle();
  const double wall = clean.cumulative().wall_clock;
  ASSERT_GT(wall, 0.0);

  sc.base.runtime.fault.crashes = {{0.4 * wall, 2}};
  StreamlineService svc(sc, &w.decomp(), w.source.get());
  std::vector<QueryId> ids;
  for (const auto& s : sets) ids.push_back(svc.submit(s));
  svc.run_until_idle();

  EXPECT_EQ(svc.cumulative().fault.crashes_injected, 1u);
  EXPECT_EQ(svc.cumulative().fault.crashes_survived, 1u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const QueryRecord& rec = svc.record(ids[i]);
    EXPECT_EQ(rec.state, QueryState::kDone) << "query " << ids[i];
    // Conservation per query across the crash: every seed's streamline
    // reaches a terminal state exactly once.
    EXPECT_EQ(rec.particles.size(), sets[i].size()) << "query " << ids[i];
    for (const Particle& p : rec.particles) {
      EXPECT_TRUE(is_terminal(p.status));
    }
  }
}

// --- Admission control and arrivals -----------------------------------------

TEST(Service, AdmissionRejectsBeyondQueueDepth) {
  auto w = sf::testing::rotor_world(2);
  ServiceConfig sc = service_config(Algorithm::kStaticAllocation, 2);
  sc.max_queue_depth = 2;
  sc.max_queries_per_epoch = 1;
  StreamlineService svc(sc, &w.decomp(), w.source.get());

  std::vector<QueryId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(svc.submit(seeds_for(w, 5, i)));
  svc.run_until_idle();

  const ServiceReport r = svc.report();
  EXPECT_EQ(r.submitted, 4u);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.rejected, 2u);
  EXPECT_EQ(svc.record(ids[0]).state, QueryState::kDone);
  EXPECT_EQ(svc.record(ids[1]).state, QueryState::kDone);
  EXPECT_EQ(svc.record(ids[2]).state, QueryState::kRejected);
  EXPECT_EQ(svc.record(ids[3]).state, QueryState::kRejected);
}

TEST(Service, MalformedSubmissionsRejectedUpFront) {
  auto w = sf::testing::rotor_world(2);
  ServiceConfig sc = service_config(Algorithm::kStaticAllocation, 2);
  sc.max_seeds_per_query = 4;
  StreamlineService svc(sc, &w.decomp(), w.source.get());
  const QueryId empty = svc.submit({});
  const QueryId oversized = svc.submit(seeds_for(w, 5, 1));
  EXPECT_EQ(svc.record(empty).state, QueryState::kRejected);
  EXPECT_EQ(svc.record(oversized).state, QueryState::kRejected);
  svc.run_until_idle();  // nothing to run
  EXPECT_EQ(svc.report().epochs, 0u);
}

// --- Deadlines (DESIGN.md §16) ----------------------------------------------

TEST(Service, QueryWithGenerousDeadlineCompletesWithinIt) {
  auto w = sf::testing::rotor_world(2);
  const ServiceConfig sc = service_config(Algorithm::kStaticAllocation, 3);
  StreamlineService svc(sc, &w.decomp(), w.source.get());
  const QueryId q = svc.submit(seeds_for(w, 10, 7), /*deadline=*/100.0);
  svc.run_until_idle();

  const QueryRecord& rec = svc.record(q);
  EXPECT_EQ(rec.state, QueryState::kDone);
  EXPECT_EQ(rec.deadline, 100.0);
  EXPECT_LE(rec.latency(), rec.deadline);
  EXPECT_EQ(svc.report().deadline_cancelled, 0u);
  EXPECT_EQ(svc.report().rejected_deadline, 0u);
}

TEST(Service, DeadlineExpiryCancelsMidFlightAtTheExactInstant) {
  auto w = sf::testing::abc_world(3);
  const auto seeds = seeds_for(w, 15, 31);
  const ServiceConfig sc = service_config(Algorithm::kLoadOnDemand, 4);
  const RunMetrics solo = run_experiment(sc.base, w.decomp(), *w.source,
                                         seeds);
  ASSERT_GT(solo.wall_clock, 0.0);

  StreamlineService svc(sc, &w.decomp(), w.source.get());
  const double budget = 0.3 * solo.wall_clock;
  const QueryId q = svc.submit(seeds, budget);
  svc.run_until_idle();

  const QueryRecord& rec = svc.record(q);
  EXPECT_EQ(rec.state, QueryState::kCancelled);
  EXPECT_TRUE(rec.deadline_expired);
  EXPECT_EQ(rec.cancel_time, rec.submit_time + budget);
  // The query drained: every particle reached a terminal state, some as
  // kCancelled, and strictly less work was done than a full solo run.
  ASSERT_EQ(rec.particles.size(), seeds.size());
  std::size_t cancelled = 0;
  for (const Particle& p : rec.particles) {
    EXPECT_TRUE(is_terminal(p.status));
    if (p.status == ParticleStatus::kCancelled) ++cancelled;
  }
  EXPECT_GT(cancelled, 0u);
  EXPECT_LT(total_steps(rec.particles), total_steps(solo.particles));

  const ServiceReport r = svc.report();
  EXPECT_EQ(r.deadline_cancelled, 1u);
  EXPECT_EQ(r.cancelled, 1u);
  EXPECT_EQ(r.rejected, 0u);
}

TEST(Service, ExpiredDeadlineIsShedAtAdmissionNotRun) {
  auto w = sf::testing::rotor_world(2);
  ServiceConfig sc = service_config(Algorithm::kStaticAllocation, 3);
  sc.max_queries_per_epoch = 1;
  const RunMetrics solo = run_experiment(sc.base, w.decomp(), *w.source,
                                         seeds_for(w, 10, 41));
  ASSERT_GT(solo.wall_clock, 0.0);

  StreamlineService svc(sc, &w.decomp(), w.source.get());
  const QueryId first = svc.submit(seeds_for(w, 10, 41));
  // Queued behind `first`; its budget is gone before epoch 2 can admit
  // it, so deadline-aware admission sheds it instead of running it.
  const QueryId starved =
      svc.submit(seeds_for(w, 10, 42), 0.5 * solo.wall_clock);
  svc.run_until_idle();

  EXPECT_EQ(svc.record(first).state, QueryState::kDone);
  const QueryRecord& rec = svc.record(starved);
  EXPECT_EQ(rec.state, QueryState::kRejected);
  EXPECT_EQ(rec.reject_reason, RejectReason::kDeadline);
  EXPECT_TRUE(rec.particles.empty());

  const ServiceReport r = svc.report();
  EXPECT_EQ(r.rejected_deadline, 1u);
  EXPECT_EQ(r.rejected, 1u);
  EXPECT_EQ(r.epochs, 1u);  // the shed query never cost an epoch
}

TEST(Service, DefaultDeadlineAppliesToUntaggedSubmissions) {
  auto w = sf::testing::abc_world(3);
  const auto seeds = seeds_for(w, 15, 51);
  ServiceConfig sc = service_config(Algorithm::kLoadOnDemand, 4);
  const RunMetrics solo = run_experiment(sc.base, w.decomp(), *w.source,
                                         seeds);

  sc.default_deadline = 0.3 * solo.wall_clock;
  StreamlineService svc(sc, &w.decomp(), w.source.get());
  const QueryId untagged = svc.submit(seeds);            // inherits default
  const QueryId tagged = svc.submit(seeds_for(w, 5, 52), 90.0);  // overrides
  svc.run_until_idle();

  EXPECT_EQ(svc.record(untagged).deadline, sc.default_deadline);
  EXPECT_EQ(svc.record(untagged).state, QueryState::kCancelled);
  EXPECT_TRUE(svc.record(untagged).deadline_expired);
  EXPECT_EQ(svc.record(tagged).deadline, 90.0);
  EXPECT_EQ(svc.record(tagged).state, QueryState::kDone);
}

TEST(Service, RejectionSplitsSumToRejected) {
  auto w = sf::testing::rotor_world(2);
  ServiceConfig sc = service_config(Algorithm::kStaticAllocation, 2);
  sc.max_queries_per_epoch = 1;
  sc.max_queue_depth = 2;
  const RunMetrics solo = run_experiment(sc.base, w.decomp(), *w.source,
                                         seeds_for(w, 10, 61));
  ASSERT_GT(solo.wall_clock, 0.0);

  StreamlineService svc(sc, &w.decomp(), w.source.get());
  svc.submit(seeds_for(w, 10, 61));                           // runs
  svc.submit(seeds_for(w, 10, 62), 0.5 * solo.wall_clock);    // sheds
  svc.submit(seeds_for(w, 10, 63));                           // queue full
  svc.submit({});                                             // malformed
  svc.run_until_idle();

  const ServiceReport r = svc.report();
  EXPECT_EQ(r.submitted, 4u);
  EXPECT_EQ(r.completed, 1u);
  EXPECT_EQ(r.rejected_depth, 1u);
  EXPECT_EQ(r.rejected_deadline, 1u);
  EXPECT_EQ(r.rejected_malformed, 1u);
  EXPECT_EQ(r.rejected,
            r.rejected_depth + r.rejected_deadline + r.rejected_malformed);
}

TEST(Service, PoissonArrivalsAreSeededAndReplayable) {
  PoissonArrivals a(2.0, 0xfeed);
  PoissonArrivals b(2.0, 0xfeed);
  PoissonArrivals c(2.0, 0xbeef);
  double prev = 0.0;
  bool any_differs = false;
  for (int i = 0; i < 64; ++i) {
    const double ta = a.next();
    EXPECT_EQ(ta, b.next()) << "same seed must replay bit-identically";
    EXPECT_GT(ta, prev) << "arrivals must be strictly increasing";
    prev = ta;
    if (ta != c.next()) any_differs = true;
  }
  EXPECT_TRUE(any_differs) << "different seeds must differ";
}

TEST(Service, PoissonScheduleDrivesQueueWaits) {
  // Arrivals spaced out in service time: the clock jumps idle gaps, later
  // queries wait only when they land during a busy epoch.
  auto w = sf::testing::rotor_world(2);
  ServiceConfig sc = service_config(Algorithm::kStaticAllocation, 3);
  sc.max_queries_per_epoch = 1;
  StreamlineService svc(sc, &w.decomp(), w.source.get());

  PoissonArrivals arrivals(100.0, 0x5eed);
  std::vector<QueryId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(svc.submit_at(seeds_for(w, 8, 200 + i), arrivals.next()));
  }
  svc.run_until_idle();

  const ServiceReport r = svc.report();
  EXPECT_EQ(r.completed, 5u);
  EXPECT_GE(r.p99_queue_wait, r.p50_queue_wait);
  EXPECT_GE(r.p99_latency, r.p50_latency);
  EXPECT_GT(r.p50_latency, 0.0);
  for (const QueryId id : ids) {
    const QueryRecord& rec = svc.record(id);
    EXPECT_GE(rec.admit_time, rec.submit_time);
    EXPECT_GT(rec.done_time, rec.admit_time);
  }
}

TEST(Service, JournalRecordsControlPlaneTraffic) {
  auto w = sf::testing::rotor_world(2);
  ServiceConfig sc = service_config(Algorithm::kStaticAllocation, 2);
  StreamlineService svc(sc, &w.decomp(), w.source.get());
  const QueryId done = svc.submit(seeds_for(w, 6, 5));
  const QueryId gone = svc.submit(seeds_for(w, 6, 6));
  svc.cancel(gone);
  svc.run_until_idle();
  (void)done;

  std::size_t submits = 0, cancels = 0, results = 0, dones = 0;
  for (const JournalEntry& e : svc.journal()) {
    EXPECT_GT(e.bytes, 0u);
    if (std::holds_alternative<QuerySubmit>(e.msg.payload)) ++submits;
    if (std::holds_alternative<QueryCancel>(e.msg.payload)) ++cancels;
    if (std::holds_alternative<QueryResult>(e.msg.payload)) ++results;
    if (std::holds_alternative<QueryDone>(e.msg.payload)) ++dones;
  }
  EXPECT_EQ(submits, 2u);
  EXPECT_EQ(cancels, 1u);
  EXPECT_EQ(results, 1u);
  EXPECT_EQ(dones, 1u);
}

// --- Metrics ----------------------------------------------------------------

TEST(Service, RunMetricsAccumulateAndReset) {
  RunMetrics total;
  RunMetrics epoch;
  epoch.wall_clock = 2.0;
  epoch.num_ranks = 4;
  epoch.ranks.resize(4);
  epoch.ranks[1].steps = 100;
  epoch.ranks[1].blocks_loaded = 7;
  epoch.ranks[1].blocks_adopted = 3;
  epoch.ranks[2].peak_particle_bytes = 512;
  epoch.fault.crashes_injected = 1;
  epoch.fault.slowdowns_injected = 1;
  epoch.fault.disk_slow_events = 2;
  epoch.fault.corruptions_injected = 3;
  epoch.fault.corruptions_detected = 4;
  epoch.fault.stragglers_flagged = 5;
  epoch.fault.particles_speculated = 6;
  epoch.fault.wasted_duplicate_steps = 7;
  epoch.fault.straggler_detect_latency = 0.25;
  epoch.query_completions.push_back({4, 1.5, 10});
  Particle p;
  p.id = 3;
  p.status = ParticleStatus::kMaxSteps;
  epoch.particles.push_back(p);

  total.accumulate(epoch);
  total.accumulate(epoch);

  EXPECT_EQ(total.wall_clock, 4.0);
  EXPECT_EQ(total.num_ranks, 4);
  EXPECT_EQ(total.total_steps(), 200u);
  EXPECT_EQ(total.total_blocks_loaded(), 14u);
  EXPECT_EQ(total.ranks[1].blocks_adopted, 6u);
  EXPECT_EQ(total.ranks[2].peak_particle_bytes, 512u);  // max, not sum
  EXPECT_EQ(total.fault.crashes_injected, 2u);
  EXPECT_EQ(total.fault.slowdowns_injected, 2u);
  EXPECT_EQ(total.fault.disk_slow_events, 4u);
  EXPECT_EQ(total.fault.corruptions_injected, 6u);
  EXPECT_EQ(total.fault.corruptions_detected, 8u);
  EXPECT_EQ(total.fault.stragglers_flagged, 10u);
  EXPECT_EQ(total.fault.particles_speculated, 12u);
  EXPECT_EQ(total.fault.wasted_duplicate_steps, 14u);
  EXPECT_EQ(total.fault.straggler_detect_latency, 0.5);
  EXPECT_EQ(total.particles.size(), 2u);
  EXPECT_EQ(total.query_completions.size(), 2u);

  total.reset();
  EXPECT_EQ(total.wall_clock, 0.0);
  EXPECT_TRUE(total.ranks.empty());
  EXPECT_TRUE(total.particles.empty());
  EXPECT_TRUE(total.query_completions.empty());
  EXPECT_EQ(total.fault.crashes_injected, 0u);
}

TEST(Service, CumulativeMatchesSumOfEpochsWithoutDoubleCounting) {
  auto w = sf::testing::rotor_world(2);
  const auto s1 = seeds_for(w, 10, 31);
  const auto s2 = seeds_for(w, 10, 32);

  ServiceConfig sc = service_config(Algorithm::kLoadOnDemand, 3);
  sc.max_queries_per_epoch = 1;
  sc.share_cache = false;  // epochs are then independent solo runs
  StreamlineService svc(sc, &w.decomp(), w.source.get());
  svc.submit(s1);
  svc.submit(s2);
  svc.run_until_idle();

  const RunMetrics a = run_experiment(sc.base, w.decomp(), *w.source, s1);
  const RunMetrics b = run_experiment(sc.base, w.decomp(), *w.source, s2);
  EXPECT_EQ(svc.cumulative().total_steps(),
            a.total_steps() + b.total_steps());
  EXPECT_EQ(svc.cumulative().total_blocks_loaded(),
            a.total_blocks_loaded() + b.total_blocks_loaded());
  EXPECT_EQ(svc.cumulative().wall_clock, a.wall_clock + b.wall_clock);
  EXPECT_EQ(svc.cumulative().particles.size(), s1.size() + s2.size());
}

// --- Queue unit behaviour ---------------------------------------------------

TEST(QueryQueue, FifoAdmissionAndCancel) {
  QueryQueue q(3);
  EXPECT_TRUE(q.submit({1, {{0, 0, 0}}, 0.0}));
  EXPECT_TRUE(q.submit({2, {{0, 0, 0}}, 0.0}));
  EXPECT_TRUE(q.submit({3, {{0, 0, 0}}, 0.0}));
  EXPECT_FALSE(q.submit({4, {{0, 0, 0}}, 0.0}));  // full
  EXPECT_TRUE(q.cancel(2));
  EXPECT_FALSE(q.cancel(2));  // already gone
  const auto batch = q.admit(10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 3u);
  EXPECT_TRUE(q.empty());
}

// --- Checkpoint format ------------------------------------------------------

TEST(Service, CheckpointRoundTripsQueryTag) {
  Checkpoint ck;
  ck.num_ranks = 2;
  Particle p;
  p.id = 9;
  p.query = 12345;
  p.status = ParticleStatus::kMaxTime;
  ck.done.push_back(p);
  p.id = 10;
  p.query = 54321;
  p.status = ParticleStatus::kActive;
  ck.active.push_back(p);
  ck.active_owner.push_back(1);

  const auto path = std::filesystem::temp_directory_path() /
                    "sf_service_query_roundtrip.ckpt";
  write_checkpoint(path, ck);
  const Checkpoint back = read_checkpoint(path);
  std::filesystem::remove(path);
  ASSERT_EQ(back.done.size(), 1u);
  ASSERT_EQ(back.active.size(), 1u);
  EXPECT_EQ(back.done[0].query, 12345u);
  EXPECT_EQ(back.active[0].query, 54321u);
}

// --- Checker query plane ----------------------------------------------------

#if SF_CHECK_INVARIANTS

template <typename Fn>
InvariantDiagnostic expect_violation(Fn&& fn) {
  try {
    fn();
  } catch (const InvariantViolation& v) {
    return v.diag();
  }
  ADD_FAILURE() << "expected an InvariantViolation";
  return {};
}

Particle query_particle(std::uint32_t id, std::uint32_t query) {
  Particle p;
  p.id = id;
  p.pos = {0.1, 0.1, 0.1};
  p.query = query;
  return p;
}

CheckerConfig query_checker_config() {
  CheckerConfig cc;
  cc.num_ranks = 1;
  cc.track_queries = true;
  return cc;
}

TEST(ServiceChecker, QueryDoneSingleFireIsClean) {
  auto ck = make_invariant_checker(query_checker_config());
  ASSERT_NE(ck, nullptr);
  Particle p = query_particle(0, 7);
  ck->on_seeded(0, {p});
  p.status = ParticleStatus::kMaxSteps;
  ck->on_terminated(0, p, true, 1.0);
  ck->on_query_done(7, 1.0);
  ck->on_run_end(true, 2.0);
}

TEST(ServiceChecker, QueryDoneDoubleFire) {
  const InvariantDiagnostic diag = expect_violation([] {
    auto ck = make_invariant_checker(query_checker_config());
    Particle p = query_particle(0, 7);
    ck->on_seeded(0, {p});
    p.status = ParticleStatus::kMaxSteps;
    ck->on_terminated(0, p, true, 1.0);
    ck->on_query_done(7, 1.0);
    ck->on_query_done(7, 2.0);
  });
  EXPECT_EQ(diag.kind, ViolationKind::kQueryDoneDouble);
}

TEST(ServiceChecker, QueryDonePremature) {
  const InvariantDiagnostic diag = expect_violation([] {
    auto ck = make_invariant_checker(query_checker_config());
    Particle a = query_particle(0, 7);
    Particle b = query_particle(1, 7);
    ck->on_seeded(0, {a, b});
    a.status = ParticleStatus::kMaxSteps;
    ck->on_terminated(0, a, true, 1.0);
    ck->on_query_done(7, 1.0);  // b is still running
  });
  EXPECT_EQ(diag.kind, ViolationKind::kQueryDonePremature);
}

TEST(ServiceChecker, QueryDoneMissing) {
  const InvariantDiagnostic diag = expect_violation([] {
    auto ck = make_invariant_checker(query_checker_config());
    Particle p = query_particle(0, 7);
    ck->on_seeded(0, {p});
    p.status = ParticleStatus::kMaxSteps;
    ck->on_terminated(0, p, true, 1.0);
    ck->on_run_end(true, 2.0);  // nobody fired on_query_done
  });
  EXPECT_EQ(diag.kind, ViolationKind::kQueryDoneMissing);
}

#endif  // SF_CHECK_INVARIANTS

}  // namespace
}  // namespace sf
