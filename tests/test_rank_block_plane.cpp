// RankBlockPlane driven directly, with the test as its read backend: no
// runtime, no event queue and no loader.  Each test issues reads, hands
// back grids the way a backend would, and checks the plane's accounting
// and (in builds with the invariant checker) its hooks.  These paths —
// staging overflow, and a demand whose prefetch fails under it — are
// ones no runtime test reaches.

#include "runtime/rank_block_plane.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace sf {
namespace {

using Demand = RankBlockPlane::Demand;

constexpr std::size_t kBlockBytes = 1000;

class FixedSizeSource final : public BlockSource {
 public:
  GridPtr load(BlockId) const override {
    return std::make_shared<StructuredGrid>(AABB{{0, 0, 0}, {1, 1, 1}}, 2, 2,
                                            2);
  }
  std::size_t block_bytes(BlockId) const override { return kBlockBytes; }
  int num_blocks() const override { return 16; }
};

// One rank's plane with async I/O on.  The checker is null when the build
// compiles it out; hook assertions are skipped then.
struct PlaneRig {
  explicit PlaneRig(std::size_t staging_blocks, int prefetch_depth = 2)
      : checker(make_invariant_checker({.num_ranks = 1, .cache_blocks = 4})),
        plane(/*rank=*/0, /*cache_blocks=*/4,
              AsyncIoConfig{.enabled = true,
                            .staging_blocks = staging_blocks,
                            .prefetch_depth = prefetch_depth},
              /*particle_memory_bytes=*/1 << 20, source, metrics, checker,
              [] { return 0.0; }) {}

  // What a backend does when a prefetch read lands.
  bool land(BlockId id) { return plane.complete_prefetch(id, source.load(id)); }

  // Every issued prefetch must be resolved: the checker's run-end audit
  // fails on any prefetch that never saw a claim or a cancel hook.
  void expect_all_prefetches_resolved() {
    if (checker) {
      EXPECT_NO_THROW(checker->on_run_end(true, 0.0));
    }
  }

  FixedSizeSource source;
  RankMetrics metrics;
  std::unique_ptr<InvariantChecker> checker;
  RankBlockPlane plane;
};

TEST(RankBlockPlane, StagingOverflowDiscardsTheOldestPrefetch) {
  PlaneRig rig(/*staging_blocks=*/1);
  ASSERT_TRUE(rig.plane.issue_prefetch(1));
  ASSERT_TRUE(rig.plane.issue_prefetch(2));
  EXPECT_FALSE(rig.plane.issue_prefetch(3));  // depth 2 is in flight
  EXPECT_EQ(rig.metrics.prefetches_issued, 2u);

  EXPECT_FALSE(rig.land(1));  // staged
  EXPECT_FALSE(rig.land(2));  // staged; block 1 no longer fits
  EXPECT_EQ(rig.metrics.prefetches_wasted, 1u);
  if (rig.checker) {
    // The discard fired on_prefetch_cancelled: block 1 left the checker's
    // prefetch state machine, so claiming it now is illegal.
    EXPECT_THROW(rig.checker->on_prefetch_claimed(0, 1, 0.0),
                 InvariantViolation);
  }

  // Claiming the survivor is one load and one prefetch hit, at zero I/O.
  EXPECT_EQ(rig.plane.demand(2), Demand::kResident);
  rig.plane.sync_counters();
  EXPECT_EQ(rig.metrics.blocks_loaded, 1u);
  EXPECT_EQ(rig.metrics.prefetch_hits, 1u);
  EXPECT_TRUE(rig.plane.resident(2));

  // The discarded block is gone: its demand is a cold miss.
  EXPECT_EQ(rig.plane.demand(1), Demand::kMiss);
  rig.plane.complete_load(1, rig.source.load(1));
  EXPECT_FALSE(rig.plane.pending(1));

  // Resolving at run end wastes the rest: one staged, one in flight.
  ASSERT_TRUE(rig.plane.issue_prefetch(3));
  ASSERT_TRUE(rig.plane.issue_prefetch(4));
  EXPECT_FALSE(rig.land(3));
  rig.plane.resolve_outstanding_prefetches();
  EXPECT_EQ(rig.metrics.prefetches_wasted, 3u);
  EXPECT_EQ(rig.metrics.prefetch_hits + rig.metrics.prefetches_wasted,
            rig.metrics.prefetches_issued);
  rig.expect_all_prefetches_resolved();
  // Nothing is staged or in flight any more: a demand reads cold.
  EXPECT_EQ(rig.plane.demand(3), Demand::kMiss);
  EXPECT_EQ(rig.plane.demand(4), Demand::kMiss);
}

TEST(RankBlockPlane, DemandWaitsOnAnInFlightPrefetch) {
  PlaneRig rig(/*staging_blocks=*/4);
  ASSERT_TRUE(rig.plane.issue_prefetch(5));
  EXPECT_EQ(rig.plane.demand(5), Demand::kInFlight);
  EXPECT_EQ(rig.plane.demand(5), Demand::kPending);  // coalesced
  EXPECT_TRUE(rig.land(5));  // completes the waiting demand
  rig.plane.sync_counters();
  EXPECT_EQ(rig.metrics.blocks_loaded, 1u);
  EXPECT_EQ(rig.metrics.prefetch_hits, 1u);
  EXPECT_FALSE(rig.plane.pending(5));

  // A failed prefetch under a waiting demand is wasted; the demand stays
  // pending for the backend's cold read.
  ASSERT_TRUE(rig.plane.issue_prefetch(6));
  EXPECT_EQ(rig.plane.demand(6), Demand::kInFlight);
  EXPECT_FALSE(rig.plane.complete_prefetch(6, nullptr));
  EXPECT_EQ(rig.metrics.prefetches_wasted, 1u);
  EXPECT_TRUE(rig.plane.pending(6));
  rig.plane.complete_load(6, rig.source.load(6));
  rig.plane.sync_counters();
  EXPECT_EQ(rig.metrics.blocks_loaded, 2u);
  rig.expect_all_prefetches_resolved();
}

}  // namespace
}  // namespace sf
