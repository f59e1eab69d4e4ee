#pragma once

// Per-rank and per-run performance metrics — exactly the quantities §5 of
// the paper plots: wall clock, total I/O time, total communication time,
// and block efficiency, plus supporting counters.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/particle.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault_config.hpp"
#include "runtime/timeline.hpp"

namespace sf {

struct RankMetrics {
  double compute_time = 0.0;  // busy advecting particles
  double io_time = 0.0;       // waiting on block reads (incl. queueing)
  double comm_time = 0.0;     // posting/managing sends and receives
  std::uint64_t blocks_loaded = 0;
  std::uint64_t blocks_purged = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  // Coordination traffic (everything that is not a ParticleBatch): the
  // scalability bench's per-rank control-volume metric (DESIGN.md §15).
  std::uint64_t control_messages_sent = 0;
  // Bytes delivered to this rank; bytes_received at the tree root is the
  // bytes-at-root aggregation-pressure metric.
  std::uint64_t bytes_received = 0;
  std::uint64_t steps = 0;              // accepted integration steps
  std::uint64_t bursts = 0;             // compute bursts executed
  std::size_t peak_particle_bytes = 0;  // high-water resident memory
  bool oom = false;
  // Fault-injection counters.
  std::uint64_t disk_retries = 0;       // failed block reads re-submitted
  std::uint64_t disk_stall_events = 0;  // reads hit by an injected stall
  double checkpoint_seconds = 0.0;      // modeled checkpoint-write share
  bool crashed = false;                 // rank was killed by injection
  // Async block I/O (cache counters are live in sync runs too).
  std::uint64_t cache_hits = 0;    // BlockCache::find hits
  std::uint64_t cache_misses = 0;  // BlockCache::find misses
  std::uint64_t prefetches_issued = 0;
  std::uint64_t prefetch_hits = 0;      // demands served from staging
  std::uint64_t prefetches_wasted = 0;  // staged-unclaimed/failed/dropped
  double stall_time = 0.0;  // seconds blocked on demand block reads
  // Blocks inherited warm from a previous run's cache (service sharing).
  std::uint64_t blocks_adopted = 0;

  // Merge another run's counters into this rank's (service accumulation).
  void accumulate(const RankMetrics& other);
};

// Per-query completion record produced by the runtimes: the runtime clock
// when the query's last seeded streamline terminated, plus how many
// streamlines it covered.  The service turns these into latency samples.
struct QueryCompletion {
  std::uint32_t query = 0;
  double done_time = 0.0;
  std::uint32_t particles = 0;
};

struct RunMetrics {
  double wall_clock = 0.0;
  bool failed_oom = false;    // run aborted: a rank exceeded its memory
  bool failed_fault = false;  // fault injection made the run unrecoverable
  std::string abort_reason;   // human-readable cause when a run failed
  int num_ranks = 0;
  std::vector<RankMetrics> ranks;
  // Final particle states (terminated streamlines), gathered from all
  // ranks and sorted by id.  On a failed run this holds whatever partial
  // results the ranks had produced by the abort.
  std::vector<Particle> particles;
  // Aggregated fault-injection and recovery statistics (all zero when
  // fault injection is disabled).
  FaultStats fault;
  // Last checkpoint taken during the run (fault mode with a checkpoint
  // interval only); what --checkpoint-out writes and restarts read.
  std::shared_ptr<const Checkpoint> last_checkpoint;
  // Populated when SimRuntimeConfig::record_timeline is set: per-rank
  // compute/I/O spans for utilization and starvation analysis (§8).
  std::shared_ptr<const Timeline> timeline;
  // Per-query completion times (runtime clock), sorted by query id.
  // Empty for runs that seeded no live particles.
  std::vector<QueryCompletion> query_completions;

  // Sum of one per-rank counter over all ranks, in rank order.
  template <typename T>
  T total(T RankMetrics::*counter) const {
    T sum{};
    for (const RankMetrics& r : ranks) sum += r.*counter;
    return sum;
  }
  double total_io_time() const { return total(&RankMetrics::io_time); }
  double total_comm_time() const { return total(&RankMetrics::comm_time); }
  double total_compute_time() const {
    return total(&RankMetrics::compute_time);
  }
  std::uint64_t total_blocks_loaded() const {
    return total(&RankMetrics::blocks_loaded);
  }
  std::uint64_t total_blocks_purged() const {
    return total(&RankMetrics::blocks_purged);
  }
  std::uint64_t total_bytes_read() const {
    return total(&RankMetrics::bytes_read);
  }
  std::uint64_t total_messages() const {
    return total(&RankMetrics::messages_sent);
  }
  std::uint64_t total_bytes_sent() const {
    return total(&RankMetrics::bytes_sent);
  }
  std::uint64_t total_control_messages() const {
    return total(&RankMetrics::control_messages_sent);
  }
  std::uint64_t total_steps() const { return total(&RankMetrics::steps); }
  std::uint64_t total_cache_hits() const {
    return total(&RankMetrics::cache_hits);
  }
  std::uint64_t total_cache_misses() const {
    return total(&RankMetrics::cache_misses);
  }
  std::uint64_t total_prefetches_issued() const {
    return total(&RankMetrics::prefetches_issued);
  }
  std::uint64_t total_prefetch_hits() const {
    return total(&RankMetrics::prefetch_hits);
  }
  std::uint64_t total_prefetches_wasted() const {
    return total(&RankMetrics::prefetches_wasted);
  }
  double total_stall_time() const { return total(&RankMetrics::stall_time); }

  // E = (B_loaded - B_purged) / B_loaded, eq. (2).  Defined as 1 when no
  // blocks were loaded.
  double block_efficiency() const;

  // Cache hit rate hits / (hits + misses); 1 when the cache was never
  // consulted (mirrors block_efficiency's empty-run convention).
  double cache_hit_rate() const;

  // Fraction of issued prefetches a later demand actually claimed; 0
  // when none were issued (a sync run prefetches nothing).
  double prefetch_accuracy() const;

  // Mean fraction of the run each rank spent advecting particles —
  // the processor-utilization view of load balance (§8 names processor
  // starvation as the main limit to scalability).  0 when wall is 0.
  double mean_utilization() const;

  // Utilization of the busiest rank minus the mean: a large spread means
  // a few ranks did all the work (Static Allocation's failure mode).
  double utilization_imbalance() const;

  // --- service accumulation (per-query vs. cumulative reporting) ---------

  // Fold one epoch's metrics into this cumulative record: wall clocks,
  // rank and fault counters add, particle results, query completions and
  // crash records append.  Each epoch's counters start from zero (fresh
  // runtime contexts), so cumulative = sum of epochs with no
  // double-counting.  The latest epoch's checkpoint and timeline
  // pointers are kept; failure flags OR together.
  void accumulate(const RunMetrics& epoch);

  // Back to a default-constructed record (a service's counter reset).
  void reset();
};

}  // namespace sf
