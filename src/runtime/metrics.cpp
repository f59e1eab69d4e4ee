#include "runtime/metrics.hpp"

#include <algorithm>

namespace sf {

void RankMetrics::accumulate(const RankMetrics& other) {
  compute_time += other.compute_time;
  io_time += other.io_time;
  comm_time += other.comm_time;
  blocks_loaded += other.blocks_loaded;
  blocks_purged += other.blocks_purged;
  bytes_read += other.bytes_read;
  messages_sent += other.messages_sent;
  bytes_sent += other.bytes_sent;
  control_messages_sent += other.control_messages_sent;
  bytes_received += other.bytes_received;
  steps += other.steps;
  bursts += other.bursts;
  peak_particle_bytes = std::max(peak_particle_bytes,
                                 other.peak_particle_bytes);
  oom = oom || other.oom;
  disk_retries += other.disk_retries;
  disk_stall_events += other.disk_stall_events;
  checkpoint_seconds += other.checkpoint_seconds;
  crashed = crashed || other.crashed;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  prefetches_issued += other.prefetches_issued;
  prefetch_hits += other.prefetch_hits;
  prefetches_wasted += other.prefetches_wasted;
  stall_time += other.stall_time;
  blocks_adopted += other.blocks_adopted;
}

double RunMetrics::block_efficiency() const {
  const std::uint64_t loaded = total_blocks_loaded();
  if (loaded == 0) return 1.0;
  const std::uint64_t purged = total_blocks_purged();
  return static_cast<double>(loaded - purged) / static_cast<double>(loaded);
}

double RunMetrics::cache_hit_rate() const {
  const std::uint64_t hits = total_cache_hits();
  const std::uint64_t misses = total_cache_misses();
  if (hits + misses == 0) return 1.0;
  return static_cast<double>(hits) / static_cast<double>(hits + misses);
}

double RunMetrics::prefetch_accuracy() const {
  const std::uint64_t issued = total_prefetches_issued();
  if (issued == 0) return 0.0;
  return static_cast<double>(total_prefetch_hits()) /
         static_cast<double>(issued);
}

double RunMetrics::mean_utilization() const {
  if (wall_clock <= 0.0 || ranks.empty()) return 0.0;
  return total_compute_time() /
         (wall_clock * static_cast<double>(ranks.size()));
}

double RunMetrics::utilization_imbalance() const {
  if (wall_clock <= 0.0 || ranks.empty()) return 0.0;
  double busiest = 0.0;
  for (const RankMetrics& r : ranks) {
    busiest = std::max(busiest, r.compute_time);
  }
  return busiest / wall_clock - mean_utilization();
}

void RunMetrics::accumulate(const RunMetrics& epoch) {
  wall_clock += epoch.wall_clock;
  failed_oom = failed_oom || epoch.failed_oom;
  failed_fault = failed_fault || epoch.failed_fault;
  if (!epoch.abort_reason.empty()) abort_reason = epoch.abort_reason;
  num_ranks = std::max(num_ranks, epoch.num_ranks);
  if (ranks.size() < epoch.ranks.size()) ranks.resize(epoch.ranks.size());
  for (std::size_t r = 0; r < epoch.ranks.size(); ++r) {
    ranks[r].accumulate(epoch.ranks[r]);
  }
  particles.insert(particles.end(), epoch.particles.begin(),
                   epoch.particles.end());
  query_completions.insert(query_completions.end(),
                           epoch.query_completions.begin(),
                           epoch.query_completions.end());
  // Structured per-epoch state (crash timelines, checkpoints, timelines)
  // does not sum meaningfully: keep the scalar fault counters additive
  // and the latest epoch's pointers.
  FaultStats& f = fault;
  const FaultStats& e = epoch.fault;
  f.crashes_injected += e.crashes_injected;
  f.oom_crashes += e.oom_crashes;
  f.crashes_survived += e.crashes_survived;
  f.disk_faults += e.disk_faults;
  f.disk_stalls += e.disk_stalls;
  f.messages_dropped += e.messages_dropped;
  f.control_retransmits += e.control_retransmits;
  f.control_duplicates += e.control_duplicates;
  f.particles_recovered += e.particles_recovered;
  f.steps_redone += e.steps_redone;
  f.time_to_recovery += e.time_to_recovery;
  f.checkpoints_taken += e.checkpoints_taken;
  f.checkpoint_overhead += e.checkpoint_overhead;
  f.crash_records.insert(f.crash_records.end(), e.crash_records.begin(),
                         e.crash_records.end());
  if (epoch.last_checkpoint) last_checkpoint = epoch.last_checkpoint;
  if (epoch.timeline) timeline = epoch.timeline;
}

void RunMetrics::reset() { *this = RunMetrics{}; }

}  // namespace sf
