#pragma once

// Configuration and counters for the fault-injection / checkpoint /
// recovery layer (DESIGN.md §7).
//
// The layer is opt-in: with `enabled == false` (the default) the
// simulated runtime takes exactly the same code paths as a build without
// it, so fault-free runs stay bit-for-bit identical to the pre-fault
// behaviour.  When enabled, a deterministic FaultInjector schedules rank
// crashes (seeded exponential inter-arrivals and/or an explicit event
// list), flips per-read disk faults/stalls, and drops particle-bearing
// messages; a ParticleLedger tracks the last safe state of every
// streamline so crashes are recoverable; and an optional checkpoint chain
// serializes the ledger at fixed simulated-time intervals.

#include <cstdint>
#include <string>
#include <vector>

#include "core/particle.hpp"

namespace sf {

// One explicitly scheduled rank crash.
struct CrashEvent {
  double time = 0.0;
  int rank = -1;
};

// One explicitly scheduled gray slowdown: from `time` on, every compute
// burst on `rank` takes `factor` times as long (steps are unchanged, so
// trajectories are unchanged — the rank is slow, not wrong).
struct SlowdownEvent {
  double time = 0.0;
  int rank = -1;
  double factor = 10.0;
};

struct FaultConfig {
  // Master switch.  run_experiment turns it on automatically when any
  // fault feature below is requested.
  bool enabled = false;

  // Seed for all injector draws (crash schedule, disk faults, drops).
  std::uint64_t rng_seed = 0xfa017ULL;

  // --- Rank crashes --------------------------------------------------------
  // Mean time between injected crashes (simulated seconds); 0 disables
  // random crash injection.  Victims are drawn uniformly among
  // non-immune ranks, each at most once, capped at max_crashes.
  double mtbf = 0.0;
  int max_crashes = 1;
  // Explicit crash schedule, applied in addition to the MTBF draws (and
  // not counted against max_crashes).  Immune ranks are filtered out.
  std::vector<CrashEvent> crashes;

  // --- Transient disk faults ----------------------------------------------
  // Per-read probability that a block read fails and must be retried.
  double disk_fault_rate = 0.0;
  // Per-read probability (when not faulted) that the read stalls for
  // disk_stall_seconds before completing.
  double disk_stall_rate = 0.0;
  double disk_stall_seconds = 0.05;
  // Capped exponential backoff between retries; after disk_max_retries
  // failed attempts the reading rank is declared crashed and its
  // streamlines are re-run elsewhere.
  double disk_retry_backoff = 0.01;
  double disk_backoff_cap = 0.5;
  int disk_max_retries = 8;

  // --- Gray failures (slow-but-alive) --------------------------------------
  // Explicit per-rank compute slowdowns, plus optional MTBF-drawn ones:
  // every gray_mtbf simulated seconds (mean, exponential) another victim
  // rank starts running gray_slow_factor times slow, up to max_slowdowns
  // victims (each rank at most once).  Immune ranks are never slowed.
  std::vector<SlowdownEvent> slowdowns;
  double gray_mtbf = 0.0;  // 0 disables MTBF-drawn slowdowns
  int max_slowdowns = 1;
  double gray_slow_factor = 10.0;
  // Per-read probability that a block read's latency is inflated by
  // disk_slow_factor — slowness, not failure: no retry is consumed.
  double disk_slow_rate = 0.0;
  double disk_slow_factor = 4.0;
  // Per-read probability that the returned payload is silently
  // bit-flipped.  The checksum catches it, the read behaves like a
  // failed attempt and retries on the capped-backoff ladder; only
  // disk_max_retries consecutive corruptions escalate to a rank crash.
  double corrupt_rate = 0.0;

  // --- Message drops -------------------------------------------------------
  // Per-message probability that the link drops a message.  Particle-
  // bearing payloads (ParticleBatch, seed assignments, seed transfers)
  // bounce back to the sender as Undeliverable, so streamlines are never
  // silently lost.  Control traffic (status, particle-free commands,
  // termination counts, beacons) is sequenced: the sender keeps a pending
  // copy and retransmits with capped exponential backoff until acked, and
  // the receiver dedups on sequence number, so programs see at-least-once
  // delivery collapsed back to exactly-once.
  double message_drop_rate = 0.0;
  std::uint64_t max_drops = 1000;  // backstop against drop-rate ~ 1 loops

  // --- Control-transport retransmission ------------------------------------
  // Initial retransmit timeout for an unacked sequenced control message,
  // doubling per attempt up to control_rto_cap.  After control_max_retries
  // unacked attempts the peer is presumed dead and the message abandoned
  // (its content is recovered through the failover path instead).
  double control_rto = 0.02;
  double control_rto_cap = 0.32;
  int control_max_retries = 10;

  // --- Failure detection ---------------------------------------------------
  enum class Detector : std::uint8_t {
    kRuntime,  // process-manager style: recovery fires a fixed delay
               // after the crash (Static Allocation, Load On Demand)
    kProgram,  // the hybrid master detects missed status heartbeats and
               // runs recovery itself (the sixth rule)
  };
  Detector detector = Detector::kRuntime;
  double failure_detect_seconds = 0.1;  // kRuntime detection latency
  double heartbeat_period = 0.05;       // kProgram slave status period
  int heartbeat_miss_limit = 3;         // silent periods before declared dead

  // --- Run topology stamp --------------------------------------------------
  // Stamped into every checkpoint (format v2) and validated on
  // --restart-from: resuming with a different algorithm, rank count, or
  // dataset decomposition is a hard error, not silent misbehavior.
  // prepare_run fills both fields.
  std::uint8_t algorithm_tag = 0;
  std::uint64_t dataset_hash = 0;

  // --- Checkpointing -------------------------------------------------------
  // Serialize the particle ledger every `checkpoint_interval` simulated
  // seconds (0 disables).  When checkpoint_path is non-empty the latest
  // checkpoint is atomically (re)written there; either way it is returned
  // in RunMetrics::last_checkpoint.
  double checkpoint_interval = 0.0;
  std::string checkpoint_path;

  // Ranks that never crash.  Empty by default: since coordinator failover
  // landed, the injector may target any rank — the termination counter and
  // the hybrid masters included.  Kept as an explicit knob for experiments
  // that want to shield specific ranks.
  std::vector<int> immune_ranks;

  // Particles already terminal before the run starts: rejected
  // out-of-domain seeds plus the done-list of a restart checkpoint.
  // Pre-seeded into the ledger so checkpoints and final results stay
  // complete across restarts.
  std::vector<Particle> presettled;
};

// Per-crash timeline, surfaced through FaultStats::crash_records so the
// fault benches read detection/recovery latency directly instead of
// re-deriving it from event timelines.  detect_time/recover_time stay
// negative while the crash is still undetected/unrecovered.
struct CrashRecord {
  int rank = -1;
  double crash_time = 0.0;
  double detect_time = -1.0;   // when a survivor first declared the rank dead
  double recover_time = -1.0;  // when its work had been re-owned
};

// Recovery counters surfaced through RunMetrics::fault.
struct FaultStats {
  std::uint64_t crashes_injected = 0;   // injector-scheduled crashes fired
  std::uint64_t oom_crashes = 0;        // OOM aborts converted to crashes
  std::uint64_t crashes_survived = 0;   // crashes recovered from
  std::uint64_t disk_faults = 0;        // failed block-read attempts
  std::uint64_t disk_stalls = 0;        // stalled block reads
  std::uint64_t messages_dropped = 0;   // injected link drops
  std::uint64_t control_retransmits = 0;  // sequenced control resends
  std::uint64_t control_duplicates = 0;   // deduped at-least-once arrivals
  std::uint64_t particles_recovered = 0;  // streamlines reclaimed and re-run
  std::uint64_t steps_redone = 0;       // integration steps lost to crashes
  double time_to_recovery = 0.0;        // summed crash -> recovery latency
  std::uint64_t checkpoints_taken = 0;
  double checkpoint_overhead = 0.0;     // modelled checkpoint write seconds
  std::vector<CrashRecord> crash_records;  // per-crash timeline
  // Gray-failure counters.
  std::uint64_t slowdowns_injected = 0;   // ranks put into slow mode
  std::uint64_t disk_slow_events = 0;     // reads with inflated latency
  std::uint64_t corruptions_injected = 0;  // payload bit-flips injected
  std::uint64_t corruptions_detected = 0;  // flips the checksum caught
  std::uint64_t stragglers_flagged = 0;   // slaves flagged as stragglers
  std::uint64_t particles_speculated = 0;  // copies re-issued from the ledger
  std::uint64_t wasted_duplicate_steps = 0;  // loser-copy steps past the fork
  double straggler_detect_latency = 0.0;  // summed slowdown -> flag latency

  // Add another run's counters and append its crash records (service
  // accumulation).
  void accumulate(const FaultStats& e) {
    crashes_injected += e.crashes_injected;
    oom_crashes += e.oom_crashes;
    crashes_survived += e.crashes_survived;
    disk_faults += e.disk_faults;
    disk_stalls += e.disk_stalls;
    messages_dropped += e.messages_dropped;
    control_retransmits += e.control_retransmits;
    control_duplicates += e.control_duplicates;
    particles_recovered += e.particles_recovered;
    steps_redone += e.steps_redone;
    time_to_recovery += e.time_to_recovery;
    checkpoints_taken += e.checkpoints_taken;
    checkpoint_overhead += e.checkpoint_overhead;
    crash_records.insert(crash_records.end(), e.crash_records.begin(),
                         e.crash_records.end());
    slowdowns_injected += e.slowdowns_injected;
    disk_slow_events += e.disk_slow_events;
    corruptions_injected += e.corruptions_injected;
    corruptions_detected += e.corruptions_detected;
    stragglers_flagged += e.stragglers_flagged;
    particles_speculated += e.particles_speculated;
    wasted_duplicate_steps += e.wasted_duplicate_steps;
    straggler_detect_latency += e.straggler_detect_latency;
  }
};

}  // namespace sf
