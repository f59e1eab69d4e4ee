#pragma once

// Discrete-event-simulated runtime: runs one RankProgram per simulated
// rank over the machine model of sim/machine_model.hpp.
//
// This is the substitute for the paper's 512-rank MPI runs on JaguarPF
// (DESIGN.md §2): the very same algorithm code performs the real
// numerical integration, while elapsed time, network transfers, shared-
// filesystem contention and memory limits are modelled.  Runs are
// deterministic: same inputs, same metrics, bit for bit.
//
// Fault injection (DESIGN.md §7) is layered on top and strictly opt-in:
// with `fault.enabled == false` every fault hook short-circuits before
// touching the event queue, so fault-free runs remain bit-identical to
// the pre-fault runtime.  When enabled, the runtime kills ranks on the
// injector's schedule, retries faulted block reads with capped
// exponential backoff, bounces undeliverable particle payloads back to
// their senders, maintains the particle ledger that makes crashes
// recoverable, and takes periodic checkpoints of it.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "core/dataset.hpp"
#include "core/tracer.hpp"
#include "fault/fault_config.hpp"
#include "fault/injector.hpp"
#include "fault/ledger.hpp"
#include "runtime/metrics.hpp"
#include "runtime/rank_context.hpp"
#include "runtime/run_board.hpp"
#include "sim/disk.hpp"
#include "sim/network.hpp"
#include "sim/sim_engine.hpp"

namespace sf {

// The DES's own settings on top of the shared ones.
struct SimRuntimeConfig : RuntimeConfig {
  // Record per-rank compute/I/O spans into RunMetrics::timeline for
  // utilization and starvation analysis (§8).  Off by default: large
  // runs generate millions of spans.
  bool record_timeline = false;
  // Fault injection, checkpointing and recovery (DESIGN.md §7).
  FaultConfig fault{};
};

class SimRuntime {
 public:
  SimRuntime(const SimRuntimeConfig& config, const BlockDecomposition* decomp,
             const BlockSource* source, const IntegratorParams& iparams,
             const TraceLimits& limits);
  ~SimRuntime();  // out of line: Context is incomplete here

  // Instantiate one program per rank and simulate to completion.
  // Terminated particles are gathered from all programs, sorted by id.
  RunMetrics run(const ProgramFactory& factory);

 private:
  class Context;

  // One unacked sequenced control message, kept by the sender's transport
  // for retransmission.
  struct PendingControl {
    std::size_t bytes = 0;
    Message msg;
    int attempts = 0;  // retransmissions so far (first send not counted)
    double rto = 0.0;  // current backoff, doubling up to control_rto_cap
  };

  // Receiver-side dedup window for one directed link.  `low_water` is the
  // highest seq below which everything has been delivered; `seen` holds
  // the delivered seqs above it.  low_water only ever advances, which the
  // invariant checker audits (a regressing window would re-deliver).
  struct DedupWindow {
    std::uint32_t low_water = 0;
    std::set<std::uint32_t> seen;
  };

  using LinkKey = std::pair<int, int>;  // (from, to)

  // All fault-mode state; null when config_.fault.enabled is false, which
  // is what keeps the disabled path bit-identical.
  struct FaultState {
    FaultState(const FaultConfig& config, int num_ranks)
        : injector(config, num_ranks) {}
    FaultInjector injector;
    ParticleLedger ledger;
    FaultStats stats;
    std::vector<char> alive;
    std::vector<double> crash_time;
    std::set<int> immune;
    std::shared_ptr<Checkpoint> last_checkpoint;
    // Gray failures: per-rank compute slowdown multiplier (1.0 = healthy),
    // onset times of pending-detection slowdowns (for the detect-latency
    // stat), ranks already speculated against (one re-issue per
    // straggler), and each speculated streamline's fork-point step count
    // (the baseline for the wasted-duplicate-steps stat).
    std::vector<double> slow_factor;
    std::map<int, double> slowdown_time;
    std::set<int> speculated;
    std::map<std::uint32_t, std::uint32_t> speculated_at_steps;
    // Simulated time when every live rank finished; the fault-mode wall
    // clock (trailing injector/checkpoint events do not extend the run).
    double done_time = -1.0;
    // Reliable control transport (DESIGN.md §11): per-link sender
    // sequence counters, pending unacked messages, and receiver dedup
    // windows.
    std::map<LinkKey, std::uint32_t> ctrl_next_seq;
    std::map<LinkKey, std::map<std::uint32_t, PendingControl>> ctrl_pending;
    std::map<LinkKey, DedupWindow> ctrl_dedup;
  };

  bool rank_alive(int rank) const;
  bool all_live_finished() const;
  // Re-sync `rank`'s cached finished() bit (and the live-unfinished
  // counter) after a program callback may have changed it.  Called at
  // every callback site so quiescence stays O(1) per event.
  void refresh_finished(int rank);
  // Kill `rank` without touching stats (shared by crash paths).
  void kill_rank(int rank);
  // Injected/OOM crash: kill, count, and (kRuntime detector) schedule the
  // recovery a detection latency later.
  void crash_rank(int rank, bool from_oom);
  // kRuntime-detector recovery: deliver the ledger's termination recount
  // to the lowest live rank (the acting counter — which is how a counter
  // successor seeds its board), then hand the dead rank's streamlines to
  // the next live rank as a ParticleBatch.
  void runtime_recover(int dead_rank);
  // kProgram-detector recovery, called by the hybrid master through
  // RankContext::recover_rank.
  RecoveredWork recover_for(int recoverer, int dead_rank);
  // Speculative re-issue against a straggler (gray failure, DESIGN.md
  // §16): copy the straggler's ledger-owned streamlines for `speculator`
  // without transferring ownership.  One re-issue per straggler; the
  // first-terminal-wins ledger dedups the losing copies.
  std::vector<Particle> speculate_for(int speculator, int straggler);
  // Re-own a dead rank's ledger streamlines to `new_owner`, counting the
  // recovery and stamping the per-crash timeline (DESIGN.md §11).
  RecoveredWork recover_ledger(int dead_rank, int new_owner);
  // Ledger snooping + drop/dead-rank handling for one sent message.
  void fault_send(int from, int to, SimTime arrive, std::size_t bytes,
                  Message msg);
  // Sequenced at-least-once control path: assign a seq, keep a pending
  // copy, transmit, and arm the retransmit timer.
  void control_send(int from, int to, SimTime arrive, std::size_t bytes,
                    Message msg);
  // One transmission attempt of a pending control message + its
  // retransmit check.
  void transmit_control(int from, int to, std::uint32_t seq, SimTime arrive);
  // Receiver side: ack, dedup, and deliver first arrivals to the program.
  void deliver_control(int from, int to, std::size_t bytes, Message msg);
  // Transport-level ack back to the sender (droppable, never retried —
  // a lost ack just provokes a deduped retransmit).
  void send_control_ack(int acker, int sender, std::uint32_t seq);
  // Deliver (or bounce) a message that reached its destination time.
  void deliver(int to, std::size_t bytes, Message msg);
  // Return a message's particle payload to a live rank as Undeliverable;
  // particle-free payloads vanish (their loss is repaired by the control
  // transport's retransmits or by the failover recount).
  void bounce_undeliverable(int intended, Message msg);
  void checkpoint_tick();
  void schedule_checkpoint(double at);
  SimRuntimeConfig config_;
  const BlockDecomposition* decomp_;
  const BlockSource* source_;
  Tracer tracer_;
  // Cancelled-query set consulted by the tracer's fast path; populated by
  // the scheduled QueryCancelAt events.
  QueryCancelSet cancel_set_;
  RunBoard board_;
  std::vector<std::unique_ptr<Context>> contexts_;
  // O(1)-per-event coordination state (DESIGN.md §15).  The simulator
  // used to sweep every rank after every event to detect quiescence and
  // to find successors; at 16K ranks those O(R) scans dominated.  Now:
  // `finished_` caches each live rank's program->finished() bit
  // (refreshed at the callback sites that can change it),
  // `live_unfinished_` counts live ranks whose bit is clear, and
  // `live_ranks_` is the ordered live set for successor / acting-counter
  // lookups (O(log R) instead of a cyclic scan).
  std::vector<char> finished_;
  int live_unfinished_ = 0;
  std::set<int> live_ranks_;
  // Scratch for the periodic checkpoint tick's per-rank particle
  // snapshots: reused across ticks so steady-state checkpointing does
  // not reallocate (mirrors the mailbox data plane's fixed-slot rings).
  std::vector<Particle> snapshot_scratch_;
  std::shared_ptr<Timeline> timeline_;
  std::unique_ptr<FaultState> fault_;
  // Live only inside run(); null when compiled out (Release).
  std::unique_ptr<InvariantChecker> checker_;
  // Live only inside run().
  SimEngine* engine_ = nullptr;
  Network* network_ = nullptr;
};

}  // namespace sf
