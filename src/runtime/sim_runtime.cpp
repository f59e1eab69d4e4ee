#include "runtime/sim_runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "io/checkpoint_io.hpp"

namespace sf {

namespace {
// The particles a message carries and the block they target; nullptr
// for pure control traffic.
std::vector<Particle>* particle_payload(Message& msg, BlockId& block) {
  if (auto* b = std::get_if<ParticleBatch>(&msg.payload)) {
    block = b->block;
    return &b->particles;
  }
  if (auto* c = std::get_if<Command>(&msg.payload)) {
    block = c->block;
    return &c->particles;
  }
  if (auto* t = std::get_if<SeedTransfer>(&msg.payload)) return &t->seeds;
  if (auto* u = std::get_if<Undeliverable>(&msg.payload)) {
    block = u->block;
    return &u->particles;
  }
  return nullptr;
}
}  // namespace

// The RankContext handed to each simulated rank's program: the shared
// shell plus the DES clock, the modelled cost of a send, the DES read
// backend (a read is a disk-channel event) and the fault hooks.
class SimRuntime::Context final : public PlaneContext {
 public:
  Context(SimRuntime* runtime, SimEngine* engine, SharedDisk* disk,
          Network* network, int rank)
      : PlaneContext(rank, runtime->config_, *runtime->decomp_,
                     runtime->tracer_, *runtime->source_, runtime->checker_,
                     [engine] { return engine->now(); }),
        runtime_(runtime),
        engine_(engine),
        disk_(disk),
        network_(network) {}

  // --- RankContext -----------------------------------------------------

  double now() const override { return engine_->now(); }

  void send(int to, Message msg) override {
    const std::size_t bytes = stamp_send(to, msg);
    metrics.comm_time += network_->endpoint_cost(bytes);
    const SimTime arrive = network_->delivery_time(engine_->now(), bytes);
    if (runtime_->fault_) {
      runtime_->fault_send(rank_, to, arrive, bytes, std::move(msg));
      return;
    }
    engine_->schedule_at(
        arrive, [rt = runtime_, to, bytes, m = std::move(msg)]() mutable {
          rt->deliver(to, bytes, std::move(m));
        });
  }

  void request_block(BlockId id) override {
    switch (plane_.demand(id)) {
      case RankBlockPlane::Demand::kResident:
        // Notify at the current instant, like every completion.
        engine_->schedule_at(engine_->now(), [this, id] {
          if (!dead()) notify_loaded(id);
        });
        return;
      case RankBlockPlane::Demand::kPending:
        return;
      case RankBlockPlane::Demand::kInFlight:
        // Piggyback on the prefetch's read: the rank only stalls for the
        // remaining read time (a partial overlap beats a cold read).
        demand_since_[id] = engine_->now();
        return;
      case RankBlockPlane::Demand::kMiss:
        start_read(id, /*attempt=*/0, /*prefetch=*/false);
        return;
    }
  }

  void prefetch_block(BlockId id) override {
    if (plane_.issue_prefetch(id)) {
      start_read(id, /*attempt=*/0, /*prefetch=*/true);
    }
  }

  void begin_compute(double seconds, std::uint64_t steps) override {
    if (busy_) {
      throw std::logic_error("begin_compute while busy (program bug)");
    }
    busy_ = true;
    if (runtime_->fault_) {
      // Gray failure: a slowed rank's bursts take longer in modeled time,
      // but the steps (and hence the trajectories) are untouched.
      seconds *= runtime_->fault_->slow_factor[static_cast<std::size_t>(rank_)];
    }
    metrics.compute_time += seconds;
    metrics.steps += steps;
    metrics.bursts += 1;
    if (runtime_->timeline_ && seconds > 0.0) {
      runtime_->timeline_->add(rank_, TimelineSpan::Kind::kCompute,
                               engine_->now(), engine_->now() + seconds);
    }
    engine_->schedule_after(seconds, [this] {
      if (dead()) return;
      busy_ = false;
      program->on_compute_done(*this);
      runtime_->refresh_finished(rank_);
    });
  }

  bool busy() const override { return busy_; }

  // --- fault hooks -------------------------------------------------------

  const FaultConfig* fault_plane() const override {
    return runtime_->fault_ ? &runtime_->config_.fault : nullptr;
  }

  void set_timer(double seconds) override {
    engine_->schedule_after(seconds, [this] {
      if (dead()) return;
      program->on_timer(*this);
      runtime_->refresh_finished(rank_);
    });
  }

  bool is_alive(int target) const override {
    return runtime_->rank_alive(target);
  }

  bool log_termination(const Particle& p) override {
    const bool first =
        !runtime_->fault_ ||
        runtime_->fault_->ledger.on_terminated(rank_, p);
    if (!first) {
      // Speculation accounting: the losing copy of a speculated streamline
      // re-ran every step past its fork point.  (Crash-recovery re-runs
      // are not in the map and stay uncounted here, as before.)
      FaultState& fs = *runtime_->fault_;
      auto it = fs.speculated_at_steps.find(p.id);
      if (it != fs.speculated_at_steps.end() && p.steps >= it->second) {
        fs.stats.wasted_duplicate_steps += p.steps - it->second;
      }
    }
    SF_INVARIANT_HOOK(checker_, on_terminated(rank_, p, first, engine_->now()));
    if (first) runtime_->board_.note_termination(p, engine_->now());
    return first;
  }

  RecoveredWork recover_rank(int dead_rank) override {
    return runtime_->recover_for(rank_, dead_rank);
  }

  std::vector<Particle> speculate_rank(int straggler) override {
    return runtime_->speculate_for(rank_, straggler);
  }

  // --- runtime-side ------------------------------------------------------

  // Cost and count of one transport-level control transmission (a
  // retransmit or an ack).
  void charge_send(std::size_t bytes) {
    metrics.comm_time += network_->endpoint_cost(bytes);
    count_sent(bytes, /*control=*/true);
  }

 private:
  bool dead() const { return !runtime_->rank_alive(rank_); }

  void notify_loaded(BlockId id) {
    program->on_block_loaded(*this, id);
    runtime_->refresh_finished(rank_);
  }

  // One disk read attempt.  A demand read stalls the rank for its whole
  // service time; a prefetch models ThreadRuntime's loader pool: it
  // burns disk channel time but the rank keeps computing.  Both draw
  // faults from the injector and walk the same capped-backoff retry
  // ladder.  An exhausted demand read crashes the rank; an exhausted
  // prefetch is abandoned (a later demand re-reads cold) unless a demand
  // already piggybacked on it.
  void start_read(BlockId id, int attempt, bool prefetch) {
    const std::size_t bytes = plane_.count_read(id);
    SimTime done = disk_->submit_read(engine_->now(), bytes);
    bool faulted = false;
    if (runtime_->fault_) {
      FaultState& fs = *runtime_->fault_;
      if (fs.injector.draw_disk_fault()) {
        faulted = true;
        ++fs.stats.disk_faults;
      } else if (fs.injector.draw_disk_corrupt()) {
        // Silent payload bit-flip.  The checksum catches it at completion
        // (never delivered to the tracer), so the attempt behaves exactly
        // like a failed read and walks the same capped-backoff ladder.
        faulted = true;
        ++fs.stats.corruptions_injected;
        ++fs.stats.corruptions_detected;
      } else if (fs.injector.draw_disk_stall()) {
        done += runtime_->config_.fault.disk_stall_seconds;
        ++fs.stats.disk_stalls;
        ++metrics.disk_stall_events;
      } else if (fs.injector.draw_disk_slow()) {
        // Gray disk: the read completes intact but takes longer (latency
        // inflation without failure).
        done = engine_->now() +
               (done - engine_->now()) * runtime_->config_.fault.disk_slow_factor;
        ++fs.stats.disk_slow_events;
        ++metrics.disk_stall_events;
      }
    }
    if (!prefetch) {
      metrics.io_time += done - engine_->now();
      metrics.stall_time += done - engine_->now();
      if (runtime_->timeline_) {
        runtime_->timeline_->add(rank_, TimelineSpan::Kind::kIo,
                                 engine_->now(), done);
      }
    }
    if (faulted) {
      // The channel did the work but the payload is garbage: back off and
      // retry, and give up after disk_max_retries attempts.
      engine_->schedule_at(done, [this, id, attempt, prefetch] {
        if (dead()) return;
        if (attempt + 1 > runtime_->config_.fault.disk_max_retries) {
          if (prefetch && !plane_.pending(id)) {
            plane_.abandon_prefetch(id);
          } else {
            runtime_->crash_rank(rank_, /*from_oom=*/false);
          }
          return;
        }
        const double backoff =
            std::min(runtime_->config_.fault.disk_retry_backoff *
                         std::ldexp(1.0, attempt),
                     runtime_->config_.fault.disk_backoff_cap);
        engine_->schedule_after(backoff, [this, id, attempt, prefetch] {
          if (dead()) return;
          ++metrics.disk_retries;
          start_read(id, attempt + 1, prefetch);
        });
      });
      return;
    }
    engine_->schedule_at(done, [this, id, prefetch] {
      if (dead()) return;
      // The real payload is fetched at completion time (memoized inside
      // the source, so host memory holds each block once).
      GridPtr grid = runtime_->source_->load(id);
      if (!prefetch) {
        plane_.complete_load(id, std::move(grid));
      } else if (plane_.complete_prefetch(id, std::move(grid))) {
        // The piggybacked demand stalled from its request until now.
        const double waited = engine_->now() - demand_since_[id];
        demand_since_.erase(id);
        metrics.io_time += waited;
        metrics.stall_time += waited;
      } else {
        return;  // staged until a demand claims it
      }
      notify_loaded(id);
    });
  }

  SimRuntime* runtime_;
  SimEngine* engine_;
  SharedDisk* disk_;
  Network* network_;
  std::map<BlockId, double> demand_since_;  // piggybacked demand times
  bool busy_ = false;
};

SimRuntime::SimRuntime(const SimRuntimeConfig& config,
                       const BlockDecomposition* decomp,
                       const BlockSource* source,
                       const IntegratorParams& iparams,
                       const TraceLimits& limits)
    : config_(config),
      decomp_(decomp),
      source_(source),
      tracer_(decomp, iparams, limits) {
  if (config_.num_ranks < 1) {
    throw std::invalid_argument("SimRuntime: num_ranks >= 1");
  }
  if (decomp_ == nullptr || source_ == nullptr) {
    throw std::invalid_argument("SimRuntime: null decomposition or source");
  }
}

SimRuntime::~SimRuntime() = default;

bool SimRuntime::rank_alive(int rank) const {
  return !fault_ || fault_->alive[static_cast<std::size_t>(rank)] != 0;
}

bool SimRuntime::all_live_finished() const {
  const bool fast = live_unfinished_ == 0;
#ifndef NDEBUG
  // Equivalence audit: the incremental counter must always agree with
  // the full-rank sweep it replaced.  Debug-only — the sweep is the
  // O(R)-per-event cost the counter exists to eliminate.
  bool sweep = true;
  for (std::size_t r = 0; r < contexts_.size(); ++r) {
    if (!rank_alive(static_cast<int>(r))) continue;
    if (!contexts_[r]->program->finished()) {
      sweep = false;
      break;
    }
  }
  assert(sweep == fast &&
         "live-unfinished counter diverged from the full-rank sweep");
#endif
  return fast;
}

void SimRuntime::refresh_finished(int rank) {
  if (!rank_alive(rank)) return;  // dead ranks settled at kill time
  const char now_finished =
      contexts_[static_cast<std::size_t>(rank)]->program->finished() ? 1 : 0;
  char& cached = finished_[static_cast<std::size_t>(rank)];
  if (cached == now_finished) return;
  // finished -> unfinished happens too: recovery hand-offs re-open ranks.
  live_unfinished_ += now_finished ? -1 : 1;
  cached = now_finished;
}

void SimRuntime::kill_rank(int rank) {
  SF_INVARIANT_HOOK(checker_, on_crash(rank, engine_->now()));
  // Settle the cached finished() bit while the rank still counts as
  // live: an OOM abort unwinds past the callback-site refresh, so the
  // bit can be stale here.
  refresh_finished(rank);
  live_ranks_.erase(rank);
  if (finished_[static_cast<std::size_t>(rank)] == 0) --live_unfinished_;
  FaultState& fs = *fault_;
  fs.alive[static_cast<std::size_t>(rank)] = 0;
  fs.crash_time[static_cast<std::size_t>(rank)] = engine_->now();
  fs.stats.crash_records.push_back(
      {.rank = rank, .crash_time = engine_->now()});
  Context* c = contexts_[static_cast<std::size_t>(rank)].get();
  c->metrics.crashed = true;
  // Diagnostic: integration work that dies with the rank and will be
  // re-done from the last safe state.
  std::vector<Particle> snap;
  c->program->snapshot_particles(snap);
  for (const Particle& p : snap) {
    if (is_terminal(p.status)) continue;
    const std::uint32_t safe = fs.ledger.steps_of(p.id);
    if (p.steps > safe) fs.stats.steps_redone += p.steps - safe;
  }
}

void SimRuntime::crash_rank(int rank, bool from_oom) {
  if (!fault_ || !rank_alive(rank)) return;
  kill_rank(rank);
  if (from_oom) {
    ++fault_->stats.oom_crashes;
  } else {
    ++fault_->stats.crashes_injected;
  }
  if (config_.fault.detector == FaultConfig::Detector::kRuntime) {
    engine_->schedule_after(config_.fault.failure_detect_seconds,
                            [this, rank] { runtime_recover(rank); });
  }
  // kProgram: the hybrid master notices the missed heartbeats itself.
}

RecoveredWork SimRuntime::recover_ledger(int dead_rank, int new_owner) {
  FaultState& fs = *fault_;
  RecoveredWork work = fs.ledger.recover(dead_rank, new_owner);
  ++fs.stats.crashes_survived;
  fs.stats.particles_recovered += work.active.size();
  fs.stats.time_to_recovery +=
      engine_->now() - fs.crash_time[static_cast<std::size_t>(dead_rank)];
  // Stamp the dead rank's latest crash record.
  auto& records = fs.stats.crash_records;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->rank != dead_rank) continue;
    if (it->detect_time < 0.0) it->detect_time = engine_->now();
    if (it->recover_time < 0.0) it->recover_time = engine_->now();
    break;
  }
  return work;
}

void SimRuntime::runtime_recover(int dead_rank) {
  // Successor: the next live rank after the dead one in cyclic order —
  // one ordered-set lookup, not a scan of every rank.
  if (live_ranks_.empty()) return;  // everything died; the run quiesces
  auto next = live_ranks_.upper_bound(dead_rank);
  const int succ = next != live_ranks_.end() ? *next : *live_ranks_.begin();

  FaultState& fs = *fault_;
  RecoveredWork work = recover_ledger(dead_rank, succ);

  // Termination accounting first: if handing the particles over aborts
  // the run (successor OOM), the global count must already be settled.
  // The ledger's per-rank recount goes to the lowest live rank — the
  // acting counter.  When the dead rank *was* the counter, this is the
  // wake-up that seeds the successor's high-water board; max-merging
  // makes it a no-op in every other case beyond the dead rank's entry.
  {
    const int counter = *live_ranks_.begin();
    Context* c = contexts_[static_cast<std::size_t>(counter)].get();
    Message m;
    m.from = dead_rank;
    m.payload = TerminationCount{fs.ledger.logged_totals()};
    c->program->on_message(*c, std::move(m));
    refresh_finished(counter);
  }
  if (!work.active.empty()) {
    fs.ledger.on_send(work.active, succ);
    // Direct hand-off past the message plane: the checker sees it as a
    // recovery re-owning, not a send/deliver pair.
    SF_INVARIANT_HOOK(
        checker_, on_recover(dead_rank, succ, work.active, engine_->now()));
    Context* s = contexts_[static_cast<std::size_t>(succ)].get();
    Message m;
    m.from = dead_rank;
    m.payload = ParticleBatch{kInvalidBlock, std::move(work.active)};
    s->program->on_message(*s, std::move(m));
    refresh_finished(succ);
  }
}

RecoveredWork SimRuntime::recover_for(int recoverer, int dead_rank) {
  if (!fault_) return {};
  FaultState& fs = *fault_;
  if (rank_alive(dead_rank)) {
    // False positive: the detector declared a live rank dead.  Kill it
    // for real so the system state matches the detector's view (the
    // declared-dead rank must not keep computing and double-report).
    kill_rank(dead_rank);
    ++fs.stats.crashes_injected;
  }
  RecoveredWork work = recover_ledger(dead_rank, recoverer);
  SF_INVARIANT_HOOK(
      checker_,
      on_recover(dead_rank, recoverer, work.active, engine_->now()));
  return work;
}

std::vector<Particle> SimRuntime::speculate_for(int speculator,
                                                int straggler) {
  if (!fault_) return {};
  if (straggler == speculator || !rank_alive(straggler)) return {};
  FaultState& fs = *fault_;
  // One speculative re-issue per straggler: the straggler keeps whatever
  // it already holds, so re-copying would only multiply duplicate work.
  if (!fs.speculated.insert(straggler).second) return {};
  std::vector<Particle> copies = fs.ledger.peek_owned(straggler);
  ++fs.stats.stragglers_flagged;
  auto it = fs.slowdown_time.find(straggler);
  if (it != fs.slowdown_time.end()) {
    // Detection latency only counts flags that answer a real injected
    // slowdown; a false positive has no onset to measure from.
    fs.stats.straggler_detect_latency += engine_->now() - it->second;
    fs.slowdown_time.erase(it);
  }
  fs.stats.particles_speculated += copies.size();
  for (const Particle& p : copies) {
    fs.speculated_at_steps.emplace(p.id, p.steps);
  }
  SF_INVARIANT_HOOK(
      checker_,
      on_speculate(straggler, speculator, copies, engine_->now()));
  return copies;
}

void SimRuntime::fault_send(int from, int to, SimTime arrive,
                            std::size_t bytes, Message msg) {
  FaultState& fs = *fault_;

  // Snoop the payload into the ledger at send time: once a particle is on
  // the wire its state is considered safely logged at the sender.
  BlockId block = kInvalidBlock;
  const std::vector<Particle>* particles = particle_payload(msg, block);
  const bool carries_particles = particles != nullptr && !particles->empty();
  if (carries_particles) fs.ledger.on_send(*particles, to);

  // Particle-bearing messages keep the drop -> Undeliverable-bounce
  // semantics: the payload must not be duplicated, so the sender is told
  // and re-routes.  Everything else is control traffic and goes through
  // the sequenced at-least-once transport below — same lossy link, but
  // retransmit-repaired and receiver-deduped.
  if (!carries_particles) {
    control_send(from, to, arrive, bytes, std::move(msg));
    return;
  }

  if (fs.injector.draw_message_drop()) {
    ++fs.stats.messages_dropped;
    engine_->schedule_at(arrive, [this, to, m = std::move(msg)]() mutable {
      bounce_undeliverable(to, std::move(m));
    });
    return;
  }

  engine_->schedule_at(arrive, [this, to, bytes, m = std::move(msg)]() mutable {
    deliver(to, bytes, std::move(m));
  });
}

void SimRuntime::control_send(int from, int to, SimTime arrive,
                              std::size_t bytes, Message msg) {
  FaultState& fs = *fault_;
  const LinkKey link{from, to};
  const std::uint32_t seq = ++fs.ctrl_next_seq[link];
  msg.ctrl_seq = seq;
  PendingControl& pc = fs.ctrl_pending[link][seq];
  pc.bytes = bytes;
  pc.msg = std::move(msg);
  pc.rto = config_.fault.control_rto;
  transmit_control(from, to, seq, arrive);
}

void SimRuntime::transmit_control(int from, int to, std::uint32_t seq,
                                  SimTime arrive) {
  FaultState& fs = *fault_;
  const LinkKey link{from, to};
  auto lit = fs.ctrl_pending.find(link);
  if (lit == fs.ctrl_pending.end()) return;
  auto pit = lit->second.find(seq);
  if (pit == lit->second.end()) return;  // acked meanwhile
  PendingControl& pc = pit->second;

  if (fs.injector.draw_message_drop()) {
    ++fs.stats.messages_dropped;
  } else {
    engine_->schedule_at(
        arrive, [this, from, to, bytes = pc.bytes, m = pc.msg]() mutable {
          if (!fault_) return;
          deliver_control(from, to, bytes, std::move(m));
        });
  }

  // Arm the retransmit check whether or not this attempt was dropped; an
  // arriving ack clears the pending entry and turns the check into a
  // no-op.
  const double rto = pc.rto;
  engine_->schedule_at(arrive + rto, [this, from, to, seq] {
    if (!fault_) return;
    auto lit2 = fault_->ctrl_pending.find(LinkKey{from, to});
    if (lit2 == fault_->ctrl_pending.end()) return;
    auto pit2 = lit2->second.find(seq);
    if (pit2 == lit2->second.end()) return;  // acked
    // Abandon when the peer is dead (failover recovers the content), the
    // sender itself died, or the run is over — this is what lets a lossy
    // run quiesce instead of retransmitting forever.
    if (!rank_alive(to) || !rank_alive(from) || all_live_finished() ||
        pit2->second.attempts >= config_.fault.control_max_retries) {
      lit2->second.erase(pit2);
      return;
    }
    PendingControl& p = pit2->second;
    ++p.attempts;
    p.rto = std::min(p.rto * 2.0, config_.fault.control_rto_cap);
    ++fault_->stats.control_retransmits;
    contexts_[static_cast<std::size_t>(from)]->charge_send(p.bytes);
    transmit_control(from, to, seq,
                     network_->delivery_time(engine_->now(), p.bytes));
  });
}

void SimRuntime::deliver_control(int from, int to, std::size_t bytes,
                                 Message msg) {
  FaultState& fs = *fault_;
  if (!rank_alive(to)) return;  // sender's retransmit check will give up
  // Ack every arrival, duplicates included: the ack for the first copy
  // may itself have been dropped, and re-acking is what stops the
  // retransmit stream.
  send_control_ack(to, from, msg.ctrl_seq);
  if (all_live_finished()) return;  // late retransmit after the run ended
  DedupWindow& win = fs.ctrl_dedup[LinkKey{from, to}];
  const std::uint32_t seq = msg.ctrl_seq;
  if (seq <= win.low_water || win.seen.count(seq) != 0) {
    ++fs.stats.control_duplicates;
    return;
  }
  win.seen.insert(seq);
  while (win.seen.count(win.low_water + 1) != 0) {
    win.seen.erase(win.low_water + 1);
    ++win.low_water;
  }
  SF_INVARIANT_HOOK(checker_,
                    on_dedup_window(from, to, win.low_water, engine_->now()));
  deliver(to, bytes, std::move(msg));
}

void SimRuntime::send_control_ack(int acker, int sender, std::uint32_t seq) {
  FaultState& fs = *fault_;
  Message ack;
  ack.from = acker;
  ack.payload = ControlAck{seq};
  const std::size_t bytes = message_bytes(ack, config_.carry_geometry);
  contexts_[static_cast<std::size_t>(acker)]->charge_send(bytes);
  // Acks draw from the same lossy link but are never retransmitted: a
  // lost ack just provokes one more (deduped) retransmit of the data.
  if (fs.injector.draw_message_drop()) {
    ++fs.stats.messages_dropped;
    return;
  }
  const SimTime arrive = network_->delivery_time(engine_->now(), bytes);
  engine_->schedule_at(arrive, [this, acker, sender, seq] {
    if (!fault_) return;
    auto lit = fault_->ctrl_pending.find(LinkKey{sender, acker});
    if (lit == fault_->ctrl_pending.end()) return;
    lit->second.erase(seq);
  });
}

void SimRuntime::deliver(int to, std::size_t bytes, Message msg) {
  if (!rank_alive(to)) {
    bounce_undeliverable(to, std::move(msg));
    return;
  }
  Context* dest = contexts_[static_cast<std::size_t>(to)].get();
  dest->metrics.comm_time += network_->endpoint_cost(bytes);
  dest->metrics.bytes_received += bytes;
  SF_INVARIANT_HOOK(checker_, on_deliver(to, msg, engine_->now()));
  dest->program->on_message(*dest, std::move(msg));
  refresh_finished(to);
}

void SimRuntime::bounce_undeliverable(int intended, Message msg) {
  // Extract the particle payload; particle-free messages just vanish —
  // control traffic reaching a dead rank is abandoned by the sender's
  // retransmit check, and anything the dead rank knew is reconstructed
  // through the failover recount.
  BlockId block = kInvalidBlock;
  std::vector<Particle>* payload = particle_payload(msg, block);
  if (payload == nullptr || payload->empty()) return;
  std::vector<Particle> particles = std::move(*payload);

  // Return to sender; if the sender itself is gone, to the lowest live
  // rank — every program treats an Undeliverable it did not originate as
  // adopted work.
  int back = msg.from;
  if (back < 0 || !rank_alive(back)) {
    if (live_ranks_.empty()) return;  // everything died
    back = *live_ranks_.begin();
  }

  fault_->ledger.on_send(particles, back);
  Message nm;
  nm.from = intended;
  nm.payload = Undeliverable{intended, block, std::move(particles)};
  const std::size_t nbytes = message_bytes(nm, config_.carry_geometry);
  const SimTime arrive = network_->delivery_time(engine_->now(), nbytes);
  engine_->schedule_at(arrive,
                       [this, back, nbytes, m = std::move(nm)]() mutable {
                         deliver(back, nbytes, std::move(m));
                       });
}

void SimRuntime::checkpoint_tick() {
  FaultState& fs = *fault_;
  // Refresh the ledger with every live rank's in-memory particles so the
  // snapshot reflects "now", not just the last communication.  The
  // scratch vector is a member: its capacity survives across ticks.
  std::vector<Particle>& snap = snapshot_scratch_;
  for (const int r : live_ranks_) {
    snap.clear();
    contexts_[static_cast<std::size_t>(r)]->program->snapshot_particles(snap);
    fs.ledger.refresh(r, snap);
  }

  auto ck = std::make_shared<Checkpoint>(
      fs.ledger.to_checkpoint(engine_->now(), config_.num_ranks));
  ck->algorithm = config_.fault.algorithm_tag;
  ck->dataset_hash = config_.fault.dataset_hash;
  ck->ranks.reserve(static_cast<std::size_t>(config_.num_ranks));
  for (int r = 0; r < config_.num_ranks; ++r) {
    CheckpointRankState rs;
    rs.rank = r;
    rs.alive = rank_alive(r);
    if (rs.alive) {
      rs.resident =
          contexts_[static_cast<std::size_t>(r)]->resident_blocks();
    }
    ck->ranks.push_back(std::move(rs));
  }

  // Checkpoint cost model: the ledger snapshot is written through the
  // shared filesystem asynchronously (no rank blocks on it), but the
  // write burns I/O service time that is attributed evenly to the live
  // ranks and reported as overhead.
  const double cost = config_.model.io_service_seconds(checkpoint_bytes(*ck));
  if (!live_ranks_.empty()) {
    const double share = cost / static_cast<double>(live_ranks_.size());
    for (const int r : live_ranks_) {
      contexts_[static_cast<std::size_t>(r)]->metrics.checkpoint_seconds +=
          share;
    }
  }
  fs.stats.checkpoint_overhead += cost;
  ++fs.stats.checkpoints_taken;
  fs.last_checkpoint = ck;
  // A checkpoint is a global consistency point: every seeded streamline
  // must still be done or reachable.
  SF_INVARIANT_HOOK(checker_, audit(engine_->now()));
  if (!config_.fault.checkpoint_path.empty()) {
    write_checkpoint(config_.fault.checkpoint_path, *ck);
  }
}

void SimRuntime::schedule_checkpoint(double at) {
  engine_->schedule_at(at, [this, at] {
    if (all_live_finished()) return;  // run is over; let the queue drain
    checkpoint_tick();
    schedule_checkpoint(at + config_.fault.checkpoint_interval);
  });
}

RunMetrics SimRuntime::run(const ProgramFactory& factory) {
  SimEngine engine;
  // Pre-size the event heap: steady state carries a handful of in-flight
  // events per rank (messages, disk completions, ticks); reserving here
  // means schedule() never reallocates mid-run until an unusual burst.
  engine.reserve_events(64 + 16 * static_cast<std::size_t>(config_.num_ranks));
  SharedDisk disk(config_.model, config_.model.io_channels);
  Network network(config_.model);
  engine_ = &engine;
  network_ = &network;
  timeline_ = config_.record_timeline
                  ? std::make_shared<Timeline>(config_.num_ranks)
                  : nullptr;

  contexts_.clear();
  contexts_.reserve(static_cast<std::size_t>(config_.num_ranks));
  for (int r = 0; r < config_.num_ranks; ++r) {
    auto ctx = std::make_unique<Context>(this, &engine, &disk, &network, r);
    ctx->program = factory(r, config_.num_ranks);
    contexts_.push_back(std::move(ctx));
  }

  // Seed the O(1) quiescence state: all ranks live, cached finished()
  // bits from the freshly built programs.
  finished_.assign(static_cast<std::size_t>(config_.num_ranks), 0);
  live_unfinished_ = 0;
  live_ranks_.clear();
  for (int r = 0; r < config_.num_ranks; ++r) {
    live_ranks_.insert(live_ranks_.end(), r);
    const char done = contexts_[static_cast<std::size_t>(r)]->program->finished()
                          ? 1
                          : 0;
    finished_[static_cast<std::size_t>(r)] = done;
    if (done == 0) ++live_unfinished_;
  }

  std::vector<RunBoard::Rank> ranks;
  for (auto& ctx : contexts_) {
    ranks.push_back({ctx->program.get(), &ctx->plane()});
  }
  board_.begin(config_, decomp_->num_blocks(), config_.fault.enabled, ranks,
               config_.fault.presettled, checker_);

  // Query cancellation plumbing: the tracer consults the cancel set at
  // every advance; scheduled cancel events populate it mid-run.
  cancel_set_.clear();
  tracer_.set_cancel_set(&cancel_set_);
  for (const QueryCancelAt& c : config_.cancels) {
    engine.schedule_at(c.at, [this, q = c.query] { cancel_set_.cancel(q); });
  }

  fault_.reset();
  if (config_.fault.enabled) {
    fault_ = std::make_unique<FaultState>(config_.fault, config_.num_ranks);
    fault_->alive.assign(static_cast<std::size_t>(config_.num_ranks), 1);
    fault_->crash_time.assign(static_cast<std::size_t>(config_.num_ranks),
                              0.0);
    fault_->slow_factor.assign(static_cast<std::size_t>(config_.num_ranks),
                               1.0);
    fault_->immune.insert(config_.fault.immune_ranks.begin(),
                          config_.fault.immune_ranks.end());
    // Seed the ledger: already-terminal particles (rejected seeds, a
    // restart's done list), then every rank's initial work.
    fault_->ledger.settle(config_.fault.presettled);
    std::vector<Particle> snap;
    for (int r = 0; r < config_.num_ranks; ++r) {
      snap.clear();
      contexts_[static_cast<std::size_t>(r)]->program->snapshot_particles(
          snap);
      fault_->ledger.init_owned(r, snap);
    }
  }

  // Kick every program off at t = 0 (in rank order, deterministically).
  for (auto& ctx : contexts_) {
    engine.schedule_at(0.0, [this, c = ctx.get()] {
      c->program->start(*c);
      refresh_finished(c->rank());
    });
  }

  if (fault_) {
    for (const CrashEvent& ev : fault_->injector.crash_schedule()) {
      engine.schedule_at(ev.time, [this, rank = ev.rank] {
        if (all_live_finished()) return;  // run already over
        crash_rank(rank, /*from_oom=*/false);
      });
    }
    for (const SlowdownEvent& ev : fault_->injector.slowdown_schedule()) {
      engine.schedule_at(ev.time, [this, ev] {
        if (all_live_finished()) return;  // run already over
        if (!rank_alive(ev.rank)) return;
        fault_->slow_factor[static_cast<std::size_t>(ev.rank)] = ev.factor;
        fault_->slowdown_time.emplace(ev.rank, engine_->now());
        ++fault_->stats.slowdowns_injected;
      });
    }
    if (config_.fault.checkpoint_interval > 0.0) {
      schedule_checkpoint(config_.fault.checkpoint_interval);
    }
  }

  RunMetrics run_metrics;
  run_metrics.num_ranks = config_.num_ranks;
  // Quiescence time of a cancel-bearing fault-free run: a deadline cancel
  // scheduled past completion still fires (and advances engine.now()), but
  // must not stretch the reported wall clock — same trailing-event rule
  // the fault plane applies through done_time.
  double quiesce_time = -1.0;
  for (;;) {
    try {
      if (!engine.step()) break;
    } catch (const SimAbort& abort) {
      // A rank blew its memory budget.  Under fault injection any rank's
      // OOM is a recoverable crash (coordinators included, since
      // failover); only an explicitly immune rank still fails the run.
      const int r = abort.rank;
      if (fault_ && r >= 0 && rank_alive(r) &&
          fault_->immune.count(r) == 0) {
        crash_rank(r, /*from_oom=*/true);
        continue;
      }
      // The abort unwound past a callback-site refresh, and the thrower
      // may not name its rank: resync every cached bit once (O(R) on a
      // failed run only) so post-run accounting stays consistent.
      for (int rr = 0; rr < config_.num_ranks; ++rr) refresh_finished(rr);
      run_metrics.failed_oom = true;
      run_metrics.failed_fault = fault_ != nullptr;
      run_metrics.abort_reason = abort.what();
      break;
    }
    if (fault_) {
      if (all_live_finished()) {
        if (fault_->done_time < 0.0) fault_->done_time = engine.now();
      } else {
        fault_->done_time = -1.0;  // a recovery re-opened some rank
      }
    } else if (!config_.cancels.empty()) {
      if (all_live_finished()) {
        if (quiesce_time < 0.0) quiesce_time = engine.now();
      } else {
        quiesce_time = -1.0;  // a late arrival re-opened some rank
      }
    }
  }
  run_metrics.wall_clock = (fault_ && fault_->done_time >= 0.0)
                               ? fault_->done_time
                               : (quiesce_time >= 0.0 ? quiesce_time
                                                      : engine.now());

  // With no immune ranks a crash (or OOM) cascade can kill every rank;
  // the vacuous "all live ranks finished" must then read as a failed
  // fault run, not a completed one — there is nobody left to finish the
  // remaining streamlines.
  const bool any_alive = fault_ == nullptr || !live_ranks_.empty();
  if (fault_) {
    if (!any_alive) {
      run_metrics.failed_fault = true;
      if (fault_->stats.oom_crashes > 0) run_metrics.failed_oom = true;
      run_metrics.abort_reason = "fault injection: every rank crashed";
    }
  }

  // Post-run quiescence reads the maintained counter; in Debug builds
  // all_live_finished() re-derives it with the full sweep and asserts
  // they agree.
  const bool all_finished = all_live_finished();
  run_metrics.ranks.reserve(contexts_.size());
  for (std::size_t r = 0; r < contexts_.size(); ++r) {
    Context* ctx = contexts_[r].get();
    if (rank_alive(static_cast<int>(r))) {
      ctx->plane().resolve_outstanding_prefetches();
    } else {
      ranks[r].plane = nullptr;  // its memory died with it
    }
    ctx->plane().sync_counters();
    run_metrics.ranks.push_back(ctx->metrics);
    if (!fault_ && !run_metrics.failed_oom) {
      ctx->program->collect_particles(run_metrics.particles);
    }
  }
  if (!fault_ && run_metrics.failed_oom) {
    // Partial results: gather whatever each rank had terminated by the
    // abort so a failed run is still diagnosable.
    for (auto& ctx : contexts_) {
      ctx->program->collect_particles(run_metrics.particles);
    }
  }
  if (fault_) {
    // The ledger is the authoritative result set: it survives crashes
    // and de-duplicates recovery re-runs.
    run_metrics.particles = fault_->ledger.terminal_particles();
    run_metrics.fault = fault_->stats;
    run_metrics.last_checkpoint = fault_->last_checkpoint;
  }
  if (!run_metrics.failed_oom && !all_finished) {
    // The event queue drained but some live program still expects work: a
    // deadlock in the algorithm (or an unrecovered fault).  Surface it.
    throw std::logic_error(
        "SimRuntime: simulation quiesced before all ranks finished");
  }
  SF_INVARIANT_HOOK(
      checker_,
      on_run_end(!run_metrics.failed_oom && any_alive, engine.now()));
  checker_.reset();
  board_.finish(run_metrics, config_.shared_blocks, ranks);
  run_metrics.timeline = std::move(timeline_);
  contexts_.clear();
  engine_ = nullptr;
  network_ = nullptr;
  return run_metrics;
}

}  // namespace sf
