#pragma once

// The runtime abstraction the three algorithms are written against.
//
// A RankProgram is an event-driven state machine for one rank; a
// RankContext is what the hosting runtime (discrete-event simulator or
// real threads) provides to it.  Programs do the *real* numerical work
// synchronously inside handlers and report its modelled cost through
// begin_compute(); the runtime decides what that costs in (simulated or
// real) time.
//
// Contract:
//   * Handlers are never re-entered; the runtime serializes calls per rank.
//   * on_message / on_block_loaded may arrive while a compute burst is in
//     flight (busy() == true).  Handlers must then only mutate state and
//     may not call begin_compute(); they resume work from
//     on_compute_done().
//   * request_block() is idempotent while a load is pending; exactly one
//     on_block_loaded(id) fires per completed load (immediately for cache
//     hits).
//   * After finished() becomes true the program must not send or compute.

#include <cstdint>
#include <functional>
#include <memory>

#include "core/block_decomposition.hpp"
#include "core/dataset.hpp"
#include "core/tracer.hpp"
#include "fault/fault_config.hpp"
#include "fault/ledger.hpp"
#include "runtime/message.hpp"
#include "sim/machine_model.hpp"

namespace sf {

class RankContext {
 public:
  virtual ~RankContext() = default;

  virtual int rank() const = 0;
  virtual int num_ranks() const = 0;
  virtual double now() const = 0;

  virtual const BlockDecomposition& decomposition() const = 0;
  virtual const Tracer& tracer() const = 0;
  virtual const MachineModel& model() const = 0;

  // Asynchronous point-to-point send.
  virtual void send(int to, Message msg) = 0;

  // Fetch a block into this rank's cache; on_block_loaded(id) fires when
  // it is resident (a cache hit fires immediately, at zero I/O cost).
  virtual void request_block(BlockId id) = 0;

  // Hint that `id` will likely be needed soon.  When the runtime runs
  // with async I/O enabled it fetches the block in the background into
  // a bounded staging area; the block only enters the LRU cache — and
  // only counts as a load — when a later request_block() claims it
  // (then at zero stall).  Never fires on_block_loaded by itself, never
  // blocks, and is a silent no-op when async I/O is off, when the block
  // is already resident/pending/staged, or when staging is full.  So
  // algorithms may call it speculatively without bookkeeping.
  virtual void prefetch_block(BlockId id) { (void)id; }

  // How many prefetches this rank may usefully have in flight: the
  // configured depth under async I/O, 0 when async I/O is off.  Lets
  // algorithms size a hint batch (and skip building one entirely on
  // synchronous runs) without knowing the runtime's config.
  virtual int prefetch_capacity() const { return 0; }

  // Pin/unpin a cache block against eviction (nested).  Used via
  // Tracer's BlockPinHooks to keep the focused block of a batch round
  // resident; pin intent survives non-residency (see BlockCache::pin).
  // Default no-op keeps test fakes and simple contexts trivial.
  virtual void pin_block(BlockId id) { (void)id; }
  virtual void unpin_block(BlockId id) { (void)id; }

  virtual bool block_resident(BlockId id) const = 0;
  virtual bool block_pending(BlockId id) const = 0;

  // Blocks currently resident in this rank's cache, MRU first (what a
  // hybrid slave reports to its master).
  virtual std::vector<BlockId> resident_blocks() const = 0;

  // The cached grid (marks it most-recently-used), or nullptr.
  virtual const StructuredGrid* block(BlockId id) = 0;

  // Begin a compute burst whose real work the caller just performed.
  // `seconds` of busy time are charged; `steps` accepted integration
  // steps are recorded.  on_compute_done() fires when the burst ends.
  // Must not be called while busy().
  virtual void begin_compute(double seconds, std::uint64_t steps) = 0;
  virtual bool busy() const = 0;

  // Account resident-particle memory (positive when particles arrive or
  // grow geometry, negative when they leave or terminate).  The runtime
  // aborts the run with OOM when a rank exceeds its budget.
  virtual void charge_particle_memory(std::int64_t delta_bytes) = 0;

  // ---- Fault-tolerance hooks (no-ops outside fault injection) ----

  // The run's fault configuration when this runtime hosts a fault plane,
  // else nullptr.  The one "is this a fault run?" switch: the hybrid runs
  // its heartbeat, failover and straggler protocols only when it is set.
  virtual const FaultConfig* fault_plane() const { return nullptr; }

  // Arm a one-shot timer; on_timer() fires after `seconds`.  Used by the
  // hybrid heartbeat protocol.  Default: never fires.
  virtual void set_timer(double seconds) { (void)seconds; }

  // Liveness as known to the runtime.  Programs use this to skip dead
  // peers; outside fault injection every rank is alive.
  virtual bool is_alive(int target) const {
    (void)target;
    return true;
  }

  // Record a termination in the particle ledger.  Returns true when this
  // is the streamline's first termination anywhere (credit it toward the
  // global count), false for a duplicate re-run after a recovery.
  virtual bool log_termination(const Particle& p) {
    (void)p;
    return true;
  }

  // Reclaim a dead rank's streamlines for this rank (the caller becomes
  // responsible for advecting them and re-reporting lost termination
  // credits).  Outside fault injection there is nothing to recover.
  virtual RecoveredWork recover_rank(int dead_rank) {
    (void)dead_rank;
    return {};
  }

  // Speculatively copy a straggling (slow but alive) rank's in-progress
  // streamlines from the ledger, *without* killing the straggler or
  // transferring ownership: the straggler keeps racing its own copies,
  // the caller re-issues the returned ones to healthy ranks, and the
  // ledger's first-terminal-wins credit dedups whichever copy loses.
  // Outside fault injection there is nothing to speculate.
  virtual std::vector<Particle> speculate_rank(int straggler) {
    (void)straggler;
    return {};
  }
};

class RankProgram {
 public:
  virtual ~RankProgram() = default;

  // Called once before any other handler.
  virtual void start(RankContext& ctx) = 0;
  virtual void on_message(RankContext& ctx, Message msg) = 0;
  virtual void on_block_loaded(RankContext& ctx, BlockId id) = 0;
  virtual void on_compute_done(RankContext& ctx) = 0;

  // True when this rank will never send or compute again.
  virtual bool finished() const = 0;

  // Append this rank's terminated particles (for result gathering).
  virtual void collect_particles(std::vector<Particle>& out) const = 0;

  // ---- Fault-tolerance hooks ----

  // Fires after a set_timer() delay (hybrid heartbeats).
  virtual void on_timer(RankContext& ctx) { (void)ctx; }

  // Append every in-memory particle (pooled, queued, in flight) for a
  // checkpoint snapshot.  Terminated particles already flow through
  // log_termination and need not be included.
  virtual void snapshot_particles(std::vector<Particle>& out) const {
    (void)out;
  }
};

using ProgramFactory =
    std::function<std::unique_ptr<RankProgram>(int rank, int num_ranks)>;

}  // namespace sf
