#pragma once

// What both runtimes share (DESIGN.md §10.5): the settings both honour,
// the per-rank context shell around the block plane, and the run-level
// bookkeeping — building and seeding the invariant checker, the
// per-query termination board, and the result finalisation every run
// ends with.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "check/invariants.hpp"
#include "core/thread_annotations.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/metrics.hpp"
#include "runtime/rank_context.hpp"
#include "runtime/rank_block_plane.hpp"

namespace sf {

// A timed query cancellation (service control plane): at runtime time
// `at`, every still-active particle of `query` terminates as kCancelled
// at its next advance.
struct QueryCancelAt {
  std::uint32_t query = 0;
  double at = 0.0;
};

// The settings both runtimes honour; SimRuntimeConfig and
// ThreadRuntimeConfig add only their own.
struct RuntimeConfig {
  int num_ranks = 4;
  // Memory budgets and per-particle overheads; the DES also models its
  // compute, network and disk costs with it.
  MachineModel model{};
  // LRU capacity per rank, in blocks ("user defined upper bound", §5).
  std::size_t cache_blocks = 32;
  // Whether communicated particles carry their recorded trajectory
  // geometry (the paper's behaviour) or only solver state (§8's proposed
  // optimization).
  bool carry_geometry = true;
  // Which protocol's legality rules the invariant checker enforces
  // (DESIGN.md §8).  kNone still checks conservation, cache coherence
  // and termination accounting.  Only meaningful in builds with
  // SF_CHECK_INVARIANTS; Release runs ignore it entirely.
  CheckedProtocol checked_protocol = CheckedProtocol::kNone;
  // Hybrid layout input for the protocol model (ranks [0, n) are masters;
  // with a tree layout ranks [0, num_roots) of them are the root tier).
  int checker_num_masters = 0;
  int checker_num_roots = 0;
  // Asynchronous block I/O (DESIGN.md §10).  Off by default: the
  // synchronous path stays bit-identical to the pre-async runtime.
  // When enabled, prefetch_block() overlaps reads with compute;
  // prefetched grids wait in a staging area and only enter the LRU
  // cache (and the load count) when a demand claims them, so the
  // trajectory and load/purge accounting match the sync path exactly.
  AsyncIoConfig async_io{};
  // Cross-query cache sharing (src/service).  Non-owning; nullptr for
  // standalone runs.  At run start each rank adopts the pool's captured
  // blocks into its fresh LRU (counted as adoptions, not loads); at run
  // end the surviving ranks' residency is captured back.
  SharedBlockPool* shared_blocks = nullptr;
  // Query cancellations, applied through the tracer's cancel set.  The
  // DES fires each at its `at`.  Real threads have no deterministic
  // mid-run instant: ThreadRuntime applies them at run start and rejects
  // any with `at > 0`.
  std::vector<QueryCancelAt> cancels;
};

// The per-rank context shell both runtimes' Context classes derive from:
// the rank, the run's shared inputs and the rank's block plane, with
// every RankContext call that only reads them or forwards to the plane.
// A runtime adds its clock (now), the cost of a send, its read backend
// (request_block, prefetch_block) and its fault hooks.
class PlaneContext : public RankContext {
 public:
  // `config`, `decomp`, `tracer`, `source` and `checker` outlive the
  // context; `clock` stamps the plane's hooks.
  PlaneContext(int rank, const RuntimeConfig& config,
               const BlockDecomposition& decomp, const Tracer& tracer,
               const BlockSource& source,
               const std::unique_ptr<InvariantChecker>& checker,
               std::function<double()> clock);
  // The plane holds references to this object's metrics, and runtime
  // callbacks hold its address.
  PlaneContext(const PlaneContext&) = delete;
  PlaneContext& operator=(const PlaneContext&) = delete;

  int rank() const override { return rank_; }
  int num_ranks() const override { return config_.num_ranks; }
  const BlockDecomposition& decomposition() const override { return decomp_; }
  const Tracer& tracer() const override { return tracer_; }
  const MachineModel& model() const override { return config_.model; }

  int prefetch_capacity() const override { return plane_.prefetch_capacity(); }
  void pin_block(BlockId id) override { plane_.pin(id); }
  void unpin_block(BlockId id) override { plane_.unpin(id); }
  bool block_resident(BlockId id) const override {
    return plane_.resident(id);
  }
  bool block_pending(BlockId id) const override { return plane_.pending(id); }
  std::vector<BlockId> resident_blocks() const override {
    return plane_.resident_blocks();
  }
  const StructuredGrid* block(BlockId id) override { return plane_.block(id); }
  void charge_particle_memory(std::int64_t delta_bytes) override {
    plane_.charge_particle_memory(delta_bytes);
  }

  // For RunBoard's adoption and capture, outside the rank's handlers.
  RankBlockPlane& plane() { return plane_; }

  std::unique_ptr<RankProgram> program;
  RankMetrics metrics;

 protected:
  // The sender-side prologue of one send to `to`: stamps `from`, fires
  // the on_send hook and counts the message.  Returns its bytes, which
  // the runtime then charges and delivers.
  std::size_t stamp_send(int to, Message& msg);
  // Counts one sent message of `bytes`.
  void count_sent(std::size_t bytes, bool control);

  const int rank_;
  const RuntimeConfig& config_;
  const BlockDecomposition& decomp_;
  const Tracer& tracer_;
  const std::unique_ptr<InvariantChecker>& checker_;
  RankBlockPlane plane_;
};

class RunBoard {
 public:
  // One rank as the board sees it; a null plane marks a dead rank.
  struct Rank {
    const RankProgram* program;
    RankBlockPlane* plane;
  };

  // Builds the checker for `config` into `checker` (the runtime's slot
  // the planes' hooks read; null when compiled out) and seeds it with
  // every program's initial particles and `presettled`; takes the
  // per-query census of live seeded streamlines (deduped by id: at t = 0
  // each has exactly one owner); and warm-starts each plane from
  // `config.shared_blocks` (when set), so the first demands of an
  // overlapping query hit.
  void begin(const RuntimeConfig& config, int num_blocks, bool fault_mode,
             const std::vector<Rank>& ranks,
             const std::vector<Particle>& presettled,
             std::unique_ptr<InvariantChecker>& checker) SF_EXCLUDES(mutex_);

  // A first-time termination.  Records the query's completion when its
  // last seeded streamline ends; the checker hook fires after the lock
  // is released (checker last in the lock order).  Thread-safe.
  void note_termination(const Particle& p, double now) SF_EXCLUDES(mutex_);

  // Sorts the particles by id, moves in the completions sorted by query,
  // and captures each live rank's residency into `pool` (when set); a
  // dead rank's captured blocks are dropped.
  void finish(RunMetrics& metrics, SharedBlockPool* pool,
              const std::vector<Rank>& ranks) SF_EXCLUDES(mutex_);

 private:
  InvariantChecker* checker_ = nullptr;  // owned by the runtime
  Mutex mutex_{LockRank::kQueryBoard};
  std::map<std::uint32_t, std::uint32_t> remaining_ SF_GUARDED_BY(mutex_);
  std::map<std::uint32_t, std::uint32_t> total_ SF_GUARDED_BY(mutex_);
  std::vector<QueryCompletion> completions_ SF_GUARDED_BY(mutex_);
};

}  // namespace sf
