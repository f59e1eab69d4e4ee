#pragma once

// Runtime invariant checker (DESIGN.md §8).
//
// An independent, redundant model of the global protocol state that the
// runtimes update at every observable event — seeding, sends, deliveries,
// terminations, crashes, recoveries, cache traffic — and that throws a
// structured InvariantViolation the moment the system departs from the
// paper's contract:
//
//   * Particle conservation — every seeded streamline is, at every event,
//     accounted for exactly once across the done / rank-resident /
//     in-flight sets (fault mode relaxes "exactly once" to "at least one
//     live replica or recoverable", since sender-based message logging
//     deliberately creates duplicates across recoveries).
//   * Message-protocol legality — a per-rank state machine validates that
//     the hybrid master rules, static-allocation routing and
//     load-on-demand silence never emit an illegal edge: no payload kind
//     on a link the protocol does not use, no particle send by a rank
//     that does not hold the particle (double-assign), no particle-
//     bearing send after a rank was told to terminate, and Undeliverable
//     bounces always re-owned by a live rank.
//   * Block-cache coherence — an independent LRU re-implementation is
//     replayed against every insert/touch; residency must never exceed
//     cache_blocks and must match the checker's ledger exactly.
//   * Single-fire termination — the terminate broadcast (DoneSignal /
//     kTerminate) fires at most once per destination, and only when the
//     checker's own count of undone streamlines is zero.
//
// The checker compiles in only under SF_CHECK_INVARIANTS (CMake option
// STREAMFLOW_CHECK_INVARIANTS, default ON for Debug builds and CI, OFF
// for Release).  Call sites go through the SF_INVARIANT_HOOK macro, which
// expands to nothing when the checker is compiled out, so Release builds
// pay zero cost — not even a null-pointer test.
//
// The class itself is always declared (tests and tooling can name it);
// only construction and the hook expansion are gated.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/block_decomposition.hpp"
#include "core/particle.hpp"
#include "core/thread_annotations.hpp"
#include "runtime/message.hpp"

namespace sf {

// Which protocol's legality rules to enforce.  kNone still checks
// conservation, cache coherence and termination accounting — it is what
// runtimes use when driven by a hand-built factory (unit tests).
enum class CheckedProtocol : std::uint8_t {
  kNone = 0,
  kStaticAllocation,
  kLoadOnDemand,
  kHybrid,
};

struct CheckerConfig {
  CheckedProtocol protocol = CheckedProtocol::kNone;
  int num_ranks = 0;
  // Hybrid layout (ranks [0, num_masters) are masters); 0 outside hybrid.
  int num_masters = 0;
  // Hybrid tree layout: ranks [0, num_roots) of the masters are the root
  // tier (no slave groups; they aggregate boards and broker seeds).
  // 0 models the flat single-tier layout.
  int num_roots = 0;
  // Static-allocation routing table inputs; 0 disables routing checks.
  int num_blocks = 0;
  // Per-rank LRU capacity mirrored by the cache-coherence model.
  std::size_t cache_blocks = 0;
  // Fault injection on: replicas and duplicate terminations are legal,
  // and conservation tracks "at least one safe copy" instead of
  // "exactly one copy".
  bool fault_mode = false;
  // Per-query accounting on: the runtime fires on_query_done exactly when
  // a query's last seeded streamline terminates, and the checker enforces
  // single-fire, non-premature, non-missing completion per query.  Off
  // for checkers driven directly by tests that predate query tracking.
  bool track_queries = false;
};

// What went wrong, in machine-readable form.
enum class ViolationKind : std::uint8_t {
  kConservation,        // seeded != done + active + in-flight
  kDoubleAssign,        // a rank sent a particle it does not hold
  kPhantomDelivery,     // a delivery with no matching in-flight copy
  kPhantomTermination,  // a rank terminated a particle it does not hold
  kDuplicateTermination,  // first-time credit for an already-done particle
  kLostParticle,        // run ended with a seeded streamline unaccounted
  kCacheOverflow,       // residency exceeded cache_blocks
  kCacheMismatch,       // residency diverged from the checker's LRU ledger
  kIllegalMessage,      // payload kind on a link the protocol forbids
  kPrematureTermination,  // terminate broadcast while streamlines undone
  kDoubleTermination,   // a second terminate broadcast to the same rank
  kSendAfterFinish,     // particle-bearing send after terminate received
  kPinnedPurge,         // a pinned block left the cache
  kPrefetchState,       // illegal prefetch transition (issue/stage/claim)
  kUnresolvedPrefetch,  // run ended with a prefetch neither claimed,
                        // discarded nor cancelled
  kDedupRegression,     // a control link's dedup low-water mark moved back
  kQueryDoneDouble,     // a second query-done fire for the same query
  kQueryDonePremature,  // query-done fired with seeded streamlines undone
  kQueryDoneMissing,    // run completed without a query-done fire
};

const char* to_string(ViolationKind k);

// The structured diagnostic carried by every violation.
struct InvariantDiagnostic {
  ViolationKind kind = ViolationKind::kConservation;
  int rank = -1;                     // rank the event happened on
  double when = 0.0;                 // event time (simulated or wall)
  std::uint32_t particle = kNoParticle;  // offending streamline, if any
  BlockId block = kInvalidBlock;     // offending block, if any
  std::string detail;                // human-readable specifics

  static constexpr std::uint32_t kNoParticle = 0xffffffffu;
};

class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(InvariantDiagnostic diag);
  const InvariantDiagnostic& diag() const { return diag_; }

 private:
  InvariantDiagnostic diag_;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(const CheckerConfig& config);

  // --- lifecycle ---------------------------------------------------------

  // Rank `rank` starts the run holding `particles` (initial seeds).
  void on_seeded(int rank, const std::vector<Particle>& particles)
      SF_EXCLUDES(mutex_);

  // Particles terminal before the run starts (rejected seeds, a restart
  // checkpoint's done list): done, owned by nobody.
  void on_presettled(const std::vector<Particle>& particles)
      SF_EXCLUDES(mutex_);

  // Run over.  `completed` is false for aborted runs (OOM, unrecoverable
  // fault), where partial state is expected and only consistency — not
  // completeness — is checked.
  void on_run_end(bool completed, double now) SF_EXCLUDES(mutex_);

  // --- message plane ------------------------------------------------------

  void on_send(int from, int to, const Message& msg, double now)
      SF_EXCLUDES(mutex_);
  void on_deliver(int to, const Message& msg, double now) SF_EXCLUDES(mutex_);

  // --- particle lifecycle -------------------------------------------------

  // `first_time` is the ledger's verdict (always true outside fault mode).
  void on_terminated(int rank, const Particle& p, bool first_time,
                     double now) SF_EXCLUDES(mutex_);

  // --- query plane ---------------------------------------------------------

  // The runtime believes `query`'s last seeded streamline just terminated.
  // Cross-checked against the checker's own per-query seeded/done counts:
  // a double fire or a fire with undone streamlines is a violation.
  void on_query_done(std::uint32_t query, double now) SF_EXCLUDES(mutex_);

  // --- fault plane --------------------------------------------------------

  void on_crash(int rank, double now) SF_EXCLUDES(mutex_);
  void on_recover(int dead_rank, int new_owner,
                  const std::vector<Particle>& particles, double now)
      SF_EXCLUDES(mutex_);

  // Speculative re-issue (gray failures): `speculator` took ledger copies
  // of `straggler`'s live streamlines without killing the straggler.  The
  // speculator becomes an extra legal holder of each copy — fault-mode
  // multi-residency — so its later re-assign send is not a double-assign.
  // Only legal in fault mode, on live ranks, for undone streamlines the
  // straggler still holds.
  void on_speculate(int straggler, int speculator,
                    const std::vector<Particle>& particles, double now)
      SF_EXCLUDES(mutex_);

  // --- reliable control transport ------------------------------------------

  // The receiver-side dedup window of one control link advanced (or at
  // least compacted).  The low-water mark must never move backwards: a
  // regression would re-open the window to sequence numbers already
  // delivered, breaking exactly-once dispatch.
  void on_dedup_window(int from, int to, std::uint32_t low_water, double now)
      SF_EXCLUDES(mutex_);

  // --- block-cache coherence ----------------------------------------------

  // A block became resident on `rank`; `actual` is the cache's full
  // resident list (MRU first) after the insert.
  void on_block_insert(int rank, BlockId id,
                       const std::vector<BlockId>& actual, double now)
      SF_EXCLUDES(mutex_);
  // A resident block was looked up (touches LRU recency).
  void on_block_touch(int rank, BlockId id) SF_EXCLUDES(mutex_);
  // Pin/unpin replay: the model's eviction skips pinned ids, and a
  // cache that exceeds capacity while an unpinned victim exists — or
  // that drops a pinned block — is a violation.  `actual` is the
  // resident list after the unpin (whose deferred eviction may purge).
  void on_block_pin(int rank, BlockId id) SF_EXCLUDES(mutex_);
  void on_block_unpin(int rank, BlockId id,
                      const std::vector<BlockId>& actual, double now)
      SF_EXCLUDES(mutex_);

  // --- async prefetch state machine ----------------------------------------

  // A prefetch may be: issued -> staged -> claimed (promoted into the
  // cache by a demand) or discarded; issued -> claimed directly (a
  // demand piggybacked on the in-flight read); or issued/staged ->
  // cancelled (abandoned, failed, evicted from staging, or rank
  // termination/crash).  Every issued prefetch must leave the state
  // machine by run end.
  void on_prefetch_issued(int rank, BlockId id, double now) SF_EXCLUDES(mutex_);
  void on_prefetch_staged(int rank, BlockId id, double now) SF_EXCLUDES(mutex_);
  void on_prefetch_claimed(int rank, BlockId id, double now)
      SF_EXCLUDES(mutex_);
  void on_prefetch_cancelled(int rank, BlockId id, double now)
      SF_EXCLUDES(mutex_);

  // --- audit --------------------------------------------------------------

  // Full conservation sweep: every seeded streamline done or reachable.
  // Cheap enough to run at checkpoint ticks; on_run_end runs it too.
  void audit(double now) const SF_EXCLUDES(mutex_);

  std::size_t seeded() const SF_EXCLUDES(mutex_);
  std::size_t done() const SF_EXCLUDES(mutex_);

 private:
  struct ParticleState {
    std::map<int, int> holders;  // rank -> live replica count
    int in_flight = 0;           // copies on the wire
    int recoverable = 0;         // copies lost to a crash, ledger-restorable
    bool done = false;           // first termination credited
    std::uint32_t query = 0;     // owning query, recorded at seeding
  };

  // Per-query termination accounting (multi-query service runs).
  struct QueryAccount {
    std::size_t seeded = 0;  // live streamlines seeded under this query
    std::size_t done = 0;    // first-time terminations credited
    bool fired = false;      // on_query_done observed
  };

  struct RankState {
    bool crashed = false;
    bool finish_sent = false;     // a terminate broadcast targeted this rank
    bool told_to_finish = false;  // received DoneSignal / kTerminate
    // Independent LRU model: front = most recently used.
    std::list<BlockId> lru;
    // Pin intent (id -> nested count), mirroring BlockCache::pin.
    std::map<BlockId, int> pins;
    // Prefetch state machine: issued-but-not-yet-staged and staged sets.
    std::map<BlockId, char> prefetches;  // 'i' in flight, 's' staged
  };

  [[noreturn]] void fail(InvariantDiagnostic diag) const SF_REQUIRES(mutex_);
  void check_protocol(int from, int to, const Message& msg, double now)
      SF_REQUIRES(mutex_);
  // The acting termination counter / failover successor under the current
  // crash set: the lowest live rank (the hybrid's masters hold the lowest
  // ranks, so a slave only once every master is dead).  Mirrors the
  // programs' lowest_live_rank.
  int acting_counter() const SF_REQUIRES(mutex_);
  void take_from_holder(int rank, const Particle& p, double now,
                        ViolationKind kind) SF_REQUIRES(mutex_);
  void note_finish_broadcast(int from, int to, double now)
      SF_REQUIRES(mutex_);
  // Replay the cache's pinned-aware eviction on the model LRU, then
  // compare against `actual`.
  void replay_eviction_and_compare(int rank, RankState& rs, BlockId id,
                                   const std::vector<BlockId>& actual,
                                   double now, const char* what)
      SF_REQUIRES(mutex_);
  // The particle payload of a message (empty for pure control traffic).
  static const std::vector<Particle>* payload_particles(const Message& msg);
  void audit_locked(double now) const SF_REQUIRES(mutex_);

  CheckerConfig config_;
  // ThreadRuntime hooks race; SimRuntime won't.  Last in the lock order
  // (LockRank::kChecker): every hook is called with no other sf::Mutex
  // held, so a hook can never deadlock against the runtime's own locks.
  mutable Mutex mutex_{LockRank::kChecker};
  std::map<std::uint32_t, ParticleState> particles_ SF_GUARDED_BY(mutex_);
  std::vector<RankState> ranks_ SF_GUARDED_BY(mutex_);
  // Per-(from,to) control-link dedup low-water marks (monotonicity).
  std::map<std::pair<int, int>, std::uint32_t> dedup_low_
      SF_GUARDED_BY(mutex_);
  std::map<std::uint32_t, QueryAccount> queries_ SF_GUARDED_BY(mutex_);
  std::size_t done_count_ SF_GUARDED_BY(mutex_) = 0;
  // Holders + in_flight over all particles.
  std::size_t live_copies_ SF_GUARDED_BY(mutex_) = 0;
};

// Factory used by the runtimes: returns a live checker when the build
// compiles the checker in, nullptr otherwise (so Release call sites that
// do test the pointer still short-circuit).
std::unique_ptr<InvariantChecker> make_invariant_checker(
    const CheckerConfig& config);

}  // namespace sf

// Hook macro: expands to a guarded call when the checker is compiled in,
// and to nothing at all otherwise.
#if SF_CHECK_INVARIANTS
#define SF_INVARIANT_HOOK(checker, call) \
  do {                                   \
    if (checker) (checker)->call;        \
  } while (0)
#else
#define SF_INVARIANT_HOOK(checker, call) \
  do {                                   \
  } while (0)
#endif
