#include "runtime/thread_runtime.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_annotations.hpp"
#include "runtime/spsc_ring.hpp"
#include "sim/sim_engine.hpp"

namespace sf {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

// The block plane holds the rank-side block state; this class is its
// real read backend: BlockSource::load for a demand miss, and an
// AsyncBlockLoader future per prefetch.
class ThreadRuntime::Context final : public RankContext {
 public:
  Context(ThreadRuntime* runtime, int rank,
          std::chrono::steady_clock::time_point epoch,
          std::atomic<bool>* abort)
      : runtime_(runtime),
        rank_(rank),
        epoch_(epoch),
        abort_(abort),
        plane_(rank, runtime->config_.cache_blocks, runtime->config_.async_io,
               runtime->config_.model.particle_memory_bytes,
               *runtime->source_, metrics, runtime->checker_,
               [epoch] { return seconds_since(epoch); }),
        fuzz_enabled_(runtime->config_.schedule_fuzz_seed != 0) {
    // Derive a distinct per-rank stream from the shared fuzz seed.
    std::uint64_t sm = runtime->config_.schedule_fuzz_seed +
                       0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                                  rank + 1);
    fuzz_ = Rng(splitmix64(sm));
    // One SPSC lane per sender (including self-sends): each lane has
    // exactly one producer (the sender's thread) and one consumer (this
    // thread), which is the whole SPSC contract.  Slots are constructed
    // here, once — steady-state delivery allocates nothing.
    const int n = runtime->config_.num_ranks;
    inboxes_.reserve(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      inboxes_.push_back(std::make_unique<SpscChannel<Message>>(
          runtime->config_.mailbox_ring_slots));
    }
  }

  // --- RankContext -------------------------------------------------------

  int rank() const override { return rank_; }
  int num_ranks() const override { return runtime_->config_.num_ranks; }
  double now() const override { return seconds_since(epoch_); }

  const BlockDecomposition& decomposition() const override {
    return *runtime_->decomp_;
  }
  const Tracer& tracer() const override { return runtime_->tracer_; }
  const MachineModel& model() const override {
    return runtime_->config_.model;
  }

  void send(int to, Message msg) override {
    msg.from = rank_;
    SF_INVARIANT_HOOK(runtime_->checker_,
                      on_send(rank_, to, msg, seconds_since(epoch_)));
    maybe_perturb();
    const std::size_t bytes =
        message_bytes(msg, runtime_->config_.carry_geometry);
    const bool control = !std::holds_alternative<ParticleBatch>(msg.payload);
    const auto t0 = std::chrono::steady_clock::now();
    runtime_->contexts_[static_cast<std::size_t>(to)]->deliver(
        std::move(msg));
    metrics.comm_time += seconds_since(t0);
    metrics.messages_sent += 1;
    metrics.bytes_sent += bytes;
    if (control) metrics.control_messages_sent += 1;
  }

  void request_block(BlockId id) override {
    switch (plane_.demand(id)) {
      case RankBlockPlane::Demand::kResident:
        local_.push_back(id);
        return;
      case RankBlockPlane::Demand::kPending:
        return;
      case RankBlockPlane::Demand::kInFlight: {
        // Promote the prefetch to the demand queue and wait out the
        // remaining read (a partial overlap still beats a cold read).
        runtime_->loader_->request(id, /*demand=*/true);
        const auto t0 = std::chrono::steady_clock::now();
        GridPtr grid = take_prefetch(id);
        const double waited = seconds_since(t0);
        metrics.io_time += waited;
        metrics.stall_time += waited;
        if (plane_.complete_prefetch(id, std::move(grid))) {
          local_.push_back(id);
          return;
        }
        break;  // the read failed or was cancelled: read cold
      }
      case RankBlockPlane::Demand::kMiss:
        break;
    }
    maybe_perturb();
    // Real synchronous read; completion is delivered through the local
    // event queue so the program still sees it asynchronously.
    plane_.count_read(id);
    const auto t0 = std::chrono::steady_clock::now();
    GridPtr grid = runtime_->source_->load(id);
    const double waited = seconds_since(t0);
    metrics.io_time += waited;
    metrics.stall_time += waited;
    plane_.complete_load(id, std::move(grid));
    maybe_perturb();
    local_.push_back(id);
  }

  void prefetch_block(BlockId id) override {
    if (!plane_.issue_prefetch(id)) return;
    plane_.count_read(id);
    prefetches_[id] = runtime_->loader_->request(id, /*demand=*/false);
    maybe_perturb();
  }

  int prefetch_capacity() const override {
    return plane_.prefetch_capacity();
  }
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

  bool log_termination(const Particle& p) override {
    // No fault plane on the thread runtime yet: always a first-time credit.
    SF_INVARIANT_HOOK(
        runtime_->checker_,
        on_terminated(rank_, p, /*first_time=*/true, seconds_since(epoch_)));
    runtime_->board_.note_termination(p, seconds_since(epoch_));
    return true;
  }

  void begin_compute(double seconds, std::uint64_t steps) override {
    // The real work already happened inside the handler; record it and
    // queue the completion notification.
    metrics.compute_time += seconds;
    metrics.steps += steps;
    metrics.bursts += 1;
    local_.push_back(ComputeDone{});
  }

  bool busy() const override { return false; }

  void charge_particle_memory(std::int64_t delta_bytes) override {
    plane_.charge_particle_memory(delta_bytes);
  }

  // --- thread driver -------------------------------------------------------

  // Called from the sender's thread; must not touch this rank's Rng.
  // Lock-free in the steady state: a ring push plus the parking-lot
  // fence.  msg.from selects the SPSC lane, so the single-producer
  // contract is exactly "each rank sets from = its own rank", which
  // send() enforces.
  void deliver(Message msg) {
    inboxes_[static_cast<std::size_t>(msg.from)]->push(std::move(msg));
    parking_.unpark();
  }

  void thread_main() {
    try {
      program->start(*this);
      drain_local();
      while (!program->finished() && !abort_->load()) {
        poll_arrivals();
        Message msg;
        bool have = pop_mailbox(msg);
        if (!have && !abort_->load()) {
          // Announce, re-check every lane, then sleep (bounded: the
          // timeout doubles as the abort-flag poll interval, exactly
          // like the old cond-var wait).  A spurious or stale wake just
          // re-enters the outer poll loop.
          parking_.park([this] { return mailbox_nonempty(); },
                        std::chrono::milliseconds(20));
          have = pop_mailbox(msg);
        }
        if (!have) continue;
        dispatch(std::move(msg));
        drain_local();
      }
      // Every issued prefetch must be resolved before the run ends:
      // discard staged grids nobody claimed and cancel what is still in
      // flight (best effort — a read a worker already started just
      // completes into the void).
      for (const auto& inflight : prefetches_) {
        runtime_->loader_->cancel(inflight.first);
      }
      prefetches_.clear();
      plane_.resolve_outstanding_prefetches();
    } catch (const SimAbort&) {
      abort_->store(true);  // OOM: all threads wind down
    } catch (...) {
      // Anything else (an InvariantViolation, a program bug) must reach
      // the caller, not std::terminate: park it and stop every thread.
      runtime_->note_failure(std::current_exception());
    }
    plane_.sync_counters();
  }

  // Touched by the main thread only before the rank threads launch
  // (adoption) and after they join (capture).
  RankBlockPlane& plane() { return plane_; }

  std::unique_ptr<RankProgram> program;
  RankMetrics metrics;

 private:
  struct ComputeDone {};
  using LocalEvent = std::variant<BlockId, ComputeDone>;

  // Waits for the prefetch read of `id`; null if it failed or was
  // cancelled.
  GridPtr take_prefetch(BlockId id) {
    auto it = prefetches_.find(id);
    GridPtr grid;
    try {
      grid = it->second.get();
    } catch (...) {
      grid = nullptr;  // exhausted retries
    }
    prefetches_.erase(it);
    return grid;
  }

  // Hand finished background reads to the plane.  Futures are polled
  // from the rank thread only, so the cache, the staging area and the
  // checker hooks never race.
  void poll_arrivals() {
    for (auto it = prefetches_.begin(); it != prefetches_.end();) {
      const BlockId id = it->first;
      const bool ready = it->second.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready;
      ++it;  // take_prefetch erases the entry
      if (ready) plane_.complete_prefetch(id, take_prefetch(id));
    }
  }

  void dispatch(Message msg) {
    maybe_perturb();
    // Receiver-side accounting happens on the owning thread (the sender
    // must not touch this rank's metrics).
    metrics.bytes_received +=
        message_bytes(msg, runtime_->config_.carry_geometry);
    SF_INVARIANT_HOOK(runtime_->checker_,
                      on_deliver(rank_, msg, seconds_since(epoch_)));
    program->on_message(*this, std::move(msg));
  }

  void drain_local() {
    poll_arrivals();
    while (!local_.empty() && !abort_->load()) {
      // Drain the mailbox between local events so commands interleave
      // with compute, like they do under the simulator.
      for (Message msg; pop_mailbox(msg);) dispatch(std::move(msg));
      if (local_.empty()) break;
      LocalEvent ev = local_.front();
      local_.pop_front();
      if (std::holds_alternative<ComputeDone>(ev)) {
        program->on_compute_done(*this);
      } else {
        program->on_block_loaded(*this, std::get<BlockId>(ev));
      }
    }
  }

  // Pop the next message off any inbox lane, round-robin across senders
  // so one chatty peer cannot starve the others.  Consumer-thread only
  // (this rank's thread), like every SpscChannel::pop.
  bool pop_mailbox(Message& out) {
    const std::size_t n = inboxes_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lane = (next_lane_ + i) % n;
      if (inboxes_[lane]->pop(out)) {
        next_lane_ = (lane + 1) % n;
        return true;
      }
    }
    return false;
  }

  // Parking predicate: any lane with a (possibly) pending message.
  bool mailbox_nonempty() const {
    for (const auto& lane : inboxes_) {
      if (!lane->empty()) return true;
    }
    return false;
  }

  // Seeded schedule perturbation: nudge the OS scheduler at the points
  // where rank threads interact (mailboxes, the shared block source) so
  // TSan runs explore many interleavings instead of one.
  void maybe_perturb() {
    if (!fuzz_enabled_) return;
    const std::uint64_t draw = fuzz_.next_below(16);
    if (draw == 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(fuzz_.next_below(200)));
    } else if (draw < 8) {
      std::this_thread::yield();
    }
  }

  ThreadRuntime* runtime_;
  int rank_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool>* abort_;
  RankBlockPlane plane_;
  bool fuzz_enabled_;
  Rng fuzz_;
  // The loader future of each in-flight prefetch (empty when async I/O
  // is off), touched only from this rank's thread.
  std::map<BlockId, std::shared_future<GridPtr>> prefetches_;
  std::deque<LocalEvent> local_;

  // Lock-free mailbox (DESIGN.md §14): one SPSC lane per sender, an
  // eventcount to sleep on, and a round-robin drain cursor (owned by
  // this rank's thread).  unique_ptr because channels hold atomics and
  // never move once threads are live.
  std::vector<std::unique_ptr<SpscChannel<Message>>> inboxes_;
  ParkingLot parking_;
  std::size_t next_lane_ = 0;
};

ThreadRuntime::ThreadRuntime(const ThreadRuntimeConfig& config,
                             const BlockDecomposition* decomp,
                             const BlockSource* source,
                             const IntegratorParams& iparams,
                             const TraceLimits& limits)
    : config_(config),
      decomp_(decomp),
      source_(source),
      tracer_(decomp, iparams, limits) {
  if (config_.num_ranks < 1) {
    throw std::invalid_argument("ThreadRuntime: num_ranks >= 1");
  }
  if (decomp_ == nullptr || source_ == nullptr) {
    throw std::invalid_argument("ThreadRuntime: null decomposition/source");
  }
}

ThreadRuntime::~ThreadRuntime() = default;

void ThreadRuntime::note_failure(std::exception_ptr error) {
  {
    MutexLock lock(failure_mutex_);
    if (!failure_) failure_ = std::move(error);
  }
  abort_flag_->store(true);
}

RunMetrics ThreadRuntime::run(const ProgramFactory& factory) {
  const auto epoch = std::chrono::steady_clock::now();
  std::atomic<bool> abort{false};
  abort_flag_ = &abort;
  failure_ = nullptr;

  loader_.reset();
  if (config_.async_io.enabled) {
    AsyncBlockLoader::Config lcfg;
    lcfg.workers = config_.async_io.workers;
    loader_ = std::make_unique<AsyncBlockLoader>(source_, lcfg);
  }

  contexts_.clear();
  for (int r = 0; r < config_.num_ranks; ++r) {
    contexts_.push_back(
        std::make_unique<Context>(this, r, epoch, &abort));
    contexts_.back()->program = factory(r, config_.num_ranks);
  }

  std::vector<RunBoard::Rank> ranks;
  for (auto& ctx : contexts_) {
    ranks.push_back({ctx->program.get(), &ctx->plane()});
  }
  board_.begin({.protocol = config_.checked_protocol,
                 .num_ranks = config_.num_ranks,
                 .num_masters = config_.checker_num_masters,
                 .num_roots = config_.checker_num_roots,
                 .num_blocks = decomp_->num_blocks(),
                 .cache_blocks = config_.cache_blocks,
                 .fault_mode = false,
                 .track_queries = true},
                ranks, /*presettled=*/{}, config_.shared_blocks,
                checker_);
  cancel_set_.clear();
  for (std::uint32_t q : config_.cancelled_queries) cancel_set_.cancel(q);
  tracer_.set_cancel_set(&cancel_set_);

  std::vector<std::thread> threads;
  threads.reserve(contexts_.size());
  for (auto& ctx : contexts_) {
    threads.emplace_back([c = ctx.get()] { c->thread_main(); });
  }
  for (std::thread& t : threads) t.join();
  loader_.reset();  // cancels leftover queued reads, joins the workers
  abort_flag_ = nullptr;
  std::exception_ptr failure;
  {
    // The rank threads are joined, but the annotation discipline holds
    // unconditionally: the board is only ever read under its mutex.
    MutexLock lock(failure_mutex_);
    failure = std::exchange(failure_, nullptr);
  }
  if (failure) {
    checker_.reset();
    std::rethrow_exception(failure);
  }

  RunMetrics run_metrics;
  run_metrics.num_ranks = config_.num_ranks;
  run_metrics.wall_clock = seconds_since(epoch);
  run_metrics.failed_oom = abort.load();
  SF_INVARIANT_HOOK(checker_, on_run_end(!run_metrics.failed_oom,
                                         run_metrics.wall_clock));
  checker_.reset();
  for (auto& ctx : contexts_) {
    run_metrics.ranks.push_back(ctx->metrics);
    if (!run_metrics.failed_oom) {
      ctx->program->collect_particles(run_metrics.particles);
    }
  }
  // Threads joined, so the caches are quiescent for the capture.
  board_.finish(run_metrics, config_.shared_blocks, ranks);
  contexts_.clear();
  return run_metrics;
}

}  // namespace sf
