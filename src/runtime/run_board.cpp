#include "runtime/run_board.hpp"

#include <algorithm>
#include <set>
#include <utility>
#include <variant>

namespace sf {

PlaneContext::PlaneContext(int rank, const RuntimeConfig& config,
                           const BlockDecomposition& decomp,
                           const Tracer& tracer, const BlockSource& source,
                           const std::unique_ptr<InvariantChecker>& checker,
                           std::function<double()> clock)
    : rank_(rank),
      config_(config),
      decomp_(decomp),
      tracer_(tracer),
      checker_(checker),
      plane_(rank, config.cache_blocks, config.async_io,
             config.model.particle_memory_bytes, source, metrics, checker,
             std::move(clock)) {}

std::size_t PlaneContext::stamp_send([[maybe_unused]] int to, Message& msg) {
  msg.from = rank_;
  SF_INVARIANT_HOOK(checker_, on_send(rank_, to, msg, now()));
  const std::size_t bytes = message_bytes(msg, config_.carry_geometry);
  count_sent(bytes, !std::holds_alternative<ParticleBatch>(msg.payload));
  return bytes;
}

void PlaneContext::count_sent(std::size_t bytes, bool control) {
  metrics.messages_sent += 1;
  metrics.bytes_sent += bytes;
  if (control) metrics.control_messages_sent += 1;
}

void RunBoard::begin(const RuntimeConfig& config, int num_blocks,
                     bool fault_mode, const std::vector<Rank>& ranks,
                     const std::vector<Particle>& presettled,
                     std::unique_ptr<InvariantChecker>& checker) {
  checker = make_invariant_checker({.protocol = config.checked_protocol,
                                    .num_ranks = config.num_ranks,
                                    .num_masters = config.checker_num_masters,
                                    .num_roots = config.checker_num_roots,
                                    .num_blocks = num_blocks,
                                    .cache_blocks = config.cache_blocks,
                                    .fault_mode = fault_mode,
                                    .track_queries = true});
  checker_ = checker.get();
  SharedBlockPool* pool = config.shared_blocks;
  std::map<std::uint32_t, std::uint32_t> remaining;
  std::vector<Particle> snap;
  std::set<std::uint32_t> seen;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    snap.clear();
    ranks[r].program->snapshot_particles(snap);
    if (checker) checker->on_seeded(static_cast<int>(r), snap);
    for (const Particle& p : snap) {
      if (is_terminal(p.status)) continue;
      if (!seen.insert(p.id).second) continue;
      ++remaining[p.query];
    }
    if (pool != nullptr) {
      ranks[r].plane->adopt_shared(pool->blocks(static_cast<int>(r)));
    }
  }
  if (checker) checker->on_presettled(presettled);
  MutexLock lock(mutex_);
  remaining_ = remaining;
  total_ = std::move(remaining);
  completions_.clear();
  // One completion record per query, known up front.
  completions_.reserve(total_.size());
}

void RunBoard::note_termination(const Particle& p, double now) {
  {
    MutexLock lock(mutex_);
    auto it = remaining_.find(p.query);
    // Unknown queries (particles terminated by a test program that never
    // snapshot them) and already-complete queries are not obligations.
    if (it == remaining_.end() || it->second == 0 || --it->second != 0) {
      return;
    }
    completions_.push_back(QueryCompletion{p.query, now, total_[p.query]});
  }
  SF_INVARIANT_HOOK(checker_, on_query_done(p.query, now));
}

void RunBoard::finish(RunMetrics& metrics, SharedBlockPool* pool,
                      const std::vector<Rank>& ranks) {
  checker_ = nullptr;
  if (pool != nullptr) {
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      if (ranks[r].plane != nullptr) {
        pool->capture(static_cast<int>(r), ranks[r].plane->cache());
      } else {
        pool->drop(static_cast<int>(r));
      }
    }
  }
  std::sort(metrics.particles.begin(), metrics.particles.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  MutexLock lock(mutex_);
  std::sort(completions_.begin(), completions_.end(),
            [](const QueryCompletion& a, const QueryCompletion& b) {
              return a.query < b.query;
            });
  metrics.query_completions = std::move(completions_);
  completions_.clear();
}

}  // namespace sf
