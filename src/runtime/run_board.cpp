#include "runtime/run_board.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace sf {

void RunBoard::begin(const CheckerConfig& config,
                     const std::vector<Rank>& ranks,
                     const std::vector<Particle>& presettled,
                     SharedBlockPool* pool,
                     std::unique_ptr<InvariantChecker>& checker) {
  checker = make_invariant_checker(config);
  checker_ = checker.get();
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
