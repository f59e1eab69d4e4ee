#include "runtime/rank_block_plane.hpp"

#include <algorithm>
#include <string>

#include "sim/sim_engine.hpp"

namespace sf {

RankBlockPlane::RankBlockPlane(
    int rank, std::size_t cache_blocks, const AsyncIoConfig& async_io,
    std::size_t particle_memory_bytes, const BlockSource& source,
    RankMetrics& metrics, const std::unique_ptr<InvariantChecker>& checker,
    std::function<double()> clock)
    : rank_(rank),
      async_io_(async_io),
      particle_memory_bytes_(particle_memory_bytes),
      source_(source),
      metrics_(metrics),
      checker_(checker),
      clock_(std::move(clock)),
      cache_(cache_blocks) {}

RankBlockPlane::Demand RankBlockPlane::demand(BlockId id) {
  if (cache_.contains(id)) return Demand::kResident;
  if (pending(id)) return Demand::kPending;  // coalesce duplicates
  // A staged prefetch is promoted into the cache at the moment of demand:
  // that is when the load "happens" for LRU order and the E-metric, so
  // the accounting matches the sync path and the stall is zero.
  auto st = std::find_if(staged_.begin(), staged_.end(),
                         [id](const auto& s) { return s.first == id; });
  if (st != staged_.end()) {
    GridPtr grid = std::move(st->second);
    staged_.erase(st);
    claim(id, std::move(grid));
    return Demand::kResident;
  }
  pending_.insert(id);
  return inflight_.count(id) != 0 ? Demand::kInFlight : Demand::kMiss;
}

std::size_t RankBlockPlane::count_read(BlockId id) {
  const std::size_t bytes = source_.block_bytes(id);
  metrics_.bytes_read += bytes;
  return bytes;
}

void RankBlockPlane::complete_load(BlockId id, GridPtr grid) {
  cache_.insert(id, std::move(grid));
  SF_INVARIANT_HOOK(checker_,
                    on_block_insert(rank_, id, cache_.resident(), clock_()));
  pending_.erase(id);
}

bool RankBlockPlane::issue_prefetch(BlockId id) {
  if (!async_io_.enabled || cache_.contains(id) || pending(id) ||
      inflight_.count(id) != 0 ||
      std::any_of(staged_.begin(), staged_.end(),
                  [id](const auto& s) { return s.first == id; })) {
    return false;
  }
  if (inflight_.size() >= static_cast<std::size_t>(prefetch_capacity())) {
    return false;  // depth-limited; dropping a hint is always legal
  }
  inflight_.insert(id);
  ++metrics_.prefetches_issued;
  SF_INVARIANT_HOOK(checker_, on_prefetch_issued(rank_, id, clock_()));
  return true;
}

bool RankBlockPlane::complete_prefetch(BlockId id, GridPtr grid) {
  if (grid == nullptr) {
    abandon_prefetch(id);
    return false;
  }
  inflight_.erase(id);
  if (pending(id)) {
    // A demand waited on this read: it completes the demand.
    claim(id, std::move(grid));
    pending_.erase(id);
    return true;
  }
  staged_.emplace_back(id, std::move(grid));
  SF_INVARIANT_HOOK(checker_, on_prefetch_staged(rank_, id, clock_()));
  const std::size_t cap = std::max<std::size_t>(1, async_io_.staging_blocks);
  while (staged_.size() > cap) {
    waste(staged_.front().first);
    staged_.erase(staged_.begin());
  }
  return false;
}

void RankBlockPlane::abandon_prefetch(BlockId id) {
  inflight_.erase(id);
  waste(id);
}

void RankBlockPlane::resolve_outstanding_prefetches() {
  for (const auto& s : staged_) waste(s.first);
  staged_.clear();
  while (!inflight_.empty()) abandon_prefetch(*inflight_.begin());
}

int RankBlockPlane::prefetch_capacity() const {
  return async_io_.enabled ? std::max(1, async_io_.prefetch_depth) : 0;
}

const StructuredGrid* RankBlockPlane::block(BlockId id) {
  const StructuredGrid* grid = cache_.find(id);
  if (grid != nullptr) {
    // find() moved the block to the front of the LRU; mirror it.
    SF_INVARIANT_HOOK(checker_, on_block_touch(rank_, id));
  }
  return grid;
}

void RankBlockPlane::pin(BlockId id) {
  cache_.pin(id);
  SF_INVARIANT_HOOK(checker_, on_block_pin(rank_, id));
}

void RankBlockPlane::unpin(BlockId id) {
  cache_.unpin(id);
  SF_INVARIANT_HOOK(checker_,
                    on_block_unpin(rank_, id, cache_.resident(), clock_()));
}

// Adopting LRU-last -> MRU-first rebuilds the same recency order, and
// each adoption replays through the checker's LRU model.
void RankBlockPlane::adopt_shared(
    const std::vector<std::pair<BlockId, GridPtr>>& blocks) {
  const std::size_t n = std::min(blocks.size(), cache_.capacity());
  for (std::size_t i = n; i-- > 0;) {
    cache_.adopt(blocks[i].first, blocks[i].second);
    SF_INVARIANT_HOOK(checker_, on_block_insert(rank_, blocks[i].first,
                                                cache_.resident(), clock_()));
  }
}

void RankBlockPlane::charge_particle_memory(std::int64_t delta_bytes) {
  particle_bytes_ = std::max<std::int64_t>(0, particle_bytes_ + delta_bytes);
  const auto bytes = static_cast<std::size_t>(particle_bytes_);
  metrics_.peak_particle_bytes = std::max(metrics_.peak_particle_bytes, bytes);
  if (bytes > particle_memory_bytes_) {
    metrics_.oom = true;
    throw SimAbort("rank " + std::to_string(rank_) +
                       " exceeded its particle memory budget",
                   rank_);
  }
}

void RankBlockPlane::sync_counters() {
  metrics_.blocks_loaded = cache_.loads();
  metrics_.blocks_purged = cache_.purges();
  metrics_.cache_hits = cache_.hits();
  metrics_.cache_misses = cache_.misses();
  metrics_.blocks_adopted = cache_.adopted();
}

void RankBlockPlane::waste([[maybe_unused]] BlockId id) {
  ++metrics_.prefetches_wasted;
  SF_INVARIANT_HOOK(checker_, on_prefetch_cancelled(rank_, id, clock_()));
}

// A demand takes over a prefetched grid: one load and one prefetch hit.
void RankBlockPlane::claim(BlockId id, GridPtr grid) {
  ++metrics_.prefetch_hits;
  SF_INVARIANT_HOOK(checker_, on_prefetch_claimed(rank_, id, clock_()));
  cache_.insert(id, std::move(grid));
  SF_INVARIANT_HOOK(checker_,
                    on_block_insert(rank_, id, cache_.resident(), clock_()));
}

}  // namespace sf
