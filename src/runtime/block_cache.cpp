#include "runtime/block_cache.hpp"

#include <stdexcept>

namespace sf {

BlockCache::BlockCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ < 1) {
    throw std::invalid_argument("BlockCache: capacity must be >= 1");
  }
}

const StructuredGrid* BlockCache::find(BlockId id) {
  serial_.assert_held();
  auto it = map_.find(id);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  touch(it->second.pos);
  return it->second.grid.get();
}

void BlockCache::evict_to_capacity() {
  // Scan from the LRU end toward the front, skipping pinned entries.
  auto victim = lru_.rbegin();
  while (map_.size() > capacity_ && victim != lru_.rend()) {
    if (pins_.count(*victim) != 0) {
      ++victim;
      continue;
    }
    map_.erase(*victim);
    // base() points one past the reverse iterator, i.e. at the victim.
    victim = std::make_reverse_iterator(lru_.erase(std::next(victim).base()));
    ++purges_;
  }
}

void BlockCache::insert(BlockId id, GridPtr grid) {
  serial_.assert_held();
  // One probe resolves both "already resident" and the insertion slot.
  auto [it, inserted] = map_.try_emplace(id);
  if (!inserted) {
    touch(it->second.pos);
    return;
  }
  lru_.push_front(id);
  it->second = Entry{std::move(grid), lru_.begin()};
  ++loads_;
  // Evict after inserting: the newcomer sits at the LRU front, so the
  // victim (back) is the same entry the evict-first ordering chose.
  evict_to_capacity();
  check_counters();
}

void BlockCache::pin(BlockId id) {
  serial_.assert_held();
  ++pins_[id];
}

void BlockCache::unpin(BlockId id) {
  serial_.assert_held();
  auto it = pins_.find(id);
  assert(it != pins_.end());
  if (it == pins_.end()) return;
  if (--it->second == 0) pins_.erase(it);
  // Deferred eviction: an all-pinned overflow (see insert()) drains as
  // soon as a pin is released.
  if (map_.size() > capacity_) {
    evict_to_capacity();
    check_counters();
  }
}

bool BlockCache::pinned(BlockId id) const {
  serial_.assert_held();
  return pins_.count(id) != 0;
}

void BlockCache::erase(BlockId id) {
  serial_.assert_held();
  auto it = map_.find(id);
  if (it == map_.end()) return;
  lru_.erase(it->second.pos);
  map_.erase(it);
  ++erased_;
  check_counters();
}

void BlockCache::adopt(BlockId id, GridPtr grid) {
  serial_.assert_held();
  auto [it, inserted] = map_.try_emplace(id);
  if (!inserted) {
    touch(it->second.pos);
    return;
  }
  lru_.push_front(id);
  it->second = Entry{std::move(grid), lru_.begin()};
  ++adopted_;
  evict_to_capacity();
  check_counters();
}

std::vector<BlockId> BlockCache::resident() const {
  serial_.assert_held();
  return {lru_.begin(), lru_.end()};
}

std::vector<std::pair<BlockId, GridPtr>> BlockCache::export_resident() const {
  serial_.assert_held();
  std::vector<std::pair<BlockId, GridPtr>> out;
  out.reserve(map_.size());
  for (BlockId id : lru_) out.emplace_back(id, map_.at(id).grid);
  return out;
}

// ---------------------------------------------------------------------------
// SharedBlockPool
// ---------------------------------------------------------------------------

const std::vector<std::pair<BlockId, GridPtr>> SharedBlockPool::kEmpty;

void SharedBlockPool::capture(int rank, const BlockCache& cache) {
  serial_.assert_held();
  if (rank < 0) return;
  if (ranks_.size() <= static_cast<std::size_t>(rank)) {
    ranks_.resize(static_cast<std::size_t>(rank) + 1);
  }
  ranks_[static_cast<std::size_t>(rank)] = cache.export_resident();
}

void SharedBlockPool::drop(int rank) {
  serial_.assert_held();
  if (rank < 0 || static_cast<std::size_t>(rank) >= ranks_.size()) return;
  ranks_[static_cast<std::size_t>(rank)].clear();
}

const std::vector<std::pair<BlockId, GridPtr>>& SharedBlockPool::blocks(
    int rank) const {
  serial_.assert_held();
  if (rank < 0 || static_cast<std::size_t>(rank) >= ranks_.size()) {
    return kEmpty;
  }
  return ranks_[static_cast<std::size_t>(rank)];
}

}  // namespace sf
