#pragma once

// Per-rank LRU block cache.
//
// "The Load On Demand algorithm makes use of caching of blocks in a LRU
// fashion; old blocks are discarded if available main memory is
// insufficient" (§4.2).  Every algorithm caches through this class, and
// its load/purge counters feed the paper's block-efficiency metric
// E = (B_loaded - B_purged) / B_loaded.

#include <cassert>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dataset.hpp"
#include "core/thread_annotations.hpp"

namespace sf {

// Thread-confined, not thread-safe: a cache belongs to exactly one rank
// thread at a time.  The ThreadChecker capability makes that contract
// visible to the thread-safety analysis — all state is guarded by
// `serial_`, every public method asserts it, so any future attempt to
// call into a cache from a second thread while adding a lock elsewhere
// shows up as a missing-capability error instead of a silent race.
// Ownership hand-off (construction on the main thread, use on the rank
// thread, export after join) happens at quiescent points.
class BlockCache {
 public:
  // `capacity` is the user-defined upper bound on resident blocks (§5).
  explicit BlockCache(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const {
    serial_.assert_held();
    return map_.size();
  }

  // Look up a block and mark it most-recently used.  Counts one hit or
  // one miss; the hit rate hits/(hits+misses) rides next to the
  // E-metric in the per-run metrics.
  const StructuredGrid* find(BlockId id);

  // Look up without touching LRU order (and without counting a hit).
  bool contains(BlockId id) const {
    serial_.assert_held();
    return map_.count(id) != 0;
  }

  // Insert a freshly loaded block as most-recently used, evicting the
  // least-recently used *unpinned* entry if at capacity.  Counts one
  // load (and one purge per eviction).  Re-inserting a resident block
  // just touches it.  Single hash probe: insertion and the residency
  // check share one try_emplace instead of find()-then-emplace().
  //
  // If every resident entry is pinned the cache overflows temporarily:
  // the newcomer stays and the deferred eviction happens on the next
  // unpin().  The invariant checker replays the same policy.
  void insert(BlockId id, GridPtr grid);

  // Pin a block: it cannot be evicted until the matching unpin().  Pins
  // nest (focus-of-round and prefetch-target pins can overlap), and pin
  // intent is independent of residency: pinning before the insert lands
  // protects an in-flight load's target from day one.
  void pin(BlockId id);

  // Drop one pin; when the cache is over capacity (all-pinned overflow,
  // see insert()) the deferred eviction runs here.
  void unpin(BlockId id);

  bool pinned(BlockId id) const;

  // Drop a block explicitly (not counted as a purge; used by tests).
  void erase(BlockId id);

  // Insert a block inherited from another run's cache (cross-query warm
  // start).  Identical LRU behaviour to insert(), but counted as an
  // adoption instead of a load: the E-metric and hit rate measure what
  // *this* run pulled off disk, and a warm start did no I/O.
  void adopt(BlockId id, GridPtr grid);

  // Resident block ids, most-recently used first.
  std::vector<BlockId> resident() const;

  // Resident blocks with their grids, most-recently used first — what a
  // SharedBlockPool captures at run end.
  std::vector<std::pair<BlockId, GridPtr>> export_resident() const;

  std::uint64_t loads() const {
    serial_.assert_held();
    return loads_;
  }
  std::uint64_t purges() const {
    serial_.assert_held();
    return purges_;
  }
  std::uint64_t adopted() const {
    serial_.assert_held();
    return adopted_;
  }
  std::uint64_t hits() const {
    serial_.assert_held();
    return hits_;
  }
  std::uint64_t misses() const {
    serial_.assert_held();
    return misses_;
  }

 private:
  void touch(std::list<BlockId>::iterator it) SF_REQUIRES(serial_) {
    lru_.splice(lru_.begin(), lru_, it);
  }

  // Evict least-recently-used unpinned entries until the size fits the
  // capacity or only pinned entries remain.
  void evict_to_capacity() SF_REQUIRES(serial_);

  // Counter audit: every load or adoption is still resident, purged, or
  // explicitly erased — the E-metric E = (loads - purges) / loads
  // depends on it.
  void check_counters() const SF_REQUIRES(serial_) {
    assert(loads_ + adopted_ == purges_ + erased_ + map_.size());
  }

  // The single-thread-at-a-time capability (see class comment).
  mutable ThreadChecker serial_;

  std::size_t capacity_;
  std::list<BlockId> lru_ SF_GUARDED_BY(serial_);  // front = most recent
  struct Entry {
    GridPtr grid;
    std::list<BlockId>::iterator pos;
  };
  std::unordered_map<BlockId, Entry> map_ SF_GUARDED_BY(serial_);
  // id -> nested pin count
  std::unordered_map<BlockId, int> pins_ SF_GUARDED_BY(serial_);
  std::uint64_t loads_ SF_GUARDED_BY(serial_) = 0;
  std::uint64_t purges_ SF_GUARDED_BY(serial_) = 0;
  // Explicit erase(), not counted as purge.
  std::uint64_t erased_ SF_GUARDED_BY(serial_) = 0;
  // Warm-start inserts (cross-query sharing).
  std::uint64_t adopted_ SF_GUARDED_BY(serial_) = 0;
  std::uint64_t hits_ SF_GUARDED_BY(serial_) = 0;
  std::uint64_t misses_ SF_GUARDED_BY(serial_) = 0;
};

// Cross-query block residency, carried between runs by the streamline
// service: at run end each rank's resident blocks (with their grids and
// LRU order) are captured here; at the next run start they are adopted
// back into the fresh per-rank caches, so overlapping queries hit each
// other's blocks instead of re-reading them from disk.  Epochs run
// sequentially, so the pool needs no locking — the ThreadChecker
// capability documents and enforces the single-context contract the
// same way BlockCache's does.
class SharedBlockPool {
 public:
  // Replace `rank`'s captured residency with the cache's current one.
  void capture(int rank, const BlockCache& cache);

  // Forget `rank`'s captured blocks (the rank crashed; its memory died).
  void drop(int rank);

  // Captured blocks for `rank`, MRU first (empty if none captured).
  const std::vector<std::pair<BlockId, GridPtr>>& blocks(int rank) const;

 private:
  mutable ThreadChecker serial_;
  std::vector<std::vector<std::pair<BlockId, GridPtr>>> ranks_
      SF_GUARDED_BY(serial_);
  static const std::vector<std::pair<BlockId, GridPtr>> kEmpty;
};

}  // namespace sf
