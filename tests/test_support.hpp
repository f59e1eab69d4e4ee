#pragma once

// Shared builders for algorithm/runtime tests: a small rotor dataset (a
// flow whose trajectories cross blocks predictably), fast machine models
// and a default experiment config.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "algorithms/driver.hpp"
#include "core/analytic_fields.hpp"
#include "core/dataset.hpp"
#include "core/seeds.hpp"
#include "runtime/rank_context.hpp"

namespace sf::testing {

struct TestWorld {
  FieldPtr field;
  DatasetPtr dataset;
  std::unique_ptr<DatasetBlockSource> source;

  const BlockDecomposition& decomp() const {
    return dataset->decomposition();
  }
};

inline TestWorld make_world(FieldPtr field, int blocks_per_axis = 4,
                            int nodes = 9, int ghost = 2,
                            std::size_t modelled_block_bytes = 0) {
  TestWorld w;
  w.field = field;
  const BlockDecomposition decomp(field->bounds(), blocks_per_axis,
                                  blocks_per_axis, blocks_per_axis);
  w.dataset =
      std::make_shared<BlockedDataset>(field, decomp, nodes, ghost);
  w.source = std::make_unique<DatasetBlockSource>(w.dataset,
                                                  modelled_block_bytes);
  return w;
}

inline TestWorld rotor_world(int blocks_per_axis = 4) {
  return make_world(std::make_shared<RotorField>(), blocks_per_axis);
}

inline TestWorld abc_world(int blocks_per_axis = 4) {
  return make_world(std::make_shared<ABCField>(), blocks_per_axis);
}

// Machine model scaled so tests run instantly but ratios stay sane.
inline MachineModel test_model() {
  MachineModel m;
  m.seconds_per_step = 1e-6;
  m.io_latency = 1e-3;
  m.io_bandwidth = 1e9;
  m.io_channels = 4;
  m.net_latency = 1e-5;
  m.net_bandwidth = 1e9;
  m.msg_overhead = 1e-5;
  m.pack_bandwidth = 1e9;
  m.particle_memory_bytes = 1ull << 30;
  m.particle_overhead_bytes = 1 << 10;
  return m;
}

inline ExperimentConfig test_config(Algorithm algo, int ranks) {
  ExperimentConfig cfg;
  cfg.algorithm = algo;
  cfg.runtime.num_ranks = ranks;
  cfg.runtime.model = test_model();
  cfg.runtime.cache_blocks = 16;
  cfg.limits.max_time = 25.0;
  cfg.limits.max_steps = 4000;
  cfg.limits.min_speed = 1e-8;
  cfg.hybrid.slaves_per_master = 8;
  return cfg;
}

// A minimal RankContext: records sends, block requests and memory
// charges, never computes (nothing is resident).  Lets a rank program be
// driven directly by hand-built messages — the bounce handlers' rare
// drop/crash interleavings, or the hybrid master's rules one status at a
// time.
class FakeContext final : public RankContext {
 public:
  FakeContext(const BlockDecomposition* decomp, const Tracer* tracer,
              int rank, int num_ranks)
      : alive(static_cast<std::size_t>(num_ranks), true),
        decomp_(decomp),
        tracer_(tracer),
        model_(test_model()),
        rank_(rank),
        num_ranks_(num_ranks) {}

  int rank() const override { return rank_; }
  int num_ranks() const override { return num_ranks_; }
  double now() const override { return 0.0; }
  const BlockDecomposition& decomposition() const override {
    return *decomp_;
  }
  const Tracer& tracer() const override { return *tracer_; }
  const MachineModel& model() const override { return model_; }
  void send(int to, Message msg) override {
    sent.emplace_back(to, std::move(msg));
  }
  void request_block(BlockId id) override { requested.push_back(id); }
  bool block_resident(BlockId) const override { return false; }
  bool block_pending(BlockId) const override { return false; }
  std::vector<BlockId> resident_blocks() const override { return {}; }
  const StructuredGrid* block(BlockId) override { return nullptr; }
  void begin_compute(double, std::uint64_t) override { ++computes; }
  bool busy() const override { return false; }
  void charge_particle_memory(std::int64_t delta) override {
    charged += delta;
  }
  bool is_alive(int target) const override {
    return alive[static_cast<std::size_t>(target)];
  }
  const FaultConfig* fault_plane() const override {
    return fault ? &*fault : nullptr;
  }

  std::vector<std::pair<int, Message>> sent;
  std::vector<BlockId> requested;
  std::vector<bool> alive;
  std::optional<FaultConfig> fault;  // set: the program sees a fault run
  std::int64_t charged = 0;
  int computes = 0;

 private:
  const BlockDecomposition* decomp_;
  const Tracer* tracer_;
  MachineModel model_;
  int rank_;
  int num_ranks_;
};

}  // namespace sf::testing
