#include "algorithms/driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "algorithms/load_on_demand.hpp"
#include "algorithms/static_alloc.hpp"
#include "io/checkpoint_io.hpp"

namespace sf {

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kStaticAllocation: return "static-allocation";
    case Algorithm::kLoadOnDemand: return "load-on-demand";
    case Algorithm::kHybridMasterSlave: return "hybrid-master-slave";
  }
  return "unknown";
}

namespace {

// Any fault feature requested?  If so the whole layer switches on; if not
// the runtime takes the exact pre-fault code paths (bit-identical runs).
bool fault_features_requested(const FaultConfig& f,
                              const std::string& restart_from) {
  return f.enabled || !restart_from.empty() || f.mtbf > 0.0 ||
         !f.crashes.empty() || f.disk_fault_rate > 0.0 ||
         f.disk_stall_rate > 0.0 || f.message_drop_rate > 0.0 ||
         f.checkpoint_interval > 0.0 || !f.slowdowns.empty() ||
         f.gray_mtbf > 0.0 || f.disk_slow_rate > 0.0 || f.corrupt_rate > 0.0;
}

// Everything both runtimes share: seed rejection, checkpoint restart,
// algorithm factory construction, per-algorithm fault wiring and the
// invariant-checker protocol selection.
struct PreparedRun {
  ExperimentConfig cfg;
  ProgramFactory factory;
  std::vector<Particle> rejected;
  std::vector<Particle> prior_done;
  bool faulty = false;
};

PreparedRun prepare_run(const ExperimentConfig& config,
                        const BlockDecomposition& decomp,
                        std::span<const Vec3> seeds) {
  PreparedRun run;
  run.cfg = config;  // we finish the fault wiring locally
  ExperimentConfig& cfg = run.cfg;
  run.faulty = fault_features_requested(cfg.runtime.fault, cfg.restart_from);
  const bool faulty = run.faulty;
  cfg.runtime.fault.enabled = faulty;

  std::vector<Particle> particles =
      make_particles(decomp, seeds, run.rejected);

  // Multi-query runs (src/service) tag each particle with its owning
  // query.  Rejected seeds are tagged too, so per-query accounting stays
  // complete.  Particle ids are the seed indices, which is what lets the
  // tag survive the partition shuffles below.
  if (!cfg.seed_queries.empty()) {
    if (cfg.seed_queries.size() != seeds.size()) {
      throw std::invalid_argument(
          "seed_queries must match the seed count (" +
          std::to_string(cfg.seed_queries.size()) + " tags for " +
          std::to_string(seeds.size()) + " seeds)");
    }
    for (Particle& p : particles) p.query = cfg.seed_queries[p.id];
    for (Particle& p : run.rejected) p.query = cfg.seed_queries[p.id];
  }

  // Topology stamp: written into every checkpoint, validated on restart.
  cfg.runtime.fault.algorithm_tag = static_cast<std::uint8_t>(cfg.algorithm);
  cfg.runtime.fault.dataset_hash = dataset_topology_hash(decomp);

  // A restart replaces the freshly seeded particles with the checkpoint's
  // active set; its done list joins the rejected seeds as presettled
  // results.  Re-advecting a particle from its checkpointed solver state
  // reproduces the uninterrupted trajectory bit for bit.
  if (!cfg.restart_from.empty()) {
    const Checkpoint ck = read_checkpoint(cfg.restart_from);
    if (ck.num_ranks != cfg.runtime.num_ranks) {
      throw std::invalid_argument(
          "--restart-from: checkpoint was written by a " +
          std::to_string(ck.num_ranks) + "-rank run, but this run has " +
          std::to_string(cfg.runtime.num_ranks) + " ranks");
    }
    if (ck.algorithm != static_cast<std::uint8_t>(cfg.algorithm)) {
      throw std::invalid_argument(
          std::string("--restart-from: checkpoint was written by a ") +
          to_string(static_cast<Algorithm>(ck.algorithm)) +
          " run, but this run uses " + to_string(cfg.algorithm));
    }
    if (ck.dataset_hash != cfg.runtime.fault.dataset_hash) {
      throw std::invalid_argument(
          "--restart-from: checkpoint was written against a different "
          "dataset decomposition (topology hash mismatch)");
    }
    particles = ck.active;
    run.prior_done = ck.done;
  }
  const auto total_active = static_cast<std::uint32_t>(particles.size());
  const int num_ranks = cfg.runtime.num_ranks;

  switch (cfg.algorithm) {
    case Algorithm::kStaticAllocation:
      cfg.runtime.checked_protocol = CheckedProtocol::kStaticAllocation;
      if (faulty) {
        // No immune ranks: the termination counter migrates to the lowest
        // live rank when rank 0 dies (survivable accounting, §11).
        cfg.runtime.fault.detector = FaultConfig::Detector::kRuntime;
      }
      run.factory = make_static_allocation(
          &decomp,
          partition_by_block_owner(decomp, num_ranks, std::move(particles)),
          total_active);
      break;
    case Algorithm::kLoadOnDemand:
      cfg.runtime.checked_protocol = CheckedProtocol::kLoadOnDemand;
      if (faulty) {
        cfg.runtime.fault.detector = FaultConfig::Detector::kRuntime;
      }
      run.factory = make_load_on_demand(
          &decomp,
          partition_evenly_by_block(num_ranks, decomp, std::move(particles)));
      break;
    case Algorithm::kHybridMasterSlave: {
      const HybridLayout layout = HybridLayout::make(
          num_ranks, cfg.hybrid.slaves_per_master, cfg.hybrid.root_fanout);
      cfg.runtime.checked_protocol = CheckedProtocol::kHybrid;
      cfg.runtime.checker_num_masters = layout.num_masters;
      cfg.runtime.checker_num_roots = layout.num_roots;
      if (faulty) {
        // Hybrid detects failures in-protocol, both ways: slaves
        // heartbeat status and the master declares the silent dead (the
        // sixth rule); masters beacon and orphaned slaves re-home to a
        // successor when their master goes silent (§11 failover).  No
        // rank is immune — a dead master's scheduling state is
        // reconstructed from re-reports and the particle ledger.  The
        // heartbeat period and miss limit come from the fault plane
        // (RankContext::fault_plane).
        cfg.runtime.fault.detector = FaultConfig::Detector::kProgram;
      }
      // Leaf masters get equal seed shares *grouped by block* (same
      // locality trick as §4.2's seed split): each master group then only
      // touches the blocks its own seeds and their streamlines reach,
      // instead of every group re-loading the whole dataset.  Tree-layout
      // roots start with no seeds at all.
      run.factory = make_hybrid(
          &decomp,
          partition_evenly_by_block(layout.num_leaves(), decomp,
                                    std::move(particles)),
          total_active, cfg.hybrid);
      break;
    }
  }

  if (faulty) {
    // Already-terminal particles live in the ledger from the start, so
    // checkpoints and final results are complete across restarts.
    cfg.runtime.fault.presettled = run.rejected;
    cfg.runtime.fault.presettled.insert(cfg.runtime.fault.presettled.end(),
                                        run.prior_done.begin(),
                                        run.prior_done.end());
  }
  return run;
}

// Fold the presettled particles into a non-fault result set (fault mode
// lets the ledger do it).  Failed runs keep their partial results too —
// diagnosable is better than empty.
void merge_presettled(RunMetrics& metrics, const PreparedRun& run) {
  if (run.faulty) return;
  metrics.particles.insert(metrics.particles.end(), run.rejected.begin(),
                           run.rejected.end());
  metrics.particles.insert(metrics.particles.end(), run.prior_done.begin(),
                           run.prior_done.end());
  std::sort(
      metrics.particles.begin(), metrics.particles.end(),
      [](const Particle& a, const Particle& b) { return a.id < b.id; });
}

}  // namespace

RunMetrics run_experiment(const ExperimentConfig& config,
                          const BlockDecomposition& decomp,
                          const BlockSource& source,
                          std::span<const Vec3> seeds) {
  PreparedRun run = prepare_run(config, decomp, seeds);
  SimRuntime runtime(run.cfg.runtime, &decomp, &source, run.cfg.integrator,
                     run.cfg.limits);
  RunMetrics metrics = runtime.run(run.factory);
  merge_presettled(metrics, run);
  return metrics;
}

RunMetrics run_experiment_threads(const ExperimentConfig& config,
                                  const BlockDecomposition& decomp,
                                  const BlockSource& source,
                                  std::span<const Vec3> seeds) {
  PreparedRun run = prepare_run(config, decomp, seeds);
  if (run.faulty) {
    throw std::invalid_argument(
        "run_experiment_threads: the thread runtime has no fault plane; "
        "drop the fault/restart flags or use the simulated runtime");
  }
  ThreadRuntimeConfig tcfg;
  static_cast<RuntimeConfig&>(tcfg) = run.cfg.runtime;
  tcfg.schedule_fuzz_seed = run.cfg.schedule_fuzz_seed;
  // Rejects a timed cancel: a configuration error on real threads, not a
  // silent approximation.
  ThreadRuntime runtime(tcfg, &decomp, &source, run.cfg.integrator,
                        run.cfg.limits);
  RunMetrics metrics = runtime.run(run.factory);
  merge_presettled(metrics, run);
  return metrics;
}

}  // namespace sf
