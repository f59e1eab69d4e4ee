// sfperf — end-to-end benchmark of the streamline library.
//
//   sfperf --workload=NAME --seed=N --seconds=S --trace=0|1 --data=DIR
//
// Runs one named workload against the public library API for about S
// seconds, checks every output against a serial oracle, and prints each
// metric by name with its unit, then one JSON object as the last line.
// Run and set-up times are end to end as process CPU seconds, which a
// shared host's slow phases move far less than wall time; the wall time
// is a per-layer metric.
// --trace=0 prints the end-to-end metrics, --trace=1 the per-layer ones
// from a separate, instrumented run.  The seed only generates inputs;
// the library receives the generated seeds and arrival times.
// perfbench/run.py builds this binary and is the command to run.
//
// Workloads (four rank threads at most, no async loader threads):
//   lod-sparse     Load On Demand, threads, on-disk store, 20k seeds
//   hybrid-sparse  Hybrid Master/Slave, threads, same store, 2k seeds
//   service-hot    StreamlineService on threads, 200 clustered queries
//   des-512        simulated 512-rank machine, all three algorithms

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/driver.hpp"
#include "core/analytic_fields.hpp"
#include "core/seeds.hpp"
#include "core/tracer.hpp"
#include "io/block_store.hpp"
#include "measure.hpp"
#include "service/query_queue.hpp"
#include "service/service.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

constexpr int kRanks = 4;
constexpr int kBlocksPerAxis = 8;     // 512 blocks
constexpr int kStoreNodes = 17;       // 17^3 nodes + 2 ghost cells: 222 KB
constexpr int kDesNodes = 9;          // the figure benches' resolution
constexpr int kGhost = 2;
constexpr int kSetupRepeats = 5;      // set-ups per run; the median counts
constexpr std::size_t kLodSeeds = 20000;
constexpr std::size_t kLodCache = 12;
constexpr std::size_t kHybridSeeds = 2000;
constexpr std::size_t kHybridCache = 48;  // the CLI default
constexpr std::size_t kDesSeeds = 4000;
constexpr int kDesRanks = 512;
constexpr std::size_t kDesCache = 96;     // the figure benches' default
constexpr std::size_t kRawProbeBlocks = 64;

// service-hot: 200 queries of 160 seeds each around three hot centres,
// Poisson arrivals at fixed absolute rates (queries per second of service
// clock).  The centres are fixed so that the seed draws the clusters and
// arrivals but not how much work the hot regions hold.  The ladder gives
// service.sustained_qps: the highest rung whose tail latency stays within
// kLatencyLimit with no growing backlog.
constexpr std::size_t kQueries = 200;
constexpr std::size_t kSeedsPerQuery = 160;
constexpr double kClusterSigma = 0.04;  // 2% of the [-1,1] extent
constexpr std::size_t kServiceCache = 128;
// kRateHigh leaves room for slow host phases: a host running 2.3x slow
// made 80 q/s reject queries.
constexpr double kRateLow = 20.0;
constexpr double kRateHigh = 50.0;
constexpr double kLadder[] = {20.0,  50.0,  80.0,  120.0, 160.0,
                              200.0, 250.0, 300.0, 400.0};
constexpr double kLatencyLimit = 0.1;
const sf::Vec3 kHotCentres[] = {
    {0.45, 0.10, -0.20}, {-0.30, 0.50, 0.25}, {0.05, -0.55, 0.40}};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path data = "perfbench-data";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--data") {
      a.data = val;
    } else {
      throw std::invalid_argument("unknown flag: " + arg);
    }
  }
  return a;
}

sf::TraceLimits cli_limits() {
  // `streamflow experiment` defaults: what a user gets without flags.
  sf::TraceLimits l;
  l.max_time = 15.0;
  l.max_steps = 1500;
  return l;
}

// ---------------------------------------------------------------------------
// Outcome bookkeeping: attempted / failed operations, exact-count checks.
// ---------------------------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool counts_repeat = true;

  // Counts that must repeat exactly across runs of one build.
  void expect_same(const char* what, double expected, double now) {
    if (expected != now) {
      counts_repeat = false;
      std::fprintf(stderr, "sfperf: %s is %.17g, expected %.17g\n", what,
                   now, expected);
    }
  }
};

bool same_particle(const sf::Particle& a, const sf::Particle& b) {
  return a.id == b.id && a.status == b.status && a.steps == b.steps &&
         std::memcmp(&a.pos, &b.pos, sizeof(a.pos)) == 0 &&
         std::memcmp(&a.time, &b.time, sizeof(a.time)) == 0;
}

// Mismatched plus missing streamlines of `got` against `oracle` (both
// sorted by id, oracle ids 0..n-1).
std::uint64_t count_wrong(const std::vector<sf::Particle>& oracle,
                          const std::vector<sf::Particle>& got) {
  std::vector<const sf::Particle*> by_id(oracle.size(), nullptr);
  for (const sf::Particle& p : got) {
    if (p.id < by_id.size() && by_id[p.id] == nullptr) by_id[p.id] = &p;
  }
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    if (by_id[i] == nullptr || !same_particle(oracle[i], *by_id[i])) ++wrong;
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// Set-up: the dataset, the on-disk store and the seeds.
// ---------------------------------------------------------------------------

struct Setup {
  sf::DatasetPtr dataset;                   // in-memory copy for the oracle
  std::shared_ptr<const sf::BlockStore> store;  // null for des-512
  std::vector<sf::Vec3> seeds;
  std::vector<std::vector<sf::Vec3>> queries;   // service-hot only
};

sf::DatasetPtr make_dataset(int nodes) {
  const auto field = std::make_shared<sf::SupernovaField>();
  const sf::BlockDecomposition decomp(field->bounds(), kBlocksPerAxis,
                                      kBlocksPerAxis, kBlocksPerAxis);
  return std::make_shared<sf::BlockedDataset>(field, decomp, nodes, kGhost);
}

void make_inputs(const Args& args, const sf::AABB& box, Setup& s) {
  sf::Rng rng(args.seed);
  if (args.workload == "service-hot") {
    s.queries.clear();
    s.seeds.clear();
    for (std::size_t q = 0; q < kQueries; ++q) {
      const sf::Vec3& c = kHotCentres[rng.next_below(3)];
      s.queries.push_back(
          sf::cluster_seeds(c, kClusterSigma, kSeedsPerQuery, rng, box));
      s.seeds.insert(s.seeds.end(), s.queries.back().begin(),
                     s.queries.back().end());
    }
    return;
  }
  const std::size_t n = args.workload == "lod-sparse"      ? kLodSeeds
                        : args.workload == "hybrid-sparse" ? kHybridSeeds
                                                           : kDesSeeds;
  s.seeds = sf::random_seeds(box, n, rng);
}

// Write the store's blocks back to disk, so that write-back does not
// compete with what is timed next.
void flush_store(const sf::BlockStore& store) {
  for (int b = 0; b < store.num_blocks(); ++b) {
    const int fd = ::open(store.block_path(b).c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
}

// Set up `repeats` times from scratch; the last one is kept.  An
// untraced run reports the median process CPU time as setup_s.  Flushing
// the store after each set-up is not part of setup_s.
Setup set_up(const Args& args, Report& r, int repeats = kSetupRepeats) {
  Setup s;
  const bool des = args.workload == "des-512";
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    s = Setup{};
    Stopwatch sw;
    if (des) {
      s.dataset = make_dataset(kDesNodes);
      // Materialise every block, as a run over the whole domain will.
      for (int b = 0; b < s.dataset->num_blocks(); ++b) s.dataset->block(b);
    } else {
      s.dataset = make_dataset(kStoreNodes);
      sf::BlockStore::write(args.data, *s.dataset);
      s.store = std::make_shared<const sf::BlockStore>(args.data);
    }
    make_inputs(args, s.dataset->decomposition().domain(), s);
    times.push_back(sw.cpu_seconds());
    if (s.store) flush_store(*s.store);
  }
  if (!args.trace) r.set("setup_s", median(times), "s");
  return s;
}

// ---------------------------------------------------------------------------
// Probes for the traced run.
// ---------------------------------------------------------------------------

// The serial oracle: trace_all, which runs Tracer::advance_batch (kAuto)
// on one thread over the warm in-memory blocks, once per seed set.  Its
// timing is also the kernel probe: core.serial_trace_s and
// core.kernel_steps_per_s.
struct Oracle {
  std::vector<std::vector<sf::Particle>> particles;  // one per seed set
  std::uint64_t steps = 0;
  double seconds = 0.0;

  double steps_per_s() const {
    return seconds > 0 ? static_cast<double>(steps) / seconds : 0.0;
  }
};

Oracle run_oracle(const sf::BlockedDataset& ds,
                  const std::vector<std::vector<sf::Vec3>>& seed_sets) {
  Oracle o;
  Stopwatch sw;
  for (const auto& seeds : seed_sets) {
    o.particles.push_back(
        sf::trace_all(ds, seeds, sf::IntegratorParams{}, cli_limits()));
  }
  o.seconds = sw.seconds();
  for (const auto& ps : o.particles) {
    for (const sf::Particle& p : ps) o.steps += p.steps;
  }
  return o;
}

// core.*: `steps` taken by the measured run; compute_s_est is derived
// from the oracle's kernel rate, not measured.  Returns compute_s_est.
double report_core(Report& r, double steps, const Oracle& o) {
  const double rate = o.steps_per_s();
  const double compute_est = rate > 0 ? steps / rate : 0;
  r.set("core.steps", steps, "count");
  r.set("core.kernel_steps_per_s", rate, "1/s");
  r.set("core.serial_trace_s", o.seconds, "s");
  r.set("core.compute_s_est", compute_est, "s");
  r.note("core.compute_s_est is derived: core.steps / core.kernel_steps_per_s");
  return compute_est;
}

// MB/s of plain whole-file reads of the store's block files.
double raw_read_MBps(const sf::BlockStore& store) {
  std::vector<char> buf;
  std::uint64_t bytes = 0;
  Stopwatch sw;
  const int n = std::min<int>(store.num_blocks(), kRawProbeBlocks);
  for (int b = 0; b < n; ++b) {
    const fs::path p = store.block_path(b);
    std::FILE* f = std::fopen(p.c_str(), "rb");
    if (f == nullptr) throw std::runtime_error("cannot open " + p.string());
    buf.resize(store.block_file_bytes(b));
    bytes += std::fread(buf.data(), 1, buf.size(), f);
    std::fclose(f);
  }
  const double s = sw.seconds();
  return s > 0.0 ? static_cast<double>(bytes) / 1e6 / s : 0.0;
}

// ---------------------------------------------------------------------------
// Per-layer metric groups.
// ---------------------------------------------------------------------------

const char* const kAlgoNames[] = {"static", "lod", "hybrid"};

// io.* from the loads one traced run made.
void report_io(Report& r, const TimedSource::Totals& t) {
  std::vector<double> us;
  us.reserve(t.load_s.size());
  for (double s : t.load_s) us.push_back(s * 1e6);
  const double busy = std::accumulate(t.load_s.begin(), t.load_s.end(), 0.0);
  const Tail tl = tail(us);
  r.set("io.block_loads", static_cast<double>(t.load_s.size()), "count");
  r.set("io.load_busy_s", busy, "s");
  r.set("io.load_us_p50", median(us), "us");
  r.set("io.load_us_tail", tl.value, "us");
  r.set("io.load_MBps",
        busy > 0 ? static_cast<double>(t.bytes) / 1e6 / busy : 0, "MB/s");
  r.set("io.failed_loads", static_cast<double>(t.failed), "count");
  r.note("io.load_us_tail is p" + std::to_string(tl.percentile) + " of " +
         std::to_string(tl.samples) + " loads");
}

// runtime.* from one traced thread run.  ThreadRuntime's compute_time is
// modelled (steps x seconds_per_step), so compute enters idle_frac only
// as the derived estimate core.compute_s_est.
void report_runtime(Report& r, const sf::RunMetrics& m, double wall,
                    double load_busy, double compute_est) {
  const double msgs = static_cast<double>(m.total_messages());
  r.set("runtime.cache_hit_rate", m.cache_hit_rate(), "frac");
  r.set("runtime.block_E", m.block_efficiency(), "frac");
  r.set("runtime.stall_s", m.total_stall_time(), "s");
  r.set("runtime.msgs", msgs, "count");
  r.set("runtime.bytes_sent_MB",
        static_cast<double>(m.total_bytes_sent()) / 1e6, "MB");
  r.set("runtime.comm_s", m.total_comm_time(), "s");
  r.set("runtime.comm_us_per_msg",
        msgs > 0 ? m.total_comm_time() / msgs * 1e6 : 0, "us");
  const double rank_s = static_cast<double>(m.num_ranks) * wall;
  const double busy = load_busy + m.total_comm_time() + compute_est;
  r.set("runtime.idle_frac", rank_s > 0 ? 1.0 - busy / rank_s : 0, "frac");
  r.note("ThreadRuntime compute_time is modelled (steps x seconds_per_step): " +
         std::to_string(m.total_compute_time()) +
         " rank-s; not reported as measured");
}

// algorithms.* from one run.  Ranks [0, masters) coordinate and
// integrate nothing; the imbalance is over the remaining (working) ranks.
void report_algorithms(Report& r, const sf::RunMetrics& m,
                       std::size_t streamlines, int masters) {
  const double msgs = static_cast<double>(m.total_messages());
  const double ctrl = static_cast<double>(m.total_control_messages());
  r.set("algorithms.ctrl_msgs_per_streamline",
        streamlines > 0 ? ctrl / static_cast<double>(streamlines) : 0, "count");
  r.set("algorithms.particle_batches", msgs - ctrl, "count");
  double master_msgs = 0;
  std::vector<double> steps;
  for (std::size_t i = 0; i < m.ranks.size(); ++i) {
    if (static_cast<int>(i) < masters) {
      master_msgs += static_cast<double>(m.ranks[i].messages_sent);
    } else {
      steps.push_back(static_cast<double>(m.ranks[i].steps));
    }
  }
  r.set("algorithms.master_msgs_sent", master_msgs, "count");
  const double mean =
      steps.empty() ? 0 : std::accumulate(steps.begin(), steps.end(), 0.0) /
                              static_cast<double>(steps.size());
  r.set("algorithms.slave_steps_imbalance",
        mean > 0 ? *std::max_element(steps.begin(), steps.end()) / mean : 0,
        "ratio");
}

int hybrid_masters(int ranks) {
  const sf::HybridParams p;
  return sf::HybridLayout::make(ranks, p.slaves_per_master, p.root_fanout)
      .num_masters;
}

// ---------------------------------------------------------------------------
// The simulator, for des-512 and as the model of the batch workloads.
// ---------------------------------------------------------------------------

// Rounds of Static, LoD and Hybrid in turn on the simulated machine, each
// checked against the oracle.  The model outputs are deterministic and
// must repeat exactly from round to round.
class SimRounds {
 public:
  SimRounds(int ranks, std::size_t cache) : ranks_(ranks), cache_(cache) {}

  // One round; records its host wall and CPU seconds.
  void run(const sf::BlockSource& source, const Setup& s,
           const std::vector<sf::Particle>& oracle, Outcome& out) {
    static constexpr sf::Algorithm kAlgos[] = {
        sf::Algorithm::kStaticAllocation, sf::Algorithm::kLoadOnDemand,
        sf::Algorithm::kHybridMasterSlave};
    double host = 0, cpu = 0;
    std::uint64_t steps = 0;
    for (int a = 0; a < 3; ++a) {
      sf::ExperimentConfig cfg;
      cfg.algorithm = kAlgos[a];
      cfg.runtime.num_ranks = ranks_;
      cfg.runtime.model = sf::MachineModel::jaguar_like();
      cfg.runtime.cache_blocks = cache_;
      cfg.limits = cli_limits();
      out.attempted += s.seeds.size();
      sf::RunMetrics m;
      Stopwatch sw;
      try {
        m = sf::run_experiment(cfg, s.dataset->decomposition(), source,
                               s.seeds);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sfperf: run threw: %s\n", e.what());
        out.failed += s.seeds.size();
        continue;
      }
      host += sw.seconds();
      cpu += sw.cpu_seconds();
      if (m.failed_oom || m.failed_fault) {
        out.failed += s.seeds.size();
        continue;
      }
      out.failed += count_wrong(oracle, m.particles);
      steps += m.total_steps();
      const Model now{m.wall_clock, m.block_efficiency(),
                      static_cast<double>(m.total_messages())};
      if (model_[a].wall < 0) model_[a] = now;
      const std::string name = kAlgoNames[a];
      out.expect_same(("sim.model_wall_s." + name).c_str(), model_[a].wall,
                      now.wall);
      out.expect_same(("sim.model_block_E." + name).c_str(),
                      model_[a].block_e, now.block_e);
      out.expect_same(("sim.msgs." + name).c_str(), model_[a].msgs,
                      now.msgs);
      if (kAlgos[a] == sf::Algorithm::kHybridMasterSlave) {
        hybrid_ = std::move(m);
      }
    }
    std::uint64_t oracle_steps = 0;
    for (const sf::Particle& p : oracle) oracle_steps += p.steps;
    out.expect_same("core.steps of a simulated round",
                    static_cast<double>(3 * oracle_steps),
                    static_cast<double>(steps));
    steps_ = steps;
    host_s_.push_back(host);
    cpu_s_.push_back(cpu);
  }

  // sim.*: the model outputs and the host time of a round less the
  // kernel's share of it (derived from the kernel probe).
  void report(Report& r, double kernel_rate) const {
    for (int a = 0; a < 3; ++a) {
      const std::string name = kAlgoNames[a];
      r.set("sim.model_wall_s." + name, model_[a].wall, "s");
      r.set("sim.model_block_E." + name, model_[a].block_e, "frac");
      r.set("sim.msgs." + name, model_[a].msgs, "count");
    }
    const double kernel_s =
        kernel_rate > 0 ? static_cast<double>(steps_) / kernel_rate : 0;
    r.set("sim.host_s_excl_kernel", median(host_s_) - kernel_s, "s");
    r.note("sim.* model outputs are deterministic counts, not speed gates");
  }

  const std::vector<double>& host_s() const { return host_s_; }
  const std::vector<double>& cpu_s() const { return cpu_s_; }
  std::uint64_t steps() const { return steps_; }  // of one round
  const sf::RunMetrics& hybrid() const { return hybrid_; }

 private:
  struct Model {
    double wall = -1, block_e = 0, msgs = 0;
  };
  int ranks_;
  std::size_t cache_;
  Model model_[3];
  sf::RunMetrics hybrid_;
  std::uint64_t steps_ = 0;
  std::vector<double> host_s_;
  std::vector<double> cpu_s_;
};

// The des-512 configuration: kDesRanks simulated ranks over the figure
// benches' in-memory dataset, charged at 12 MB per block.
struct DesRounds {
  Oracle oracle;
  SimRounds sim{kDesRanks, kDesCache};
};

// Sets up des-512's inputs from the workload seed `setups` times, then
// runs at least `min_rounds` rounds and more until `seconds` have passed.
DesRounds run_des_rounds(const Args& args, Report& r, Outcome& out,
                         int setups, int min_rounds, double seconds) {
  Args des = args;
  des.workload = "des-512";
  const Setup s = set_up(des, r, setups);
  DesRounds d;
  d.oracle = run_oracle(*s.dataset, {s.seeds});
  reset_peak_rss();
  const sf::DatasetBlockSource source(s.dataset, /*modelled_bytes=*/12u << 20);
  Stopwatch budget;
  for (int rep = 0; rep < min_rounds || budget.seconds() < seconds; ++rep) {
    d.sim.run(source, s, d.oracle.particles.front(), out);
  }
  return d;
}

// algorithms.* of the simulated des-512 hybrid.
void report_des_algorithms(Report& r, const DesRounds& d) {
  report_algorithms(r, d.sim.hybrid(), kDesSeeds, hybrid_masters(kDesRanks));
  r.note("algorithms.* come from the simulated hybrid on " +
         std::to_string(kDesRanks) + " ranks");
}

// ---------------------------------------------------------------------------
// Batch workloads on real threads: lod-sparse and hybrid-sparse.
// ---------------------------------------------------------------------------

void run_batch_threads(const Args& args, Report& r, Outcome& out) {
  const bool hybrid = args.workload == "hybrid-sparse";
  Setup s = set_up(args, r);

  const Oracle o = run_oracle(*s.dataset, {s.seeds});
  const std::vector<sf::Particle>& oracle = o.particles.front();
  const std::size_t cache = hybrid ? kHybridCache : kLodCache;
  // Traced hybrid run only: the simulator's model of the same
  // configuration and seeds is the yardstick for control traffic.
  SimRounds model(kRanks, cache);
  if (args.trace && hybrid) {
    const sf::DatasetBlockSource memory(s.dataset);
    model.run(memory, s, oracle, out);
  }
  s.dataset.reset();
  reset_peak_rss();

  sf::ExperimentConfig cfg;
  cfg.algorithm = hybrid ? sf::Algorithm::kHybridMasterSlave
                         : sf::Algorithm::kLoadOnDemand;
  cfg.runtime.num_ranks = kRanks;
  cfg.runtime.model = sf::MachineModel::jaguar_like();
  cfg.runtime.cache_blocks = cache;
  cfg.limits = cli_limits();

  const sf::DiskBlockSource disk(s.store);
  const TimedSource timed(disk);
  const sf::BlockDecomposition& decomp = s.store->decomposition();

  std::vector<double> walls, cpus, traced_walls;
  std::vector<sf::RunMetrics> traced_runs;
  std::vector<TimedSource::Totals> traced_io;
  double first_loads = -1;
  Stopwatch budget;
  const int min_reps = args.trace ? 2 : 1;
  for (int rep = 0; rep < min_reps || budget.seconds() < args.seconds; ++rep) {
    // The traced run alternates plain and timed-source repeats, so the
    // tracing overhead is measured on the same inputs.
    const bool timed_rep = args.trace && rep % 2 == 1;
    const sf::BlockSource& src =
        timed_rep ? static_cast<const sf::BlockSource&>(timed) : disk;
    timed.take();  // drop what a failed repeat left behind
    out.attempted += s.seeds.size();
    sf::RunMetrics m;
    Stopwatch sw;
    try {
      m = sf::run_experiment_threads(cfg, decomp, src, s.seeds);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sfperf: run threw: %s\n", e.what());
      out.failed += s.seeds.size();
      continue;
    }
    const double wall = sw.seconds();
    const double cpu = sw.cpu_seconds();
    if (m.failed_oom || m.failed_fault) {
      std::fprintf(stderr, "sfperf: run failed: %s\n", m.abort_reason.c_str());
      out.failed += s.seeds.size();
      continue;
    }
    out.failed += count_wrong(oracle, m.particles);

    out.expect_same("core.steps", static_cast<double>(o.steps),
                    static_cast<double>(m.total_steps()));
    if (!hybrid) {
      const double loads = static_cast<double>(m.total_blocks_loaded());
      if (first_loads < 0) first_loads = loads;
      out.expect_same("io.block_loads", first_loads, loads);
    }
    if (timed_rep) {
      traced_walls.push_back(wall);
      traced_runs.push_back(std::move(m));
      traced_io.push_back(timed.take());
    } else {
      walls.push_back(wall);
      cpus.push_back(cpu);
      if (hybrid) {
        r.note("repeat wall " + std::to_string(wall) + " s" + ", control messages " +
               std::to_string(m.total_control_messages()));
      }
    }
  }

  r.note("run wall seconds: median " + std::to_string(median(walls)) +
         " of " + std::to_string(walls.size()) + " untraced runs");
  if (!args.trace) {
    r.set("cpu_s", median(cpus), "s");
    r.note("cpu_s is the median process CPU time of " +
           std::to_string(cpus.size()) + " runs");
    return;
  }

  if (traced_walls.empty()) return;  // every traced repeat failed
  // The traced repeat with the median wall clock stands for the layer split.
  const std::size_t mid = median_index(traced_walls);
  const sf::RunMetrics& m = traced_runs[mid];
  const double wall = traced_walls[mid];
  report_io(r, traced_io[mid]);
  r.set("io.raw_read_MBps", raw_read_MBps(*s.store), "MB/s");
  const double compute_est =
      report_core(r, static_cast<double>(m.total_steps()), o);
  const double busy = std::accumulate(traced_io[mid].load_s.begin(),
                                      traced_io[mid].load_s.end(), 0.0);
  report_runtime(r, m, wall, busy, compute_est);
  r.set("runtime.wall_s", median(walls), "s");
  // sim.* from des-512's configuration; algorithms.* from this run on
  // hybrid-sparse and from the simulated hybrid on lod-sparse, where LoD
  // has no coordination to measure.
  const DesRounds des = run_des_rounds(args, r, out, 1, 3, 0.0);
  des.sim.report(r, des.oracle.steps_per_s());
  if (!hybrid) {
    report_des_algorithms(r, des);
  } else {
    report_algorithms(r, m, s.seeds.size(), hybrid_masters(kRanks));
    const auto per_line = [&](const sf::RunMetrics& run) {
      return std::to_string(static_cast<double>(run.total_control_messages()) /
                            static_cast<double>(s.seeds.size()));
    };
    r.note("control messages per streamline: threads " + per_line(m) +
           ", simulator " + per_line(model.hybrid()));
  }
  r.set("trace.overhead_s", median(traced_walls) - median(walls), "s");
  r.note("traced repeats " + std::to_string(traced_walls.size()) +
         ", untraced repeats " + std::to_string(walls.size()));
}

// ---------------------------------------------------------------------------
// service-hot: StreamlineService on real threads.
// ---------------------------------------------------------------------------

struct ServiceRun {
  double host_s = 0.0;       // run_until_idle
  double cpu_s = 0.0;        // its process CPU time
  double epochs_wall = 0.0;  // sum of epoch wall clocks
  sf::ServiceReport report;
  std::vector<double> latencies;
  std::vector<double> waits;
  double makespan = 0.0;
  double last_arrival = 0.0;
  sf::RunMetrics cumulative;
  std::uint64_t done = 0;    // queries that reached kDone
  std::uint64_t failed = 0;  // queries not done, or not equal to the oracle
};

ServiceRun serve(const Setup& s, const sf::BlockSource& source, double rate,
                 std::uint64_t arrival_seed,
                 const std::vector<std::vector<sf::Particle>>& oracle) {
  sf::ServiceConfig cfg;
  cfg.base.algorithm = sf::Algorithm::kLoadOnDemand;
  cfg.base.runtime.num_ranks = kRanks;
  cfg.base.runtime.model = sf::MachineModel::jaguar_like();
  cfg.base.runtime.cache_blocks = kServiceCache;
  cfg.base.limits = cli_limits();
  cfg.use_thread_runtime = true;
  cfg.share_cache = true;
  sf::StreamlineService svc(cfg, &s.store->decomposition(), &source);

  ServiceRun run;
  sf::PoissonArrivals arrivals(rate, arrival_seed);
  std::vector<sf::QueryId> ids;
  for (const auto& q : s.queries) {
    run.last_arrival = arrivals.next();
    ids.push_back(svc.submit_at(q, run.last_arrival));
  }
  Stopwatch sw;
  try {
    svc.run_until_idle();
  } catch (const std::exception& e) {
    // Queries the failed epoch held stay unfinished and count below.
    std::fprintf(stderr, "sfperf: service threw: %s\n", e.what());
  }
  run.host_s = sw.seconds();
  run.cpu_s = sw.cpu_seconds();
  run.report = svc.report();
  run.cumulative = svc.cumulative();
  run.epochs_wall = run.cumulative.wall_clock;
  run.makespan = svc.now();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const sf::QueryRecord& rec = svc.record(ids[i]);
    if (rec.state == sf::QueryState::kDone) ++run.done;
    if (rec.state != sf::QueryState::kDone ||
        count_wrong(oracle[i], rec.particles) != 0 ||
        rec.particles.size() != oracle[i].size()) {
      ++run.failed;
      continue;
    }
    run.latencies.push_back(rec.latency());
    run.waits.push_back(rec.queue_wait());
  }
  return run;
}

void run_service(const Args& args, Report& r, Outcome& out) {
  Setup s = set_up(args, r);

  // Oracle: a standalone serial run of each query's seeds.
  const Oracle o = run_oracle(*s.dataset, s.queries);
  s.dataset.reset();
  reset_peak_rss();

  const sf::DiskBlockSource disk(s.store);
  const TimedSource timed(disk);
  // Arrival instants come from the workload seed, one stream per rate.
  const auto arrival_seed = [&](double rate) {
    return args.seed * 1000003ULL + static_cast<std::uint64_t>(rate);
  };
  const auto account = [&](const ServiceRun& run, double rate) {
    out.attempted += s.queries.size();
    out.failed += run.failed;
    if (run.failed > 0) {
      std::fprintf(stderr, "sfperf: %llu queries at %g q/s failed\n",
                   static_cast<unsigned long long>(run.failed), rate);
    }
    out.expect_same("core.steps", static_cast<double>(o.steps),
                    static_cast<double>(run.cumulative.total_steps()));
  };

  if (!args.trace) {
    std::vector<double> walls, cpus;
    Stopwatch budget;
    for (int rep = 0; rep < 3 || budget.seconds() < args.seconds; ++rep) {
      const ServiceRun run =
          serve(s, disk, kRateHigh, arrival_seed(kRateHigh), o.particles);
      account(run, kRateHigh);
      walls.push_back(run.host_s);
      cpus.push_back(run.cpu_s);
    }
    r.set("cpu_s", median(cpus), "s");
    r.note("cpu_s is the median process CPU time of run_until_idle over " +
           std::to_string(cpus.size()) + " services of " +
           std::to_string(kQueries) + " queries at " +
           std::to_string(kRateHigh) + " q/s; median wall " +
           std::to_string(median(walls)) + " s");
    return;
  }

  // Traced run: the two fixed rates (plain and timed source alternately)
  // then the ladder once.
  std::vector<double> lat_low, lat_high, plain_walls, traced_walls;
  std::vector<ServiceRun> traced;
  std::vector<TimedSource::Totals> traced_io;
  Stopwatch budget;
  for (int rep = 0; rep < 2 || budget.seconds() < 0.5 * args.seconds; ++rep) {
    const ServiceRun low =
        serve(s, disk, kRateLow, arrival_seed(kRateLow), o.particles);
    account(low, kRateLow);
    lat_low.insert(lat_low.end(), low.latencies.begin(), low.latencies.end());
    const bool timed_rep = rep % 2 == 1;
    const sf::BlockSource& src =
        timed_rep ? static_cast<const sf::BlockSource&>(timed) : disk;
    ServiceRun high =
        serve(s, src, kRateHigh, arrival_seed(kRateHigh), o.particles);
    account(high, kRateHigh);
    lat_high.insert(lat_high.end(), high.latencies.begin(),
                    high.latencies.end());
    if (timed_rep) {
      traced_walls.push_back(high.host_s);
      traced_io.push_back(timed.take());
      traced.push_back(std::move(high));
    } else {
      plain_walls.push_back(high.host_s);
    }
  }

  // A rung that rejects queries or misses the limit ends the ladder.  An
  // admitted query that is wrong or unfinished is a failure of the run.
  double sustained = 0;
  for (const double rate : kLadder) {
    const ServiceRun run =
        serve(s, disk, rate, arrival_seed(rate), o.particles);
    const std::uint64_t admitted = s.queries.size() - run.report.rejected;
    out.attempted += admitted;
    out.failed += admitted - run.latencies.size();
    if (run.done == s.queries.size()) {
      out.expect_same("core.steps", static_cast<double>(o.steps),
                      static_cast<double>(run.cumulative.total_steps()));
    }
    const Tail t = tail(run.latencies);
    const bool ok = run.failed == 0 && run.report.rejected == 0 &&
                    t.value <= kLatencyLimit &&
                    run.makespan <= run.last_arrival + kLatencyLimit;
    r.note("ladder " + std::to_string(rate) + " q/s: tail " +
           std::to_string(t.value) + " s, backlog drain " +
           std::to_string(run.makespan - run.last_arrival) + " s, rejected " +
           std::to_string(run.report.rejected) + (ok ? "  meets" : "  misses"));
    if (!ok) break;
    sustained = rate;
  }

  const Tail tl = tail(lat_low), th = tail(lat_high);
  r.set("service.query_p50_s.low", median(lat_low), "s");
  r.set("service.query_tail_s.low", tl.value, "s");
  r.set("service.query_p50_s.high", median(lat_high), "s");
  r.set("service.query_tail_s.high", th.value, "s");
  r.set("service.sustained_qps", sustained, "1/s");
  r.note("latency tails: low p" + std::to_string(tl.percentile) + " of " +
         std::to_string(tl.samples) + ", high p" +
         std::to_string(th.percentile) + " of " + std::to_string(th.samples) +
         " queries; limit " + std::to_string(kLatencyLimit) + " s");

  const std::size_t mid = median_index(traced_walls);
  const ServiceRun& run = traced[mid];
  const TimedSource::Totals& io = traced_io[mid];
  report_io(r, io);
  r.set("io.raw_read_MBps", raw_read_MBps(*s.store), "MB/s");
  const double compute_est =
      report_core(r, static_cast<double>(run.cumulative.total_steps()), o);
  const double busy = std::accumulate(io.load_s.begin(), io.load_s.end(), 0.0);
  report_runtime(r, run.cumulative, run.epochs_wall, busy, compute_est);
  report_algorithms(r, run.cumulative, s.seeds.size(), 0);
  const Tail tw = tail(run.waits);
  r.set("service.epochs", static_cast<double>(run.report.epochs), "count");
  r.set("service.queue_wait_p50_s", median(run.waits), "s");
  r.set("service.queue_wait_tail_s", tw.value, "s");
  r.set("service.hit_rate", run.report.cache_hit_rate, "frac");
  r.set("service.blocks_adopted",
        static_cast<double>(run.report.blocks_adopted), "count");
  r.set("service.blocks_loaded", static_cast<double>(run.report.blocks_loaded),
        "count");
  r.set("service.outside_epoch_s", run.host_s - run.epochs_wall, "s");
  r.set("runtime.wall_s", median(plain_walls), "s");
  r.set("trace.overhead_s", median(traced_walls) - median(plain_walls), "s");
}

// ---------------------------------------------------------------------------
// des-512: host cost of the simulator at paper scale.  Not one of the
// BENCHMARK.json workloads: its speed drifts too far between runs on a
// shared host (perfbench/README.md).
void run_des(const Args& args, Report& r, Outcome& out) {
  const DesRounds d =
      run_des_rounds(args, r, out, kSetupRepeats, 3, args.seconds);
  if (!args.trace) {
    r.set("cpu_s", median(d.sim.cpu_s()), "s");
    r.note("cpu_s is the median process CPU time of one static+lod+hybrid "
           "round over " + std::to_string(d.sim.cpu_s().size()) + " rounds");
    return;
  }
  r.set("runtime.wall_s", median(d.sim.host_s()), "s");
  d.sim.report(r, d.oracle.steps_per_s());
  // core.steps counts all three runs of a round.
  report_core(r, static_cast<double>(d.sim.steps()), d.oracle);
  report_des_algorithms(r, d);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    using Runner = void (*)(const Args&, Report&, Outcome&);
    Runner runner = nullptr;
    if (args.workload == "lod-sparse" || args.workload == "hybrid-sparse") {
      runner = run_batch_threads;
    } else if (args.workload == "service-hot") {
      runner = run_service;
    } else if (args.workload == "des-512") {
      runner = run_des;
    } else {
      std::fprintf(stderr, "sfperf: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    Report r;
    Outcome out;
    r.note("workload " + args.workload + " seed " + std::to_string(args.seed));
    runner(args, r, out);

    const double fail_frac =
        out.attempted > 0 ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 1.0;
    r.note("fail_frac " + std::to_string(fail_frac) + " (" +
           std::to_string(out.failed) + " of " +
           std::to_string(out.attempted) + " operations)");
    if (!args.trace) {
      r.set("peak_rss_mb", peak_rss_mb(), "MB");
      r.set("ok_frac", 1.0 - fail_frac, "frac");
    }
    r.print(out.counts_repeat && out.failed == 0, out.attempted, out.failed);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfperf: %s\n", e.what());
    return 1;
  }
}
