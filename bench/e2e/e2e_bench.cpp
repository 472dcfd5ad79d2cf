// e2e_bench — the benchmark binary behind bench/e2e/run.py (README.md).
//
// Runs one workload as a closed loop of rounds with a single caller and
// times every call into apps, runtime, correlation, placement, serve and
// runtime/adaptive from the outside.  Round r replays seeded input
// r % kInputs, so every round after the first kInputs re-executes an
// earlier one and must reproduce its digest: each run re-proves that it
// simulated the same thing.  The untimed warm-up round plays input 0 on
// the serial engine, so on scaled512 the parallel rounds are also checked
// against serial.
//
// Prints one JSON object on stdout (metrics, digest, run stamp, sample
// counts).  With --trace 1, every odd round records spans; the run then
// writes <out>/<workload>.seed<N>.trace.json in Chrome trace format.
#include <sched.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/drifting.hpp"
#include "apps/workload.hpp"
#include "common/rng.hpp"
#include "correlation/matrix.hpp"
#include "correlation/sparse.hpp"
#include "placement/heuristics.hpp"
#include "placement/hierarchical.hpp"
#include "runtime/adaptive.hpp"
#include "runtime/cluster_runtime.hpp"
#include "serve/graph_service.hpp"
#include "serve/kv_service.hpp"
#include "serve/serving_runtime.hpp"

namespace {

using namespace actrack;

using Clock = std::chrono::steady_clock;

/// Distinct seeded inputs per run; round r plays input r % kInputs.
constexpr int kInputs = 3;

// ---------------------------------------------------------------- spans

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into Timeline::spans, -1 for a trial
  std::int64_t trial = 0;
  std::int32_t round = 0;
};

/// In-memory span store.  Timing happens whether or not it records, so
/// traced and untraced rounds read the clock the same number of times.
class Timeline {
 public:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool recording = false;
  std::int64_t trial = 0;
  std::int32_t round = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;  // indices of the spans still open

 private:
  Clock::time_point epoch_ = Clock::now();
};

/// One timed call: a span named `layer.call` while the timeline records.
class Span {
 public:
  Span(Timeline& timeline, const char* name)
      : timeline_(timeline), start_(timeline.now_ns()) {
    if (!timeline_.recording) return;
    index_ = static_cast<std::int32_t>(timeline_.spans.size());
    timeline_.spans.push_back(
        SpanRecord{name, start_, start_,
                   timeline_.open.empty() ? -1 : timeline_.open.back(),
                   timeline_.trial, timeline_.round});
    timeline_.open.push_back(index_);
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (once) and returns its duration in ns.
  std::int64_t stop() {
    if (end_ < 0) {
      end_ = timeline_.now_ns();
      if (index_ >= 0) {
        timeline_.spans[static_cast<std::size_t>(index_)].end_ns = end_;
        timeline_.open.pop_back();
      }
    }
    return end_ - start_;
  }

 private:
  Timeline& timeline_;
  std::int64_t start_;
  std::int64_t end_ = -1;
  std::int32_t index_ = -1;
};

// --------------------------------------------------------------- digest

/// FNV-1a over 64-bit words: the digest of everything a round simulated.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(std::int64_t value) { add(static_cast<std::uint64_t>(value)); }
  void add(std::int32_t value) { add(static_cast<std::int64_t>(value)); }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

  /// Simulated results only: the parallel/serial phase split is how the
  /// engine ran, not what it computed, and differs with des_jobs.
  void add(const IterationMetrics& m) {
    for (const std::int64_t v :
         {m.elapsed_us, m.remote_misses, m.read_faults, m.write_faults,
          m.messages, m.total_bytes, m.diff_bytes, m.control_bytes,
          m.stack_bytes, m.gc_runs, m.link_frames, m.link_retransmits,
          m.link_acks, m.link_bytes, m.link_stall_us, m.des_phases_total}) {
      add(v);
    }
    add(m.load_imbalance);
  }
  void add(const Placement& placement) {
    for (const NodeId node : placement.node_of_thread()) add(node);
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t index) {
  return splitmix64(seed ^ splitmix64(index));
}

// ---------------------------------------------------------------- round

/// Size of a set of iteration traces.
struct TraceCount {
  std::int64_t accesses = 0;       // page accesses the runtime replays
  std::int64_t init_accesses = 0;  // of those, iteration 0's (run_init)
  std::int64_t requests = 0;       // segments with an open-loop arrival
};

TraceCount count_trace(const IterationTrace& trace) {
  TraceCount count;
  for (const Phase& phase : trace.phases) {
    for (const ThreadPhase& thread : phase.threads) {
      for (const Segment& segment : thread.segments) {
        count.accesses += static_cast<std::int64_t>(segment.accesses.size());
        if (segment.start_at_us > 0) count.requests += 1;
      }
    }
  }
  return count;
}

struct Round {
  std::int32_t input = 0;
  bool traced = false;
  std::int64_t host_ns = 0;   // trial time, trace-generation pass excluded
  std::int64_t setup_ns = 0;  // apps.make + runtime.init
  std::int64_t trace_run_ns = 0;  // generating traces of iterations >= 1
  std::int64_t events = 0;
  std::int64_t run_events = 0;
  std::int64_t ops = 0;
  std::int64_t failed = 0;
  std::vector<double> plain_ms;    // steps that keep the placement
  std::vector<double> replace_ms;  // steps that track and re-place
  std::map<std::string, std::int64_t> layer_ns;  // traced: span totals
  std::int64_t engine_ns = 0;  // traced: simulator calls minus trace time
  IterationMetrics sim;            // summed runtime totals
  std::map<std::string, double> tally;  // workload-specific counts
  Digest digest;
  std::string error;
};

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  std::int32_t des_jobs = 1;
  Timeline timeline;
  /// Trace counts per (input, trial), filled by an untimed pass the
  /// first time an input runs.
  std::map<std::pair<std::int32_t, std::int32_t>, TraceCount> counts;
};

/// Ends a trial: on traced rounds times the trace-generation pass over
/// every iteration the trial ran (span apps.trace); otherwise generates
/// them untimed once per input, for the access counts.
void finish_trial(Context& ctx, Round& round, Span& trial,
                  const Workload& workload, std::int32_t iterations,
                  std::int32_t trial_index) {
  const auto key = std::make_pair(round.input, trial_index);
  const bool known = ctx.counts.count(key) > 0;
  std::int64_t trial_ns = 0;
  if (round.traced || !known) {
    if (!round.traced) trial_ns = trial.stop();
    Span pass(ctx.timeline, "apps.trace");
    TraceCount count;
    std::int64_t run_ns = 0;
    for (std::int32_t i = 0; i < iterations; ++i) {
      const std::int64_t start = ctx.timeline.now_ns();
      const TraceCount c = count_trace(workload.iteration(i));
      if (i == 0) {
        count.init_accesses = c.accesses;
      } else {
        run_ns += ctx.timeline.now_ns() - start;
      }
      count.accesses += c.accesses;
      count.requests += c.requests;
    }
    const std::int64_t pass_ns = pass.stop();
    if (round.traced) {
      trial_ns = trial.stop() - pass_ns;
      round.trace_run_ns += run_ns;
    }
    if (known && (ctx.counts[key].accesses != count.accesses ||
                  ctx.counts[key].requests != count.requests)) {
      throw std::runtime_error("trace of a replayed input changed");
    }
    ctx.counts[key] = count;
  } else {
    trial_ns = trial.stop();
  }
  const TraceCount& count = ctx.counts[key];
  round.host_ns += trial_ns;
  round.events += count.accesses;
  round.run_events += count.accesses - count.init_accesses;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("invariant broken: " + what);
}

void require_balanced(const Placement& placement) {
  const std::vector<std::int32_t> sizes =
      balanced_node_sizes(placement.num_threads(), placement.num_nodes());
  for (NodeId node = 0; node < placement.num_nodes(); ++node) {
    require(placement.threads_on(node) == sizes[static_cast<std::size_t>(node)],
            "unbalanced placement");
  }
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ------------------------------------------------------------ workloads

/// paper64 / scaled512: seeded random placement → run_init → tracked
/// iteration → correlation → min-cost placement → migrate → measured
/// iterations.  Sparse correlation and hierarchical placement above the
/// dense ceiling, as the runtime's own trackers choose.
void app_trial(Context& ctx, Round& round, std::int32_t index,
               const std::string& app, std::int32_t threads, NodeId nodes,
               std::int32_t iterations, std::uint64_t seed) {
  Timeline& tl = ctx.timeline;
  Span trial(tl, "bench.trial");
  std::unique_ptr<Workload> workload;
  {
    Span s(tl, "apps.make");
    workload = make_workload(app, threads);
    round.setup_ns += s.stop();
  }
  Rng rng(seed);
  const Placement start = balanced_random_placement(rng, threads, nodes);
  RuntimeConfig config;
  config.sched.des_jobs = ctx.des_jobs;
  std::optional<ClusterRuntime> runtime;
  {
    Span s(tl, "runtime.init");
    runtime.emplace(*workload, start, config);
    round.digest.add(runtime->run_init());
    round.setup_ns += s.stop();
  }

  std::int64_t replace_ns = 0;
  TrackedIterationMetrics tracked;
  {
    Span s(tl, "runtime.tracked");
    tracked = runtime->run_tracked_iteration();
    replace_ns += s.stop();
  }
  round.digest.add(tracked.metrics);
  round.digest.add(tracked.tracking.tracking_faults);
  round.digest.add(tracked.tracking.coherence_faults);
  round.tally["sched.tracking_faults"] +=
      static_cast<double>(tracked.tracking.tracking_faults);

  const bool sparse = use_sparse_correlation(threads);
  std::unique_ptr<CorrelationView> view;
  {
    Span s(tl, "correlation.build");
    if (sparse) {
      view = std::make_unique<SparseCorrelation>(
          SparseCorrelation::from_bitmaps(tracked.tracking.access_bitmaps));
    } else {
      view = std::make_unique<CorrelationMatrix>(
          CorrelationMatrix::from_bitmaps(tracked.tracking.access_bitmaps));
    }
    replace_ns += s.stop();
  }
  std::optional<Placement> target;
  {
    Span s(tl, "placement.place");
    target.emplace(sparse ? hierarchical_min_cost_placement(*view, nodes)
                          : min_cost_placement(*view, nodes));
    replace_ns += s.stop();
  }
  require_balanced(*target);
  std::int64_t nnz = 0;
  for (ThreadId t = 0; t < threads; ++t) {
    view->for_each_neighbor(t, [&](ThreadId, std::int64_t) { ++nnz; });
  }
  const std::int64_t cut_before = view->cut_cost(start.node_of_thread());
  const std::int64_t cut_after = view->cut_cost(target->node_of_thread());
  round.digest.add(nnz);
  round.digest.add(cut_before);
  round.digest.add(cut_after);
  round.tally["correlation.nnz"] += static_cast<double>(nnz / 2);
  round.tally["placement.cut_ratio"] +=
      static_cast<double>(cut_after) /
      static_cast<double>(std::max<std::int64_t>(cut_before, 1));
  round.tally["control.threads_moved"] +=
      static_cast<double>(start.migration_distance(*target));
  {
    Span s(tl, "runtime.migrate");
    round.digest.add(runtime->migrate_to(*target));
    replace_ns += s.stop();
  }
  require(runtime->placement() == *target, "migration missed its target");
  round.replace_ms.push_back(ms(replace_ns));
  round.tally["control.replace_steps"] += 1;

  for (std::int32_t i = 0; i < iterations; ++i) {
    Span s(tl, "runtime.iteration");
    const IterationMetrics m = runtime->run_iteration();
    round.plain_ms.push_back(ms(s.stop()));
    round.digest.add(m);
  }
  round.digest.add(runtime->placement());
  round.sim.add(runtime->totals());
  round.ops += 1;
  finish_trial(ctx, round, trial, *workload, runtime->next_iteration(),
               index);
}

/// serve_link: one service under ServeMode::kTracked with the link layer
/// on, 48 serving windows of seeded open-loop traffic.
void serve_trial(Context& ctx, Round& round, std::int32_t index, bool kv,
                 std::uint64_t seed) {
  constexpr std::int32_t kThreads = 64;
  constexpr NodeId kNodes = 8;
  constexpr std::int32_t kWindows = 48;
  Timeline& tl = ctx.timeline;
  Span trial(tl, "bench.trial");
  serve::TrafficConfig traffic;  // 20 000 req/s, Zipf 0.9, drift every 6
  traffic.seed = seed;
  std::unique_ptr<Workload> workload;
  {
    Span s(tl, "apps.make");
    if (kv) {
      serve::KvConfig config;
      config.traffic = traffic;
      workload = std::make_unique<serve::KvServiceWorkload>(kThreads, config);
    } else {
      serve::GraphConfig config;
      config.traffic = traffic;
      workload =
          std::make_unique<serve::GraphServiceWorkload>(kThreads, config);
    }
    round.setup_ns += s.stop();
  }
  RuntimeConfig config;
  config.sched.des_jobs = ctx.des_jobs;
  config.cost.link.enabled = true;
  const serve::ServeConfig serve_config;
  std::optional<serve::ServingRuntime> runtime;
  {
    Span s(tl, "runtime.init");
    runtime.emplace(*workload, Placement::stretch(kThreads, kNodes), config,
                    serve_config);
    round.digest.add(runtime->run_init());
    round.setup_ns += s.stop();
  }
  std::int64_t served = 0;
  for (std::int32_t w = 0; w < kWindows; ++w) {
    Span s(tl, "serve.window");
    const serve::WindowStats stats = runtime->run_window();
    const double step_ms = ms(s.stop());
    (stats.moved_threads > 0 ? round.replace_ms : round.plain_ms)
        .push_back(step_ms);
    require(stats.served > 0, "a window served nothing");
    require(stats.moved_bytes <= serve_config.budget_bytes,
            "a window exceeded its migration budget");
    served += stats.served;
    for (const std::int64_t v :
         {stats.served, stats.p50_us, stats.p95_us, stats.p99_us,
          std::int64_t{stats.moved_threads}, stats.moved_bytes,
          stats.migration_us, stats.tracked_pages}) {
      round.digest.add(v);
    }
    round.digest.add(stats.mean_us);
    round.digest.add(stats.metrics);
    round.tally["serve.moved_bytes"] += static_cast<double>(stats.moved_bytes);
    round.tally["serve.tracked_pages"] +=
        static_cast<double>(stats.tracked_pages);
    round.tally["control.threads_moved"] +=
        static_cast<double>(stats.moved_threads);
    if (stats.moved_threads > 0) round.tally["control.replace_steps"] += 1;
  }
  require_balanced(runtime->placement());
  round.digest.add(runtime->placement());
  round.digest.add(runtime->latency().p50());
  round.digest.add(runtime->latency().p95());
  round.digest.add(runtime->latency().p99());
  round.tally["serve.served"] += static_cast<double>(served);
  round.tally["serve.sim_p99_us"] +=
      static_cast<double>(runtime->latency().p99());
  round.sim.add(runtime->cluster().totals());
  const std::int32_t iterations = runtime->cluster().next_iteration();
  finish_trial(ctx, round, trial, *workload, iterations, index);
  const std::int64_t arrivals = ctx.counts[{round.input, index}].requests;
  require(served == arrivals, "served requests differ from arrivals");
  round.ops += arrivals;
}

/// adaptive_sc: the `actrack adaptive` configuration (DriftingWorkload,
/// 64 threads, 8 nodes) under SC from a seeded random placement.
void adaptive_trial(Context& ctx, Round& round, std::int32_t index,
                    std::uint64_t seed) {
  constexpr std::int32_t kThreads = 64;
  constexpr NodeId kNodes = 8;
  constexpr std::int32_t kSteps = 48;
  Timeline& tl = ctx.timeline;
  Span trial(tl, "bench.trial");
  std::unique_ptr<Workload> workload;
  {
    Span s(tl, "apps.make");
    workload = std::make_unique<DriftingWorkload>(kThreads);
    round.setup_ns += s.stop();
  }
  Rng rng(seed);
  const Placement start = balanced_random_placement(rng, kThreads, kNodes);
  RuntimeConfig config;
  config.sched.des_jobs = ctx.des_jobs;
  config.dsm.model = ConsistencyModel::kSequentialSingleWriter;
  std::optional<ClusterRuntime> runtime;
  std::optional<AdaptiveController> controller;
  {
    Span s(tl, "runtime.init");
    runtime.emplace(*workload, start, config);
    round.digest.add(runtime->run_init());
    controller.emplace(&*runtime);
    round.setup_ns += s.stop();
  }
  for (std::int32_t i = 0; i < kSteps; ++i) {
    Span s(tl, "adaptive.step");
    const AdaptiveStep step = controller->step();
    const double step_ms = ms(s.stop());
    (step.tracked ? round.replace_ms : round.plain_ms).push_back(step_ms);
    require(step.elapsed_us > 0, "a step simulated no time");
    for (const std::int64_t v :
         {std::int64_t{step.iteration}, std::int64_t{step.tracked},
          std::int64_t{step.threads_migrated}, step.remote_misses,
          step.elapsed_us}) {
      round.digest.add(v);
    }
    round.tally["control.threads_moved"] +=
        static_cast<double>(step.threads_migrated);
    if (step.tracked) round.tally["control.replace_steps"] += 1;
    round.ops += 1;
  }
  require(controller->tracked_iterations() >= 1, "controller never tracked");
  require_balanced(runtime->placement());
  round.digest.add(runtime->placement());
  round.tally["adaptive.tracked_steps"] +=
      static_cast<double>(controller->tracked_iterations());
  round.tally["adaptive.migrations"] +=
      static_cast<double>(controller->migrations());
  round.sim.add(runtime->totals());
  finish_trial(ctx, round, trial, *workload, runtime->next_iteration(),
               index);
}

/// Ops one round attempts, for charging a round that threw.
std::int64_t expected_ops(const Context& ctx, std::int32_t input) {
  if (ctx.workload == "paper64") return 10;
  if (ctx.workload == "scaled512") return 4;
  if (ctx.workload == "adaptive_sc") return 48;
  std::int64_t requests = 0;
  for (std::int32_t t = 0; t < 2; ++t) {
    const auto it = ctx.counts.find({input, t});
    if (it != ctx.counts.end()) requests += it->second.requests;
  }
  return std::max<std::int64_t>(requests, 1);
}

/// Simulator calls whose time includes generating the iteration's trace.
constexpr const char* kSimCalls[] = {"runtime.iteration", "runtime.tracked",
                                     "serve.window", "adaptive.step"};

Round run_round(Context& ctx, std::int32_t input, bool traced) {
  Round round;
  round.input = input;
  round.traced = traced;
  ctx.timeline.recording = traced;
  const std::size_t first_span = ctx.timeline.spans.size();
  const std::uint64_t round_seed =
      derive(ctx.seed, static_cast<std::uint64_t>(input));
  const auto trial_seed = [&](std::int32_t t) {
    return derive(round_seed, static_cast<std::uint64_t>(t));
  };
  // Each trial gets its own id so its spans group under one trace row.
  const auto next_trial = [&] { ctx.timeline.trial += 1; };
  std::int32_t trials = 0;
  try {
    if (ctx.workload == "paper64" || ctx.workload == "scaled512") {
      const bool paper = ctx.workload == "paper64";
      const std::vector<std::string> apps =
          paper ? all_workload_names()
                : std::vector<std::string>{"Ocean", "SOR", "Water", "Barnes"};
      for (const std::string& app : apps) {
        next_trial();
        app_trial(ctx, round, trials, app, paper ? 64 : 512, paper ? 8 : 64,
                  paper ? 5 : 3, trial_seed(trials));
        ++trials;
      }
    } else if (ctx.workload == "serve_link") {
      for (const bool kv : {true, false}) {
        next_trial();
        serve_trial(ctx, round, trials, kv, trial_seed(trials));
        ++trials;
      }
    } else {
      next_trial();
      adaptive_trial(ctx, round, 0, trial_seed(0));
      trials = 1;
    }
  } catch (const std::exception& e) {
    round.error = e.what();
    round.ops = expected_ops(ctx, input);
    round.failed = round.ops;
  }
  ctx.timeline.open.clear();
  ctx.timeline.recording = false;
  // Per-trial quantities are reported as the mean trial.
  for (const char* mean : {"placement.cut_ratio", "serve.sim_p99_us"}) {
    const auto it = round.tally.find(mean);
    if (it != round.tally.end()) it->second /= std::max(trials, 1);
  }
  if (traced) {
    const std::vector<SpanRecord>& spans = ctx.timeline.spans;
    for (std::size_t i = first_span; i < spans.size(); ++i) {
      round.layer_ns[spans[i].name] += spans[i].end_ns - spans[i].start_ns;
    }
    round.engine_ns = -round.trace_run_ns;
    for (const char* call : kSimCalls) round.engine_ns += round.layer_ns[call];
    if (round.error.empty() && round.engine_ns < 0) {
      round.error = "runtime.engine_ms went negative";
    }
  }
  return round;
}

// ------------------------------------------------------------ statistics

/// Linear-interpolation quantile (numpy's default), q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// One input's fastest replays.  A shared VM's host speed can change by
/// about 1.7x for seconds at a time (measured on a 4-core Xeon VM), and a
/// slow state only ever adds time, so each host time reported is the
/// fastest replay of its input; steps are matched by position, since
/// replays simulate identical work.
struct InputBest {
  std::optional<Round> untraced;
  std::optional<Round> traced;
};

void keep_fastest(std::optional<Round>& best, const Round& round) {
  if (!best) {
    best = round;
    return;
  }
  best->host_ns = std::min(best->host_ns, round.host_ns);
  best->setup_ns = std::min(best->setup_ns, round.setup_ns);
  best->engine_ns = std::min(best->engine_ns, round.engine_ns);
  for (auto& [name, ns] : best->layer_ns) {
    ns = std::min(ns, round.layer_ns.at(name));
  }
  const auto elementwise = [](std::vector<double>& into,
                              const std::vector<double>& from) {
    for (std::size_t i = 0; i < into.size() && i < from.size(); ++i) {
      into[i] = std::min(into[i], from[i]);
    }
  };
  elementwise(best->plain_ms, round.plain_ms);
  elementwise(best->replace_ms, round.replace_ms);
}

std::string tally_unit(const std::string& name) {
  if (name == "placement.cut_ratio") return "ratio";
  if (name == "serve.moved_bytes") return "bytes";
  if (name == "serve.served") return "requests";
  if (name == "serve.sim_p99_us") return "sim_us";
  return "count";
}

struct LayerRow {
  std::int64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it.  Spans are stored in start order,
/// so each parent's children arrive sorted.
std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& p = spans[i];
    std::int64_t covered = 0;
    std::int64_t reach = p.start_ns;
    for (const std::int32_t c : children[i]) {
      const SpanRecord& child = spans[static_cast<std::size_t>(c)];
      const std::int64_t lo = std::max(child.start_ns, reach);
      const std::int64_t hi = std::min(child.end_ns, p.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

// ----------------------------------------------------------------- output

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex;
  out.width(16);
  out.fill('0');
  out << value;
  return out.str();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path, std::int32_t last_round) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.round > last_round) break;
    out << (first ? "\n" : ",\n") << "{\"name\":" << quoted(s.name)
        << ",\"cat\":" << quoted(std::string(s.name).substr(
                              0, std::string(s.name).find('.')))
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << number(static_cast<double>(s.start_ns) / 1e3)
        << ",\"dur\":"
        << number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"trial\":" << s.trial << ",\"round\":" << s.round << "}}";
    first = false;
  }
  out << "\n]}\n";
}

std::int32_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// This process's peak resident set (VmHWM).  getrusage's ru_maxrss is
/// not used: it keeps the high-water mark of the image before exec, i.e.
/// of the process that launched this one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
  std::int32_t des_jobs = 0;  // 0: the workload's own choice
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--des-jobs") {
      args.des_jobs = static_cast<std::int32_t>(std::stol(value));
      if (args.des_jobs < 1) throw std::invalid_argument("--des-jobs < 1");
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const std::vector<std::string> known = {"paper64", "scaled512",
                                          "serve_link", "adaptive_sc"};
  if (std::find(known.begin(), known.end(), args.workload) == known.end()) {
    throw std::invalid_argument("--workload must be paper64, scaled512, "
                                "serve_link or adaptive_sc");
  }
  return args;
}

using Rounds = std::vector<const Round*>;

template <typename F>
double sum_of(const Rounds& rounds, F field) {
  double total = 0.0;
  for (const Round* r : rounds) total += static_cast<double>(field(*r));
  return total;
}

/// Per-round values are the median over the inputs.
template <typename F>
double per_round(const Rounds& rounds, F field) {
  std::vector<double> values;
  for (const Round* r : rounds) {
    values.push_back(static_cast<double>(field(*r)));
  }
  return median(values);
}

std::vector<double> steps_of(const Rounds& rounds, bool plain, bool replace) {
  std::vector<double> steps;
  for (const Round* r : rounds) {
    if (plain) {
      steps.insert(steps.end(), r->plain_ms.begin(), r->plain_ms.end());
    }
    if (replace) {
      steps.insert(steps.end(), r->replace_ms.begin(), r->replace_ms.end());
    }
  }
  return steps;
}

struct SimCount {
  const char* name;
  const char* unit;
  std::int64_t IterationMetrics::*field;
};

constexpr SimCount kSimCounts[] = {
    {"dsm.read_faults", "count", &IterationMetrics::read_faults},
    {"dsm.write_faults", "count", &IterationMetrics::write_faults},
    {"dsm.remote_misses", "count", &IterationMetrics::remote_misses},
    {"dsm.diff_bytes", "bytes", &IterationMetrics::diff_bytes},
    {"dsm.gc_runs", "count", &IterationMetrics::gc_runs},
    {"net.messages", "count", &IterationMetrics::messages},
    {"net.bytes", "bytes", &IterationMetrics::total_bytes},
    {"link.frames", "count", &IterationMetrics::link_frames},
    {"link.retransmits", "count", &IterationMetrics::link_retransmits},
    {"link.stall_us", "sim_us", &IterationMetrics::link_stall_us},
    {"sched.phases", "count", &IterationMetrics::des_phases_total},
};

/// End-to-end metrics and simulated counts, from the untraced rounds.
std::vector<Metric> untraced_metrics(const Rounds& untraced) {
  const double host_s = sum_of(untraced, [](const Round& r) {
                          return r.host_ns;
                        }) / 1e9;
  const std::vector<double> steps = steps_of(untraced, true, true);
  std::vector<Metric> metrics = {
      {"events_per_s",
       sum_of(untraced, [](const Round& r) { return r.events; }) / host_s,
       "accesses/s"},
      {"step_ms.p50", quantile(steps, 0.50), "ms"},
      {"step_ms.p99", quantile(steps, 0.99), "ms"},
      {"setup_s",
       per_round(untraced, [](const Round& r) { return r.setup_ns; }) / 1e9,
       "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ops_per_s",
       sum_of(untraced, [](const Round& r) { return r.ops; }) / host_s, "1/s"},
  };

  // Simulated counts: identical on every replay of an input.
  const auto count = [&](const std::string& name, const std::string& unit,
                         auto field) {
    metrics.push_back({name, per_round(untraced, field), unit});
  };
  count("apps.events", "accesses", [](const Round& r) { return r.events; });
  count("sim.elapsed_s", "sim_s", [](const Round& r) {
    return static_cast<double>(r.sim.elapsed_us) / 1e6;
  });
  for (const SimCount& c : kSimCounts) {
    count(c.name, c.unit, [&c](const Round& r) { return r.sim.*c.field; });
  }
  count("sched.parallel_phase_fraction", "ratio", [](const Round& r) {
    return static_cast<double>(r.sim.des_phases_parallel) /
           static_cast<double>(
               std::max<std::int64_t>(r.sim.des_phases_total, 1));
  });
  // Every workload reports the control counts, even when nothing moved.
  std::set<std::string> tallies = {"control.replace_steps",
                                   "control.threads_moved"};
  for (const Round* r : untraced) {
    for (const auto& entry : r->tally) tallies.insert(entry.first);
  }
  for (const std::string& name : tallies) {
    count(name, tally_unit(name), [&name](const Round& r) {
      const auto it = r.tally.find(name);
      return it == r.tally.end() ? 0.0 : it->second;
    });
  }
  return metrics;
}

struct TraceReport {
  std::map<std::string, LayerRow> layers;  // per span name
  double max_reconcile_pct = 0.0;
};

/// The layer table over every recorded span, the reconciliation check,
/// and the layer metrics from the traced rounds.
TraceReport trace_report(const std::vector<SpanRecord>& spans,
                         const Rounds& traced, double untraced_host_ns,
                         std::vector<Metric>& metrics) {
  TraceReport report;
  const std::vector<std::int64_t> self = self_times(spans);
  // trial -> (trial span, sum of the self times of its spans)
  std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>> trials;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    // A trial span's self time is the benchmark's own bookkeeping.
    LayerRow& row = report.layers[s.parent < 0 ? "bench.other" : s.name];
    row.calls += 1;
    row.total_ns += s.end_ns - s.start_ns;
    row.self_ns += self[i];
    auto& [trial_ns, self_sum] = trials[s.trial];
    if (s.parent < 0) trial_ns = s.end_ns - s.start_ns;
    self_sum += self[i];
  }
  for (const auto& [id, sums] : trials) {
    const auto [trial_ns, self_sum] = sums;
    report.max_reconcile_pct = std::max(
        report.max_reconcile_pct,
        100.0 * std::abs(static_cast<double>(self_sum - trial_ns)) /
            static_cast<double>(std::max<std::int64_t>(trial_ns, 1)));
  }

  for (const auto& entry : report.layers) {
    const std::string& name = entry.first;
    if (name == "bench.other") continue;
    metrics.push_back({name + "_ms", per_round(traced, [&name](const Round& r) {
                         const auto it = r.layer_ns.find(name);
                         return it == r.layer_ns.end() ? 0.0 : ms(it->second);
                       }),
                       "ms"});
  }
  metrics.push_back(
      {"runtime.engine_ms",
       per_round(traced, [](const Round& r) { return ms(r.engine_ns); }),
       "ms"});
  metrics.push_back(
      {"runtime.ns_per_event", per_round(traced, [](const Round& r) {
         return static_cast<double>(r.engine_ns) /
                static_cast<double>(std::max<std::int64_t>(r.run_events, 1));
       }),
       "ns"});
  metrics.push_back(
      {"step.plain_ms", median(steps_of(traced, true, false)), "ms"});
  metrics.push_back(
      {"step.replace_ms", median(steps_of(traced, false, true)), "ms"});
  const double traced_host_ns =
      sum_of(traced, [](const Round& r) { return r.host_ns; });
  metrics.push_back({"bench.trace_overhead_pct",
                     100.0 * (traced_host_ns / untraced_host_ns - 1.0), "%"});
  return report;
}

int run(const Args& args) {
  Context ctx;
  ctx.workload = args.workload;
  ctx.seed = args.seed;
  // Parallel DES has work only at 512 threads; elsewhere it would only
  // pay pool hand-off.  Never more workers than usable cores.
  const std::int32_t des_jobs =
      args.des_jobs > 0 ? args.des_jobs
      : args.workload == "scaled512" ? std::min(4, nproc())
                                     : 1;

  // Warm-up: input 0 on the serial engine, untimed; its digest is the
  // reference every later replay of input 0 must reproduce.
  std::vector<std::optional<std::uint64_t>> reference(kInputs);
  std::vector<std::string> errors;
  ctx.des_jobs = 1;
  const Round warmup = run_round(ctx, 0, false);
  if (!warmup.error.empty()) errors.push_back("warm-up: " + warmup.error);
  reference[0] = warmup.digest.value();
  ctx.des_jobs = des_jobs;

  // Every input runs at least once untraced (and, with --trace 1, once
  // traced: odd rounds trace, so 2 * kInputs rounds cover both).
  const std::int32_t min_rounds = args.trace ? 2 * kInputs : kInputs;
  std::vector<Round> rounds;
  const std::int64_t start_ns = ctx.timeline.now_ns();
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::int32_t r = 0;
       r < min_rounds || ctx.timeline.now_ns() - start_ns < budget_ns; ++r) {
    ctx.timeline.round = r;
    Round round = run_round(ctx, r % kInputs, args.trace && r % 2 == 1);
    std::optional<std::uint64_t>& ref =
        reference[static_cast<std::size_t>(round.input)];
    if (!ref.has_value()) ref = round.digest.value();
    if (round.error.empty() && *ref != round.digest.value()) {
      round.error = "replay of input " + std::to_string(round.input) +
                    " diverged from its first run";
      round.failed = round.ops;
    }
    if (!round.error.empty()) {
      errors.push_back("round " + std::to_string(r) + ": " + round.error);
    }
    rounds.push_back(std::move(round));
  }
  const double measured_s =
      static_cast<double>(ctx.timeline.now_ns() - start_ns) / 1e9;

  Digest digest;
  for (const std::optional<std::uint64_t>& ref : reference) {
    digest.add(ref.value_or(0));
  }

  std::int64_t attempted = 0, failed = 0, step_count = 0, traced_rounds = 0;
  std::vector<InputBest> best(kInputs);
  for (const Round& round : rounds) {
    attempted += round.ops;
    failed += round.failed;
    traced_rounds += round.traced ? 1 : 0;
    step_count += static_cast<std::int64_t>(round.plain_ms.size() +
                                            round.replace_ms.size());
    if (!round.error.empty()) continue;
    InputBest& b = best[static_cast<std::size_t>(round.input)];
    keep_fastest(round.traced ? b.traced : b.untraced, round);
  }
  Rounds untraced, traced;
  for (const InputBest& b : best) {
    if (b.untraced) untraced.push_back(&*b.untraced);
    if (b.traced) traced.push_back(&*b.traced);
  }
  if (untraced.size() != best.size() ||
      (args.trace && traced.size() != best.size())) {
    errors.push_back("some input has no successful round to report");
  }

  std::vector<Metric> metrics = untraced_metrics(untraced);
  TraceReport report;
  if (args.trace) {
    report = trace_report(
        ctx.timeline.spans, traced,
        sum_of(untraced, [](const Round& r) { return r.host_ns; }), metrics);
    if (report.max_reconcile_pct > 1.0) {
      errors.push_back("layer self times do not reconcile with trial spans");
    }
    write_chrome_trace(ctx.timeline.spans,
                       args.out + "/" + args.workload + ".seed" +
                           std::to_string(args.seed) + ".trace.json",
                       2 * kInputs);
  }

  std::ostringstream out;
  out << "{\"workload\":" << quoted(args.workload) << ",\"seed\":"
      << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"digest\":" << quoted(hex(digest.value()))
      << ",\"correct\":" << (errors.empty() ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out << (i ? "," : "") << quoted(errors[i]);
  }
  out << "],\"stamp\":{\"compiler\":" << quoted(E2E_COMPILER)
      << ",\"build_type\":" << quoted(E2E_BUILD_TYPE)
#ifdef NDEBUG
      << ",\"ndebug\":true"
#else
      << ",\"ndebug\":false"
#endif
      << ",\"nproc\":" << nproc()
      << ",\"hw_threads\":" << std::thread::hardware_concurrency()
      << ",\"des_jobs\":" << des_jobs << ",\"warmup_des_jobs\":1}"
      << ",\"samples\":{\"rounds\":" << rounds.size()
      << ",\"traced_rounds\":" << traced_rounds << ",\"inputs\":" << kInputs
      << ",\"ops\":" << attempted << ",\"steps\":" << step_count
      << ",\"measured_s\":" << number(measured_s) << "}";
  out << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << quoted(metrics[i].name) << ":{\"value\":"
        << number(metrics[i].value) << ",\"unit\":" << quoted(metrics[i].unit)
        << "}";
  }
  out << "}";
  if (args.trace) {
    out << ",\"layers\":[";
    bool first = true;
    for (const auto& [name, row] : report.layers) {
      out << (first ? "" : ",") << "{\"name\":" << quoted(name)
          << ",\"calls\":" << row.calls
          << ",\"total_ms\":" << number(ms(row.total_ns))
          << ",\"self_ms\":" << number(ms(row.self_ns)) << "}";
      first = false;
    }
    out << "],\"reconcile_max_error_pct\":"
        << number(report.max_reconcile_pct);
  }
  out << "}\n";
  std::cout << out.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << '\n';
    return 2;
  }
}
