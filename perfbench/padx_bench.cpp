//===- padx_bench.cpp - padx end-to-end and per-layer benchmark -----------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One program for the two benchmark workloads. It calls padx's public
/// entry points, checks every output, and prints the metrics as the
/// last line of stdout:
///
///   padx_bench --workload search-l1|daemon-lint --seed N
///              --seconds S --trace 0|1 [--passes N] [--describe]
///
/// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
/// ones and writes the spans to .bench_out/trace-<workload>-<seed>.json.
/// The work of a run is cut into passes, each the same fixed unit of
/// work (a sequence of searches, or a fixed number of daemon requests
/// per client); passes repeat until --seconds elapse and the reported
/// times are medians over passes. --passes fixes the pass count, which
/// the determinism self-test uses; --describe prints the generated
/// inputs and exits. README.md explains the workloads and metrics.
///
//===----------------------------------------------------------------------===//

#include "Tracer.h"

#include "analysis/LatticePredictor.h"
#include "core/Padding.h"
#include "exec/RecordedTrace.h"
#include "experiments/Experiment.h"
#include "frontend/Parser.h"
#include "kernels/Kernels.h"
#include "layout/DataLayout.h"
#include "layout/TransformedSource.h"
#include "lint/Linter.h"
#include "lint/Output.h"
#include "machine/MachineModel.h"
#include "pipeline/PadPipeline.h"
#include "pipeline/SharedAnalysisCache.h"
#include "search/CostModel.h"
#include "search/SearchEngine.h"
#include "server/Protocol.h"
#include "server/RequestHandler.h"
#include "server/Server.h"
#include "support/Diagnostics.h"
#include "support/Json.h"
#include "support/JsonWriter.h"
#include "support/Socket.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace padx;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Options, statistics and process counters
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  unsigned Passes = 0; ///< Fixed pass count; 0 = until Seconds elapse.
  bool Describe = false;
};

/// Setup repetitions; setup_s is their median.
constexpr unsigned kSetupReps = 8;
/// Fewest passes a time-bound run makes, so every median has company.
constexpr unsigned kMinPasses = 3;
const char *const kOutDir = ".bench_out";

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &TV) {
    return static_cast<double>(TV.tv_sec) +
           static_cast<double>(TV.tv_usec) * 1e-6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// CPUs this process may run on.
std::vector<int> allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

/// Restricts the calling thread (and threads it creates later) to
/// \p Cpus.
void pinTo(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

/// Linear-interpolation quantile of \p V (the "inclusive" method).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// splitmix64: the benchmark's only source of randomness, so a seed
/// names the same inputs on every platform.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
};

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

uint64_t fnv1a(std::string_view S,
               uint64_t H = 1469598103934665603ull) {
  for (unsigned char C : S)
    H = (H ^ C) * 1099511628211ull;
  return H;
}

std::string lower(std::string S) {
  for (char &C : S)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return S;
}

std::unique_ptr<ir::Program> parseOrDie(const std::string &Source,
                                        const std::string &What) {
  DiagnosticEngine Diags;
  std::optional<ir::Program> P = frontend::parseProgram(Source, Diags);
  if (!P) {
    std::cerr << "padx_bench: generated program " << What
              << " does not parse:\n"
              << Diags.render(Source, What);
    std::exit(2);
  }
  return std::make_unique<ir::Program>(std::move(*P));
}

/// "a,b,c" with three decimals, for the info line.
std::string joined(const std::vector<double> &V) {
  std::string S;
  char Buf[32];
  for (double X : V) {
    std::snprintf(Buf, sizeof(Buf), "%s%.3f", S.empty() ? "" : ",", X);
    S += Buf;
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Every per-layer metric, with the end-to-end metric it should move
/// and on which workload. A traced run reports each of them; a layer
/// that does no work on the workload reports 0.
struct LayerMetricDef {
  const char *Name;
  const char *Unit;
  const char *Moves;
};

const LayerMetricDef kLayerMetrics[] = {
    {"exec.record_ms", "ms", "wall_s on search-l1"},
    {"exec.trace_maccesses", "maccess", "count (trace length)"},
    {"exec.replay_maccess_per_s", "maccess/s", "wall_s on search-l1"},
    {"exec.batch1_maccess_per_s", "maccess/s", "wall_s on search-l1"},
    {"exec.batch_width", "lanes", "wall_s on search-l1"},
    {"cachesim.hier_maccess_per_s", "maccess/s",
     "no end-to-end metric: a skylake probe on search-l1, whose searches "
     "do not run the hierarchy"},
    {"cachesim.l1_maccess_per_s", "maccess/s", "wall_s on search-l1"},
    {"search.exact_evals", "count", "wall_s on search-l1"},
    {"search.generated", "count", "wall_s on search-l1"},
    {"search.duplicates", "count", "wall_s on search-l1"},
    {"search.pruned_static", "count", "wall_s on search-l1"},
    {"search.prescreen_skipped", "count", "wall_s on search-l1"},
    {"search.rounds", "count", "wall_s on search-l1"},
    {"search.restarts", "count", "wall_s on search-l1"},
    {"search.eval_ratio", "ratio", "wall_s on search-l1"},
    {"search.improve_ratio", "ratio",
     "cost_vs_pad on search-l1 (new global bests per exact evaluation)"},
    {"search.exact_eval_s", "s", "wall_s on search-l1"},
    {"search.overhead_s", "s", "wall_s on search-l1"},
    {"search.jacobi512_s", "s", "wall_s on search-l1"},
    {"search.shal512_s", "s", "wall_s on search-l1"},
    {"search.dgefa256_s", "s", "wall_s on search-l1"},
    {"search.expl128_s", "s", "wall_s on search-l1"},
    {"cost_vs_pad", "ratio",
     "search quality; repeats exactly for a seed"},
    {"analysis.predict_ms", "ms",
     "wall_s on search-l1 (static filter); p50_ms on daemon-lint "
     "(lint rule 5)"},
    {"analysis.unscored_nests", "count", "count"},
    {"pipeline.cache_hits", "count", "wall_s on search-l1"},
    {"pipeline.cache_misses", "count", "wall_s on search-l1"},
    {"pipeline.shared_hit_rate", "ratio",
     "p50_ms and p99_ms on daemon-lint"},
    {"frontend.parse_ms", "ms",
     "p50_ms on daemon-lint; setup_s on search-l1"},
    {"core.pad_ms", "ms", "p50_ms on daemon-lint"},
    {"lint.run_ms", "ms", "p50_ms and req_per_s on daemon-lint"},
    {"lint.render_ms", "ms", "p50_ms and req_per_s on daemon-lint"},
    {"lint.findings", "count", "count"},
    {"server.handle_ms", "ms", "p50_ms on daemon-lint"},
    {"server.wire_ms", "ms", "p50_ms and p99_ms on daemon-lint"},
    {"server.parse_us", "us", "p50_ms on daemon-lint"},
    {"server.avg_service_us", "us", "p50_ms on daemon-lint"},
    {"server.queue_peak", "count", "p99_ms on daemon-lint"},
    {"server.shed", "count", "error_rate and p99_ms on daemon-lint"},
    {"server.errors", "count", "error_rate on daemon-lint"},
    {"error_rate", "ratio", "must be 0 on every workload"},
    {"trace.overhead_s", "s", "traced minus untraced wall_s"},
    {"search.self_s", "s", "wall_s on search-l1"},
    {"exec.self_s", "s", "wall_s on search-l1"},
    {"cachesim.self_s", "s", "none: checks and probes only"},
    {"analysis.self_s", "s", "p50_ms on daemon-lint"},
    {"frontend.self_s", "s", "p50_ms on daemon-lint"},
    {"layout.self_s", "s", "p50_ms on daemon-lint"},
    {"core.self_s", "s", "p50_ms on daemon-lint"},
    {"lint.self_s", "s", "p50_ms on daemon-lint"},
    {"server.self_s", "s", "p50_ms on daemon-lint"},
    {"support.self_s", "s", "p50_ms on daemon-lint"},
    {"client.self_s", "s", "p50_ms and p99_ms on daemon-lint"},
};

struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> EndToEnd;
  std::map<std::string, double> Layer; ///< By kLayerMetrics name.
  std::map<std::string, std::string> Info; ///< Extra numbers for humans.
  double TracedWall = 0, UntracedWall = 0;
};

void writeTraceFile(const Options &O, const Tracer &T, const Report &R,
                    const std::map<std::string, double> &Total,
                    const std::map<std::string, double> &Self) {
  std::filesystem::create_directories(kOutDir);
  std::string Path = std::string(kOutDir) + "/trace-" + O.Workload + "-" +
                     std::to_string(O.Seed) + ".json";
  std::ofstream OS(Path);
  support::JsonWriter JW(OS);
  JW.beginObject();
  JW.field("workload", O.Workload);
  JW.field("seed", O.Seed);
  JW.key("overhead");
  JW.beginObject();
  JW.field("traced_wall_s", R.TracedWall);
  JW.field("untraced_wall_s", R.UntracedWall);
  JW.field("overhead_s", R.TracedWall - R.UntracedWall);
  JW.endObject();
  JW.key("layers");
  JW.beginArray();
  for (const auto &[Layer, Secs] : Total) {
    JW.beginObject();
    JW.field("layer", Layer);
    JW.field("total_s", Secs);
    JW.field("self_s", Self.at(Layer));
    JW.endObject();
  }
  JW.endArray();
  JW.key("metrics");
  JW.beginArray();
  for (const LayerMetricDef &D : kLayerMetrics) {
    JW.beginObject();
    JW.field("name", D.Name);
    JW.field("value", R.Layer.at(D.Name));
    JW.field("unit", D.Unit);
    JW.field("moves", D.Moves);
    JW.endObject();
  }
  JW.endArray();
  JW.key("info");
  JW.beginObject();
  for (const auto &[K, V] : R.Info)
    JW.field(K, V);
  JW.endObject();
  JW.key("spans");
  JW.beginArray();
  for (const Span &S : T.spans()) {
    JW.beginObject();
    JW.field("name", S.Name);
    JW.field("start", S.Start);
    JW.field("end", S.End);
    JW.field("parent", S.Parent);
    JW.field("request", S.Request);
    JW.endObject();
  }
  JW.endArray();
  JW.endObject();
  OS << "\n";
  std::cout << "trace file: " << Path << " (" << T.spans().size()
            << " spans)\n";
}

/// Prints the human-readable lines and then the result object, which
/// must be the last line of stdout.
void emit(const Options &O, const Tracer &T, Report &R) {
  if (O.Trace) {
    std::map<std::string, double> Total, Self;
    T.layerTimes(Total, Self);
    for (const auto &[Layer, Secs] : Self)
      if (R.Layer.count(Layer + ".self_s"))
        R.Layer[Layer + ".self_s"] = Secs;
    R.Layer["trace.overhead_s"] = R.TracedWall - R.UntracedWall;
    std::printf("%-28s %14s  %-10s %s\n", "per-layer metric", "value",
                "unit", "moves");
    for (const LayerMetricDef &D : kLayerMetrics)
      std::printf("%-28s %14.6g  %-10s %s\n", D.Name, R.Layer.at(D.Name),
                  D.Unit, D.Moves);
    std::printf("%-10s %12s %12s\n", "layer", "total_s", "self_s");
    for (const auto &[Layer, Secs] : Total)
      std::printf("%-10s %12.6f %12.6f\n", Layer.c_str(), Secs,
                  Self[Layer]);
    writeTraceFile(O, T, R, Total, Self);
  } else {
    for (const Metric &M : R.EndToEnd)
      std::printf("%-14s %14.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  }
  // One machine-readable line of extras (sample counts, cost_vs_pad)
  // for the steadiness report; the result object follows it.
  {
    std::ostringstream OS;
    support::JsonWriter JW(OS);
    JW.beginObject();
    for (const auto &[K, V] : R.Info)
      JW.field(K, V);
    JW.endObject();
    std::cout << "info " << OS.str() << "\n";
  }
  std::ostringstream OS;
  support::JsonWriter JW(OS);
  JW.beginObject();
  JW.field("correct", R.Failed == 0 && R.Attempted > 0);
  JW.field("attempted", R.Attempted);
  JW.field("failed", R.Failed);
  JW.key("metrics");
  JW.beginObject();
  auto Put = [&](const std::string &Name, double V, const std::string &U) {
    JW.key(Name);
    JW.beginObject();
    JW.field("value", V);
    JW.field("unit", U);
    JW.endObject();
  };
  if (O.Trace) {
    for (const LayerMetricDef &D : kLayerMetrics)
      Put(D.Name, R.Layer.at(D.Name), D.Unit);
  } else {
    for (const Metric &M : R.EndToEnd)
      Put(M.Name, M.Value, M.Unit);
  }
  JW.endObject();
  JW.endObject();
  std::cout << OS.str() << std::endl;
}

/// Keeps starting passes until the time is used: a time-bound run makes
/// at least kMinPasses and stops before a pass of median length would
/// overrun --seconds.
class PassClock {
public:
  explicit PassClock(const Options &O)
      : O(O), Start(Clock::now()),
        MinPasses(O.Trace ? 2 * kMinPasses : kMinPasses) {}

  bool another(const std::vector<double> &PassWalls) const {
    size_t Done = PassWalls.size();
    if (O.Passes)
      return Done < O.Passes;
    if (Done < MinPasses)
      return true;
    return secondsSince(Start) + median(PassWalls) <= O.Seconds;
  }

private:
  const Options &O;
  Clock::time_point Start;
  size_t MinPasses;
};

//===----------------------------------------------------------------------===//
// search-l1
//===----------------------------------------------------------------------===//

/// The ROADMAP's matrix kernels with fixed per-kernel budgets, sized so
/// that a pass takes 2-3 s and no single search dominates it.
struct KernelBudget {
  const char *Kernel;
  unsigned Budget;
};
const KernelBudget kKernels[] = {
    {"jacobi", 32}, {"shal", 12}, {"dgefa", 16}, {"expl", 32}};

struct SearchInput {
  std::string Kernel; ///< Registry name, e.g. "jacobi".
  std::string Name;   ///< Display name, e.g. "jacobi512".
  std::string Source;
  unsigned Budget = 0;
  uint64_t SearchSeed = 0;
  std::unique_ptr<ir::Program> P;
};

/// What every repetition of one kernel's search must reproduce.
struct SearchOutcomeKey {
  double Best = 0, Pad = 0;
  std::string BestKey;
  unsigned Evals = 0, Generated = 0;
  bool operator==(const SearchOutcomeKey &) const = default;
};

struct SearchWorkload {
  /// The paper's 16K direct-mapped cache.
  const CacheConfig Cache = CacheConfig::base16K();
  std::vector<SearchInput> Inputs; ///< In the seed's kernel order.

  explicit SearchWorkload(uint64_t Seed) {
    std::vector<KernelBudget> Ks(std::begin(kKernels), std::end(kKernels));
    Rng R(Seed);
    shuffle(Ks, R);
    for (const KernelBudget &K : Ks) {
      SearchInput In;
      In.Kernel = K.Kernel;
      In.Name = lower(kernels::findKernel(K.Kernel)->Display);
      In.Budget = K.Budget;
      In.SearchSeed = Rng(Seed ^ fnv1a(K.Kernel)).next();
      Inputs.push_back(std::move(In));
    }
  }

  search::SearchOptions options(const SearchInput &In) const {
    search::SearchOptions SO;
    // padd's search configuration: one thread, batch auto. Machine
    // stays empty, the single-level path padd takes for a request
    // without a "machine" field.
    SO.Cache = Cache;
    SO.EvalBudget = In.Budget;
    SO.Threads = 1;
    SO.BatchK = 0;
    SO.Seed = In.SearchSeed;
    return SO;
  }

  /// Generates and parses every kernel and warms the search path with a
  /// seeds-only search (which also records each trace once).
  void setup(Tracer &T) {
    for (SearchInput &In : Inputs) {
      In.Source = kernels::kernelSource(In.Kernel);
      {
        ScopedSpan S(T, "frontend.parseProgram");
        In.P = parseOrDie(In.Source, In.Name);
      }
      search::SearchOptions SO = options(In);
      SO.EvalBudget = 1; // Raised to the seed count: seeds only.
      pipeline::PadPipeline PP(*In.P);
      search::runSearch(*In.P, SO, PP);
    }
  }

  /// Direct-walk misses of \p DL: the reference the replay-based
  /// search scores are checked against.
  double directCost(const ir::Program &P, const layout::DataLayout &DL,
                    Tracer &T, double &Secs, uint64_t &Accesses) const {
    auto Start = Clock::now();
    ScopedSpan S(T, "cachesim.measureMissRate");
    expt::MissResult M = expt::measureMissRate(P, DL, Cache);
    Secs += secondsSince(Start);
    Accesses += M.Accesses;
    return static_cast<double>(M.Misses);
  }

  void describe(std::ostream &OS) const {
    support::JsonWriter JW(OS);
    JW.beginObject();
    JW.field("machine", MachineModel::base16K().spec());
    JW.key("searches");
    JW.beginArray();
    for (const SearchInput &In : Inputs) {
      JW.beginObject();
      JW.field("kernel", In.Name);
      JW.field("budget", In.Budget);
      JW.field("seed", In.SearchSeed);
      JW.endObject();
    }
    JW.endArray();
    JW.endObject();
    OS << "\n";
  }

  Report run(const Options &O, Tracer &T);
};

Report SearchWorkload::run(const Options &O, Tracer &T) {
  Report R;
  // On a shared host one vCPU can run a third slower than another for
  // tens of seconds. Each set-up and each search is pinned to the next
  // CPU in turn, so every median covers all CPUs the process may use
  // instead of whichever one the scheduler happened to pick for the
  // run. Passes go in pairs on the same CPUs, so a traced run's traced
  // and untraced passes see the same ones.
  const std::vector<int> Cpus = allowedCpus();
  auto PinNext = [&](size_t Turn) {
    if (!Cpus.empty())
      pinTo({Cpus[Turn % Cpus.size()]});
  };
  std::vector<double> Setups;
  for (unsigned Rep = 0; Rep != kSetupReps; ++Rep) {
    PinNext(Rep);
    auto Start = Clock::now();
    setup(T);
    Setups.push_back(secondsSince(Start));
  }

  const size_t NK = Inputs.size();
  std::vector<double> PassWalls, TracedWalls, UntracedWalls;
  std::vector<double> ExactEvalPerPass, OverheadPerPass;
  std::vector<std::vector<double>> PerKernel(NK), PerKernelCpu(NK);
  std::vector<std::optional<SearchOutcomeKey>> Ref(NK);
  std::vector<search::SearchResult> First;
  std::vector<uint64_t> Mismatches(NK, 0);
  std::vector<pipeline::PipelineStats> FirstStats(NK);

  PassClock PC(O);
  auto PhaseStart = Clock::now();
  while (PC.another(PassWalls)) {
    // The traced run alternates untraced and traced passes; the
    // difference of their medians is the tracing overhead.
    const bool TracedPass = O.Trace && PassWalls.size() % 2 == 1;
    T.setEnabled(TracedPass);
    auto Start = Clock::now();
    double ExactEval = 0, SearchSum = 0;
    {
      ScopedSpan PassSpan(T, "bench.pass");
      for (size_t K = 0; K != NK; ++K) {
        SearchInput &In = Inputs[K];
        PinNext(PassWalls.size() / 2 + K);
        auto S0 = Clock::now();
        double C0 = cpuSeconds();
        pipeline::PadPipeline PP(*In.P);
        std::optional<search::SearchResult> Res;
        {
          ScopedSpan S(T, "search.runSearch", static_cast<int64_t>(K));
          Res.emplace(search::runSearch(*In.P, options(In), PP));
        }
        double Lat = secondsSince(S0);
        PerKernel[K].push_back(Lat);
        PerKernelCpu[K].push_back(cpuSeconds() - C0);
        ExactEval += Res->ExactEvalSeconds;
        SearchSum += Lat;
        ++R.Attempted;
        SearchOutcomeKey Key{Res->BestMisses, Res->PadMisses,
                             Res->Best.key(), Res->ExactEvaluations,
                             Res->CandidatesGenerated};
        if (!Ref[K]) {
          Ref[K] = Key;
          FirstStats[K] = PP.stats();
          First.push_back(std::move(*Res));
        } else if (!(*Ref[K] == Key)) {
          // A repeat of a deterministic search that disagrees with the
          // first run is a wrong answer.
          ++Mismatches[K];
        }
      }
    }
    double Wall = secondsSince(Start);
    PassWalls.push_back(Wall);
    (TracedPass ? TracedWalls : UntracedWalls).push_back(Wall);
    ExactEvalPerPass.push_back(ExactEval);
    OverheadPerPass.push_back(SearchSum - ExactEval);
  }
  const double PhaseWall = secondsSince(PhaseStart);
  const double Rss = peakRssMb();
  T.setEnabled(O.Trace);
  if (!Cpus.empty())
    pinTo(Cpus);

  // Output check, untimed: re-simulate each search's best and PAD
  // layouts with the direct walk and compare with the scores the
  // replay engine reported. Repeats were compared with the first run.
  double DirectSecs = 0;
  uint64_t DirectAccesses = 0;
  double LogRatio = 0;
  for (size_t K = 0; K != NK; ++K) {
    ScopedSpan Check(T, "bench.check");
    const search::SearchResult &SR = First[K];
    const ir::Program &P = *Inputs[K].P;
    layout::DataLayout Pad = [&] {
      ScopedSpan S(T, "core.runPad");
      return pad::runPad(P, Cache).Layout;
    }();
    double Best = directCost(P, SR.BestLayout, T, DirectSecs,
                             DirectAccesses);
    double PadCost = directCost(P, Pad, T, DirectSecs, DirectAccesses);
    if (Best != SR.BestMisses || PadCost != SR.PadMisses ||
        SR.BestMisses > SR.PadMisses) {
      std::cerr << "padx_bench: " << Inputs[K].Name
                << " search result does not re-simulate: best "
                << SR.BestMisses << " vs direct " << Best << ", PAD "
                << SR.PadMisses << " vs direct " << PadCost << "\n";
      Mismatches[K] = PerKernel[K].size();
    }
    R.Failed += Mismatches[K];
    LogRatio += std::log(SR.BestMisses / SR.PadMisses);
  }
  const double CostVsPad = std::exp(LogRatio / static_cast<double>(NK));

  // A pass's time is the sum over kernels of each kernel's median
  // search, which drops a burst of host noise that hit one search
  // rather than charging it to the whole pass. Kernels differ
  // several-fold in search time, so percentiles over the pooled
  // searches would jump between kernel classes: latency percentiles are
  // taken per kernel and combined by geometric mean.
  double Wall = 0, Cpu = 0, LogP50 = 0, LogP99 = 0;
  for (size_t K = 0; K != NK; ++K) {
    Wall += median(PerKernel[K]);
    Cpu += median(PerKernelCpu[K]);
    LogP50 += std::log(median(PerKernel[K]) * 1e3);
    LogP99 += std::log(quantile(PerKernel[K], 0.99) * 1e3);
  }
  R.EndToEnd = {
      {"setup_s", median(Setups), "s"},
      {"wall_s", Wall, "s"},
      {"cpu_s", Cpu, "s"},
      {"peak_rss_mb", Rss, "MB"},
      {"req_per_s", static_cast<double>(R.Attempted) / PhaseWall, "1/s"},
      {"p50_ms", std::exp(LogP50 / static_cast<double>(NK)), "ms"},
      {"p99_ms", std::exp(LogP99 / static_cast<double>(NK)), "ms"},
  };
  R.Info["workload"] = O.Workload;
  R.Info["passes"] = std::to_string(PassWalls.size());
  R.Info["pass_walls"] = joined(PassWalls);
  R.Info["latency_samples"] =
      std::to_string(PassWalls.size()) + " per kernel";
  {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", CostVsPad);
    R.Info["cost_vs_pad"] = Buf;
  }
  if (!O.Trace)
    return R;

  // --- Per-layer numbers. Counts come from each kernel's first search
  // (every repeat matched it); times are medians over passes.
  for (const LayerMetricDef &D : kLayerMetrics)
    R.Layer[D.Name] = 0;
  double Improvements = 0;
  for (size_t K = 0; K != NK; ++K) {
    const search::SearchResult &SR = First[K];
    R.Layer["search.exact_evals"] += SR.ExactEvaluations;
    R.Layer["search.generated"] += SR.CandidatesGenerated;
    R.Layer["search.duplicates"] += SR.DuplicatesSkipped;
    R.Layer["search.pruned_static"] += SR.PrunedStatic;
    R.Layer["search.prescreen_skipped"] += SR.PrescreenSkipped;
    R.Layer["search.rounds"] += SR.Rounds;
    R.Layer["search.restarts"] += SR.Restarts;
    R.Layer["exec.batch_width"] =
        std::max<double>(R.Layer["exec.batch_width"], SR.BatchWidth);
    // SearchResult has no counter of accepted moves; the engine logs
    // "improved to" each time a replayed candidate beats the global
    // best, so the ratio counts new global bests, not every accepted
    // climb step.
    for (const std::string &Line : SR.Log)
      if (Line.find("improved to") != std::string::npos)
        ++Improvements;
    R.Layer["pipeline.cache_hits"] +=
        static_cast<double>(FirstStats[K].Analysis.totalHits());
    R.Layer["pipeline.cache_misses"] +=
        static_cast<double>(FirstStats[K].Analysis.totalMisses());
    R.Layer["search." + Inputs[K].Name + "_s"] = median(PerKernel[K]);
  }
  R.Layer["search.eval_ratio"] =
      R.Layer["search.generated"] > 0
          ? R.Layer["search.exact_evals"] / R.Layer["search.generated"]
          : 0;
  R.Layer["search.improve_ratio"] =
      R.Layer["search.exact_evals"] > 0
          ? Improvements / R.Layer["search.exact_evals"]
          : 0;
  R.Layer["search.exact_eval_s"] = median(ExactEvalPerPass);
  R.Layer["search.overhead_s"] = median(OverheadPerPass);
  R.Layer["cost_vs_pad"] = CostVsPad;
  R.Layer["cachesim.l1_maccess_per_s"] =
      static_cast<double>(DirectAccesses) / 1e6 / DirectSecs;

  // Layer probes: time each layer's public entry point on the
  // workload's kernels, once per kernel, inside one probe span.
  double ParseS = 0, PadS = 0, PredictS = 0, RecordS = 0;
  double ReplayS = 0, Batch1S = 0, HierS = 0;
  double TraceAcc = 0, ReplayAcc = 0, HierAcc = 0, Unscored = 0;
  for (size_t K = 0; K != NK; ++K) {
    ScopedSpan Probe(T, "bench.probe", static_cast<int64_t>(K));
    const SearchInput &In = Inputs[K];
    auto Start = Clock::now();
    {
      ScopedSpan S(T, "frontend.parseProgram");
      parseOrDie(In.Source, In.Name);
    }
    ParseS += secondsSince(Start);
    const ir::Program &P = *In.P;
    Start = Clock::now();
    pad::PaddingResult Pad = [&] {
      ScopedSpan S(T, "core.runPad");
      return pad::runPad(P, Cache);
    }();
    PadS += secondsSince(Start);
    Start = Clock::now();
    {
      ScopedSpan S(T, "analysis.predictConflicts");
      Unscored += analysis::predictConflicts(Pad.Layout, Cache)
                      .UnscoredNests;
    }
    PredictS += secondsSince(Start);
    Start = Clock::now();
    std::unique_ptr<exec::RecordedTrace> Rec;
    {
      ScopedSpan S(T, "exec.record");
      Rec = exec::RecordedTrace::record(P);
    }
    RecordS += secondsSince(Start);
    if (Rec)
      TraceAcc += static_cast<double>(Rec->numAccesses());

    // evaluateBatch at the search's width and at 1 over the same
    // layouts; the two must agree exactly.
    search::SimulationCostModel Model(Cache);
    Model.prepareReplay(P);
    const layout::DataLayout Pool[] = {
        layout::originalLayout(P), Pad.Layout,
        pad::runPadLite(P, Cache).Layout,
        First[K].BestLayout};
    std::vector<layout::DataLayout> Layouts;
    for (unsigned I = 0; I != exec::MultiTraceReplayer::kMaxLanes; ++I)
      Layouts.push_back(Pool[I % std::size(Pool)]);
    const size_t N = Layouts.size();
    std::vector<search::CostSample> Wide(N), Narrow(N);
    // Chunks of the model's width, as the search engine hands them over.
    auto Evaluate = [&](std::vector<search::CostSample> &Out) {
      const size_t W = Model.batchWidth();
      for (size_t I = 0; I < N; I += W) {
        size_t Len = std::min(W, N - I);
        Model.evaluateBatch(
            std::span<const layout::DataLayout>(&Layouts[I], Len),
            std::span<search::CostSample>(&Out[I], Len));
      }
    };
    Start = Clock::now();
    {
      ScopedSpan S(T, "exec.evaluateBatch");
      Evaluate(Wide);
    }
    ReplayS += secondsSince(Start);
    Model.setBatchWidth(1);
    Start = Clock::now();
    {
      ScopedSpan S(T, "exec.evaluateBatch1");
      Evaluate(Narrow);
    }
    Batch1S += secondsSince(Start);
    for (size_t I = 0; I != N; ++I) {
      ReplayAcc += static_cast<double>(Wide[I].Accesses);
      if (Wide[I].Cost != Narrow[I].Cost) {
        std::cerr << "padx_bench: batched and sequential replay disagree "
                     "on "
                  << In.Name << "\n";
        ++R.Failed;
      }
    }
    // The hierarchy walk, which the searches above do not run: skylake
    // (8-way L1, L2, L3, TLB) over the best layout.
    Start = Clock::now();
    {
      ScopedSpan S(T, "cachesim.measureHierarchy");
      HierAcc += static_cast<double>(
          expt::measureHierarchy(P, First[K].BestLayout,
                                 MachineModel::skylake())
              .Levels.front()
              .Accesses);
    }
    HierS += secondsSince(Start);
  }
  R.Layer["frontend.parse_ms"] = ParseS * 1e3;
  R.Layer["core.pad_ms"] = PadS * 1e3;
  R.Layer["analysis.predict_ms"] = PredictS * 1e3;
  R.Layer["analysis.unscored_nests"] = Unscored;
  R.Layer["exec.record_ms"] = RecordS * 1e3;
  R.Layer["exec.trace_maccesses"] = TraceAcc / 1e6;
  R.Layer["exec.replay_maccess_per_s"] = ReplayAcc / 1e6 / ReplayS;
  R.Layer["exec.batch1_maccess_per_s"] = ReplayAcc / 1e6 / Batch1S;
  R.Layer["cachesim.hier_maccess_per_s"] = HierAcc / 1e6 / HierS;
  R.Layer["error_rate"] =
      static_cast<double>(R.Failed) / static_cast<double>(R.Attempted);
  R.TracedWall = median(TracedWalls);
  R.UntracedWall = median(UntracedWalls);
  return R;
}

//===----------------------------------------------------------------------===//
// daemon-lint
//===----------------------------------------------------------------------===//

/// Corpus kernels the daemon requests draw from: the ones whose lint
/// does real analysis work (1.8-6 ms cold on the reference host), so a
/// typical request sits well above socket wake-up jitter.
const char *const kDaemonKernels[] = {"shal",   "expl",    "mult",
                                      "simple", "hydro2d_like", "dgefa",
                                      "tomcatv", "chol"};
constexpr unsigned kClients = 2;

/// The requests one client sends per kernel in every pass: mostly lint,
/// evenly over the three formats, plus pad and padlite. Half of each
/// row repeats the kernel's base program (its default size), half
/// carries a fresh one. The mix is synthetic; README.md gives where each
/// share comes from.
struct OpShare {
  const char *Op;
  const char *Format;
  unsigned Count;
};
const OpShare kOpShares[] = {{"lint", "text", 8},
                             {"lint", "json", 8},
                             {"lint", "sarif", 8},
                             {"pad", "", 2},
                             {"padlite", "", 2}};
constexpr unsigned requestsPerKernel() {
  unsigned N = 0;
  for (const OpShare &S : kOpShares)
    N += S.Count;
  return N;
}
/// Requests each client sends per pass.
constexpr unsigned kRequestsPerPass =
    requestsPerKernel() * std::size(kDaemonKernels);
/// Fresh programs take a seeded size within this distance of the
/// default. The band is fixed because lint of the triangular kernels
/// grows quadratically with the size: a stream of ever-larger sizes
/// would make every pass slower than the one before.
constexpr int64_t kFreshSizeBand = 8;
/// Rounds of the base programs each daemon set-up sends.
constexpr unsigned kSetupRounds = 3;
/// Requests of the first pass replayed in-process by the traced run.
constexpr unsigned kProbeRequests = 200;
/// Threads that recompute the CLI answers between passes.
constexpr unsigned kCheckThreads = 4;

int64_t defaultSize(unsigned Kernel) {
  return kernels::findKernel(kDaemonKernels[Kernel])->DefaultSize;
}

struct FrameSpec {
  std::string Op;     ///< lint | pad | padlite
  std::string Format; ///< lint only: text | json | sarif
  unsigned Kernel = 0;
  int64_t Size = 0;
  /// Nonzero for a fresh program: the kernel renamed with this tag, so
  /// the daemon has never seen it, whatever its size.
  uint64_t Fresh = 0;

  std::string key() const {
    return Op + "/" + Format + "/" + kDaemonKernels[Kernel] + "/" +
           std::to_string(Size) + "/" + std::to_string(Fresh);
  }
  /// The PadLang text: the kernel's source, renamed when fresh.
  std::string source() const {
    std::string S = kernels::kernelSource(kDaemonKernels[Kernel], Size);
    if (Fresh) {
      size_t At = S.find("program ");
      size_t End = S.find_first_of(" \n", At + 8);
      if (At != std::string::npos && End != std::string::npos)
        S.insert(End, "_v" + std::to_string(Fresh));
    }
    return S;
  }
  std::string filename() const {
    return std::string(kDaemonKernels[Kernel]) + ".pad";
  }
};

/// One client's seeded request stream. Every pass sends the same
/// requests (kOpShares for each kernel); the seed sets their order and
/// the sizes of the fresh programs. A fixed pass keeps each request
/// class at the same share in every run, so no percentile moves with a
/// seed's luck in drawing the slowest class.
class RequestMix {
public:
  RequestMix(uint64_t Seed, unsigned Client)
      : R(Rng(Seed).next() + Client), Client(Client) {}

  std::vector<FrameSpec> nextPass() {
    std::vector<FrameSpec> Pass;
    for (unsigned K = 0; K != std::size(kDaemonKernels); ++K)
      for (const OpShare &S : kOpShares)
        for (unsigned I = 0; I != S.Count; ++I) {
          FrameSpec F;
          F.Op = S.Op;
          F.Format = S.Format;
          F.Kernel = K;
          F.Size = defaultSize(K);
          if (I % 2) {
            F.Size += static_cast<int64_t>(R.below(2 * kFreshSizeBand + 1)) -
                      kFreshSizeBand;
            // Clients draw tags from disjoint sequences, so no two fresh
            // programs share a name.
            F.Fresh = ++Count * kClients + Client;
          }
          Pass.push_back(F);
        }
    shuffle(Pass, R);
    return Pass;
  }

private:
  Rng R;
  unsigned Client;
  uint64_t Count = 0;
};

std::string buildFrame(int64_t Id, const FrameSpec &F,
                       const std::string &Source) {
  std::ostringstream OS;
  support::JsonWriter JW(OS);
  JW.beginObject();
  JW.field("id", Id);
  JW.field("op", F.Op);
  JW.field("source", Source);
  JW.field("filename", F.filename());
  if (!F.Format.empty())
    JW.field("format", F.Format);
  JW.endObject();
  return OS.str();
}

struct Frame {
  int64_t Id = 0;
  uint32_t Key = 0; ///< Index into DaemonWorkload::Specs.
  std::string Text; ///< Newline-terminated.

  std::string_view line() const {
    return std::string_view(Text).substr(0, Text.size() - 1);
  }
};

/// What a client got back for one frame.
struct Reply {
  bool Transport = false; ///< A reply line arrived.
  std::string Line;
  double LatencyMs = 0;
};

struct ClientConn {
  support::FileDescriptor Fd;
  std::unique_ptr<support::LineReader> Reader;
};

/// The report padlint prints for \p Res in the frame's format.
std::string renderLint(const FrameSpec &F, const lint::LintResult &Res,
                       const layout::DataLayout &DL,
                       const std::string &Source) {
  if (F.Format == "text")
    return lint::renderText(Res, DL, Source, F.filename());
  std::ostringstream OS;
  if (F.Format == "json") {
    lint::writeJson(OS, Res, DL, CacheConfig::base16K(), F.filename());
  } else {
    lint::SarifFileResult SF{F.filename(), DL.program().name(), &Res, &DL};
    lint::writeSarif(OS, {SF});
  }
  return OS.str();
}

/// The CLI path's answer: the bytes padlint prints for a lint frame,
/// or padtool --emit's transformed source for pad and padlite.
std::string cliAnswer(const FrameSpec &F, const std::string &Source) {
  std::unique_ptr<ir::Program> P = parseOrDie(Source, F.filename());
  const CacheConfig Cache = CacheConfig::base16K();
  pipeline::PadPipeline PP(*P);
  if (F.Op != "lint")
    return layout::transformedSourceToString(
        (F.Op == "pad" ? pad::runPad(*P, Cache, PP)
                       : pad::runPadLite(*P, Cache, PP))
            .Layout);
  layout::DataLayout DL = layout::originalLayout(*P);
  lint::LintResult Res = lint::Linter(lint::LintOptions{Cache}).run(DL, PP);
  return renderLint(F, Res, DL, Source);
}

/// Runs Fn(0..N-1) on kCheckThreads threads.
template <typename Fn> void parallelIndex(size_t N, Fn &&F) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != kCheckThreads; ++T)
    Ts.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        F(I);
    });
  for (std::thread &T : Ts)
    T.join();
}

class DaemonWorkload {
public:
  explicit DaemonWorkload(uint64_t Seed) {
    for (unsigned C = 0; C != kClients; ++C)
      Mixes.emplace_back(Seed, C);
    SocketPath = std::string(kOutDir) + "/padd-" +
                 std::to_string(::getpid()) + ".sock";
  }
  ~DaemonWorkload() { stopServer(); }
  DaemonWorkload(const DaemonWorkload &) = delete;
  DaemonWorkload &operator=(const DaemonWorkload &) = delete;

  Report run(const Options &O, Tracer &T);

  /// The first pass's request keys, for --describe.
  void describe(std::ostream &OS) {
    support::JsonWriter JW(OS);
    JW.beginObject();
    uint64_t Digest = fnv1a("");
    JW.key("clients");
    JW.beginArray();
    for (const std::vector<Frame> &Fs : nextPass()) {
      JW.beginArray();
      for (const Frame &F : Fs) {
        JW.value(Specs[F.Key].key());
        Digest = fnv1a(F.Text, Digest);
      }
      JW.endArray();
    }
    JW.endArray();
    JW.field("frames_digest", Digest);
    JW.endObject();
    OS << "\n";
  }

private:
  uint32_t keyIndex(const FrameSpec &F) {
    auto [It, New] = KeyIds.try_emplace(F.key(),
                                        static_cast<uint32_t>(Specs.size()));
    if (New) {
      Specs.push_back(F);
      Sources.push_back(F.source());
      AnswerHash.push_back(0);
    }
    return It->second;
  }

  Frame frame(const FrameSpec &F) {
    Frame Fr;
    Fr.Id = NextId++;
    Fr.Key = keyIndex(F);
    Fr.Text = buildFrame(Fr.Id, F, Sources[Fr.Key]) + "\n";
    return Fr;
  }

  /// The next pass's frames for every client, generated before the
  /// pass starts so source generation is not timed.
  std::vector<std::vector<Frame>> nextPass() {
    std::vector<std::vector<Frame>> Out(kClients);
    for (unsigned C = 0; C != kClients; ++C)
      for (const FrameSpec &F : Mixes[C].nextPass())
        Out[C].push_back(frame(F));
    return Out;
  }

  /// Every base program (a kernel at its default size) in every op and
  /// format, split across the clients: the warm-up traffic.
  std::vector<std::vector<Frame>> baseFrames() {
    std::vector<std::vector<Frame>> Out(kClients);
    size_t N = 0;
    for (unsigned K = 0; K != std::size(kDaemonKernels); ++K)
      for (const char *OpFmt :
           {"lint/text", "lint/json", "lint/sarif", "pad/", "padlite/"}) {
        std::string S = OpFmt;
        FrameSpec F;
        F.Op = S.substr(0, S.find('/'));
        F.Format = S.substr(S.find('/') + 1);
        F.Kernel = K;
        F.Size = defaultSize(K);
        Out[N++ % kClients].push_back(frame(F));
      }
    return Out;
  }

  bool startServer(std::string *Err);
  void stopServer();
  /// Sends each client's frames in a closed loop, all clients at once.
  std::vector<std::vector<Reply>>
  drive(const std::vector<std::vector<Frame>> &Frames, Tracer &T);
  /// Checks every reply against the CLI path; returns the failures.
  uint64_t check(const std::vector<std::vector<Frame>> &Frames,
                 const std::vector<std::vector<Reply>> &Replies);

  std::vector<RequestMix> Mixes;
  std::string SocketPath;
  std::map<std::string, uint32_t> KeyIds;
  /// By key index: the request, its program text, and the hash of the
  /// CLI answer (0 until checked once).
  std::vector<FrameSpec> Specs;
  std::vector<std::string> Sources;
  std::vector<uint64_t> AnswerHash;
  int64_t NextId = 1;

  std::unique_ptr<server::PaddServer> Server;
  std::vector<ClientConn> Conns;
};

bool DaemonWorkload::startServer(std::string *Err) {
  std::filesystem::create_directories(kOutDir);
  server::ServerOptions SO;
  SO.SocketPath = SocketPath;
  Server = std::make_unique<server::PaddServer>(SO);
  if (!Server->start(Err))
    return false;
  Conns.clear();
  for (unsigned C = 0; C != kClients; ++C) {
    ClientConn CC;
    CC.Fd = support::connectUnix(SocketPath, Err);
    if (!CC.Fd.valid())
      return false;
    CC.Reader = std::make_unique<support::LineReader>(CC.Fd.get(),
                                                      size_t(64) << 20);
    Conns.push_back(std::move(CC));
  }
  return true;
}

void DaemonWorkload::stopServer() {
  Conns.clear();
  if (Server)
    Server->stop();
  Server.reset();
  std::error_code EC;
  std::filesystem::remove(SocketPath, EC);
}

std::vector<std::vector<Reply>>
DaemonWorkload::drive(const std::vector<std::vector<Frame>> &Frames,
                      Tracer &T) {
  std::vector<std::vector<Reply>> Out(Frames.size());
  std::vector<std::thread> Threads;
  for (size_t C = 0; C != Frames.size(); ++C) {
    Threads.emplace_back([&, C] {
      ClientConn &CC = Conns[C];
      std::string Err;
      bool Broken = false;
      for (const Frame &F : Frames[C]) {
        Reply Rp;
        auto Start = Clock::now();
        {
          ScopedSpan S(T, "client.request", F.Id);
          Rp.Transport =
              !Broken && support::sendAll(CC.Fd.get(), F.Text, &Err) &&
              CC.Reader->readLine(Rp.Line, &Err, 60000) ==
                  support::LineReader::Status::Line;
        }
        Rp.LatencyMs = secondsSince(Start) * 1e3;
        Broken = !Rp.Transport;
        Out[C].push_back(std::move(Rp));
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  return Out;
}

uint64_t
DaemonWorkload::check(const std::vector<std::vector<Frame>> &Frames,
                      const std::vector<std::vector<Reply>> &Replies) {
  // The CLI answer for each key not seen before, computed in parallel.
  std::vector<uint32_t> NewKeys;
  for (const std::vector<Frame> &Fs : Frames)
    for (const Frame &F : Fs)
      if (AnswerHash[F.Key] == 0) {
        AnswerHash[F.Key] = 1; // Claimed; filled below.
        NewKeys.push_back(F.Key);
      }
  parallelIndex(NewKeys.size(), [&](size_t I) {
    uint32_t K = NewKeys[I];
    AnswerHash[K] = fnv1a(cliAnswer(Specs[K], Sources[K]));
  });

  // Every reply must be ok, echo its id, and embed exactly those bytes.
  std::vector<std::pair<const Frame *, const Reply *>> All;
  for (size_t C = 0; C != Frames.size(); ++C)
    for (size_t I = 0; I != Frames[C].size(); ++I)
      All.emplace_back(&Frames[C][I], &Replies[C][I]);
  std::atomic<uint64_t> Failed{0};
  parallelIndex(All.size(), [&](size_t I) {
    const auto [F, Rp] = All[I];
    const FrameSpec &Spec = Specs[F->Key];
    std::optional<support::JsonValue> Doc;
    if (Rp->Transport)
      Doc = support::parseJson(Rp->Line);
    const support::JsonValue *Res = Doc ? Doc->find("result") : nullptr;
    const char *Field = Spec.Op == "lint" ? "report" : "transformed_source";
    if (!Doc || Doc->getInt("id", -1) != F->Id ||
        !Doc->getBool("ok", false) || !Res ||
        fnv1a(Res->getString(Field, "")) != AnswerHash[F->Key]) {
      if (Failed.fetch_add(1) < 3)
        std::cerr << "padx_bench: wrong daemon reply for " << Spec.key()
                  << "\n";
    }
  });
  return Failed.load();
}

Report DaemonWorkload::run(const Options &O, Tracer &T) {
  Report R;
  std::string Err;
  std::vector<double> Setups;
  for (unsigned Rep = 0; Rep != kSetupReps; ++Rep) {
    // Each repetition starts a fresh server with a cold shared cache and
    // warms it with the base programs; the last server stays up. The
    // frames are built before the clock starts and the replies checked
    // after it stops, so setup_s times padd alone.
    if (Rep)
      stopServer();
    std::vector<std::vector<std::vector<Frame>>> Rounds;
    for (unsigned Round = 0; Round != kSetupRounds; ++Round)
      Rounds.push_back(baseFrames());
    std::vector<std::vector<std::vector<Reply>>> Replies;
    auto Start = Clock::now();
    if (!startServer(&Err)) {
      std::cerr << "padx_bench: cannot start padd: " << Err << "\n";
      std::exit(1);
    }
    // The first round fills the shared cache, the others run on it.
    for (const std::vector<std::vector<Frame>> &Base : Rounds)
      Replies.push_back(drive(Base, T));
    Setups.push_back(secondsSince(Start));
    for (size_t Round = 0; Round != Rounds.size(); ++Round) {
      R.Failed += check(Rounds[Round], Replies[Round]);
      for (const std::vector<Frame> &Fs : Rounds[Round])
        R.Attempted += Fs.size();
    }
  }

  std::vector<double> PassWalls, PassCpus, TracedWalls, UntracedWalls;
  std::vector<double> Latencies;
  std::vector<std::vector<Frame>> FirstPass;
  double PhaseWall = 0;
  PassClock PC(O);
  while (PC.another(PassWalls)) {
    std::vector<std::vector<Frame>> Frames = nextPass();
    const bool TracedPass = O.Trace && PassWalls.size() % 2 == 1;
    T.setEnabled(TracedPass);
    auto Start = Clock::now();
    double Cpu0 = cpuSeconds();
    std::vector<std::vector<Reply>> Replies = drive(Frames, T);
    double Wall = secondsSince(Start);
    PassCpus.push_back(cpuSeconds() - Cpu0);
    PhaseWall += Wall;
    PassWalls.push_back(Wall);
    (TracedPass ? TracedWalls : UntracedWalls).push_back(Wall);
    T.setEnabled(false);
    for (const std::vector<Reply> &Rs : Replies)
      for (const Reply &Rp : Rs)
        Latencies.push_back(Rp.LatencyMs);
    R.Attempted += kClients * kRequestsPerPass;
    // The check runs between passes, outside the pass timings.
    R.Failed += check(Frames, Replies);
    if (FirstPass.empty())
      FirstPass = std::move(Frames);
  }
  const double Rss = peakRssMb();
  T.setEnabled(O.Trace);

  // Server-side counters after the timed phase.
  std::optional<support::JsonValue> Stats;
  {
    std::string Line;
    if (support::sendAll(Conns[0].Fd.get(),
                         "{\"id\":0,\"op\":\"stats\"}\n", &Err) &&
        Conns[0].Reader->readLine(Line, &Err, 60000) ==
            support::LineReader::Status::Line)
      Stats = support::parseJson(Line);
  }
  stopServer();
  const support::JsonValue *Res = Stats ? Stats->find("result") : nullptr;
  const support::JsonValue *SrvStats = Res ? Res->find("server") : nullptr;
  const support::JsonValue *Cache =
      Res ? Res->find("shared_cache") : nullptr;
  const support::JsonValue *Reqs = Res ? Res->find("requests") : nullptr;
  if (!SrvStats || !Cache || !Reqs) {
    std::cerr << "padx_bench: stats op failed\n";
    ++R.Failed;
  }

  const double P50 = median(Latencies);
  R.EndToEnd = {
      {"setup_s", median(Setups), "s"},
      {"wall_s", median(PassWalls), "s"},
      {"cpu_s", median(PassCpus), "s"},
      {"peak_rss_mb", Rss, "MB"},
      {"req_per_s", static_cast<double>(Latencies.size()) / PhaseWall,
       "1/s"},
      {"p50_ms", P50, "ms"},
      {"p99_ms", quantile(Latencies, 0.99), "ms"},
  };
  R.Info["workload"] = O.Workload;
  R.Info["passes"] = std::to_string(PassWalls.size());
  R.Info["pass_walls"] = joined(PassWalls);
  R.Info["latency_samples"] = std::to_string(Latencies.size());
  R.Info["samples_beyond_p99"] = std::to_string(
      Latencies.size() - static_cast<size_t>(
                             std::ceil(0.99 * static_cast<double>(
                                                  Latencies.size()))));
  R.Info["distinct_programs"] = std::to_string(Specs.size());
  if (!O.Trace)
    return R;

  // --- Per-layer numbers.
  for (const LayerMetricDef &D : kLayerMetrics)
    R.Layer[D.Name] = 0;
  if (SrvStats && Cache && Reqs) {
    R.Layer["pipeline.shared_hit_rate"] = Cache->getDouble("hit_rate", 0);
    R.Layer["server.avg_service_us"] =
        SrvStats->getDouble("avg_service_us", 0);
    R.Layer["server.queue_peak"] =
        SrvStats->getDouble("peak_queue_depth", 0);
    R.Layer["server.shed"] = SrvStats->getDouble("shed_queue_full", 0) +
                             SrvStats->getDouble("shed_conn_cap", 0);
    R.Layer["server.errors"] = Reqs->getDouble("failed", 0);
  }

  // In-process replay of the first pass's requests: the handler alone
  // (no socket), the frame parse, and the CLI path's layers one at a
  // time, each in its own span. Times are medians per request.
  pipeline::SharedAnalysisCache Shared;
  server::RequestHandler H(server::ServerOptions{}, Shared);
  for (const std::vector<Frame> &Fs : baseFrames())
    for (const Frame &F : Fs)
      H.handleLine(F.line());
  std::vector<double> HandleMs, ParseUs, FrontMs, PadMs, LintMs, RenderMs,
      PredictMs;
  double Findings = 0;
  std::vector<const Frame *> Probe;
  for (size_t I = 0; Probe.size() < kProbeRequests && I < kRequestsPerPass;
       ++I)
    for (const std::vector<Frame> &Fs : FirstPass)
      if (Probe.size() < kProbeRequests)
        Probe.push_back(&Fs[I]);
  const CacheConfig C16 = CacheConfig::base16K();
  for (const Frame *Fr : Probe) {
    ScopedSpan Req(T, "bench.request", Fr->Id);
    const FrameSpec &F = Specs[Fr->Key];
    auto Start = Clock::now();
    {
      ScopedSpan S(T, "server.handleLine", Fr->Id);
      H.handleLine(Fr->line());
    }
    HandleMs.push_back(secondsSince(Start) * 1e3);

    Start = Clock::now();
    {
      ScopedSpan S(T, "server.frame", Fr->Id);
      std::optional<support::JsonValue> Doc;
      {
        ScopedSpan J(T, "support.parseJson", Fr->Id);
        Doc = support::parseJson(Fr->line());
      }
      server::Request Rq;
      std::string E;
      ScopedSpan P(T, "server.parseRequest", Fr->Id);
      if (!Doc || !server::parseRequest(*Doc, Rq, E))
        ++R.Failed;
    }
    ParseUs.push_back(secondsSince(Start) * 1e6);

    const std::string &Source = Sources[Fr->Key];
    Start = Clock::now();
    std::unique_ptr<ir::Program> P;
    {
      ScopedSpan S(T, "frontend.parseProgram", Fr->Id);
      P = parseOrDie(Source, F.filename());
    }
    FrontMs.push_back(secondsSince(Start) * 1e3);
    pipeline::PadPipeline PP(*P);
    layout::DataLayout DL = [&] {
      ScopedSpan S(T, "layout.originalLayout", Fr->Id);
      return layout::originalLayout(*P);
    }();
    if (F.Op == "lint") {
      Start = Clock::now();
      lint::LintResult LR = [&] {
        ScopedSpan S(T, "lint.run", Fr->Id);
        return lint::Linter(lint::LintOptions{C16}).run(DL, PP);
      }();
      LintMs.push_back(secondsSince(Start) * 1e3);
      Findings += static_cast<double>(LR.Findings.size());
      Start = Clock::now();
      {
        ScopedSpan S(T, "lint.render", Fr->Id);
        renderLint(F, LR, DL, Source);
      }
      RenderMs.push_back(secondsSince(Start) * 1e3);
    } else {
      Start = Clock::now();
      pad::PaddingResult PadRes = [&] {
        ScopedSpan S(T, "core.runPad", Fr->Id);
        return F.Op == "pad" ? pad::runPad(*P, C16, PP)
                             : pad::runPadLite(*P, C16, PP);
      }();
      PadMs.push_back(secondsSince(Start) * 1e3);
      ScopedSpan S(T, "layout.transformedSource", Fr->Id);
      layout::transformedSourceToString(PadRes.Layout);
    }
    Start = Clock::now();
    {
      ScopedSpan S(T, "analysis.predictConflicts", Fr->Id);
      R.Layer["analysis.unscored_nests"] +=
          analysis::predictConflicts(DL, C16).UnscoredNests;
    }
    PredictMs.push_back(secondsSince(Start) * 1e3);
  }
  R.Layer["server.handle_ms"] = median(HandleMs);
  R.Layer["server.parse_us"] = median(ParseUs);
  R.Layer["server.wire_ms"] = P50 - median(HandleMs);
  R.Layer["frontend.parse_ms"] = median(FrontMs);
  R.Layer["core.pad_ms"] = median(PadMs);
  R.Layer["lint.run_ms"] = median(LintMs);
  R.Layer["lint.render_ms"] = median(RenderMs);
  R.Layer["lint.findings"] = Findings;
  R.Layer["analysis.predict_ms"] = median(PredictMs);
  R.Layer["error_rate"] =
      static_cast<double>(R.Failed) / static_cast<double>(R.Attempted);
  R.TracedWall = median(TracedWalls);
  R.UntracedWall = median(UntracedWalls);
  return R;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--describe") {
      O.Describe = true;
      continue;
    }
    if (!(V = Value()))
      return false;
    char *End = nullptr;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, &End, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, &End);
    else if (A == "--trace")
      O.Trace = std::strtol(V, &End, 10) != 0;
    else if (A == "--passes")
      O.Passes = static_cast<unsigned>(std::strtoul(V, &End, 10));
    else
      return false;
    if (End && *End)
      return false;
  }
  return O.Workload == "search-l1" || O.Workload == "daemon-lint";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::cerr << "usage: padx_bench --workload search-l1|daemon-lint "
                 "--seed N --seconds S --trace 0|1 [--passes N] "
                 "[--describe]\n";
    return 1;
  }
  Tracer T(O.Trace);
  Report R;
  if (O.Workload == "daemon-lint") {
    DaemonWorkload W(O.Seed);
    if (O.Describe) {
      W.describe(std::cout);
      return 0;
    }
    R = W.run(O, T);
  } else {
    SearchWorkload W(O.Seed);
    if (O.Describe) {
      W.describe(std::cout);
      return 0;
    }
    R = W.run(O, T);
  }
  emit(O, T, R);
  return 0;
}
