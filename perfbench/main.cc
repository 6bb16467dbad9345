// The repository benchmark program: one process, one thread, one workload.
//
//   vlog_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// It repeats identical rounds of the workload (same seed, fresh stack each round) until the
// timed phases add up to S wall-seconds, then prints every metric with its unit and, as the
// last line of standard output, one JSON object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and traced rounds
// and reports the per-layer metrics: span self times from the traced rounds, the layers'
// counts, and the tracing overhead. The exit code is 0 only when every output was correct.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace {

using namespace perfbench;

constexpr uint32_t kMinRounds = 3;
constexpr uint32_t kMinTracedRounds = 2;  // And as many untraced, alternating.
// setup_s is the median of at least this many set-ups: each timed round's own, one set-up-only
// round after each timed round, and set-up-only rounds at the end to make up the count.
// Spreading them over the whole run averages the machine's slow drifts, as the timed rounds do.
constexpr size_t kMinSetups = 21;
// Stop starting rounds after this much wall time, whatever --seconds asked for.
constexpr double kMaxRunWallS = 120;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) {
        return false;
      }
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The q-quantile of `v`, interpolated as Python's statistics.quantiles(method="exclusive"),
// except that it never extrapolates past the smallest or largest value.
double Quantile(std::vector<double> v, double q) {
  if (v.size() < 2) {
    return v.empty() ? 0 : v[0];
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() + 1);
  const size_t j = std::clamp<size_t>(static_cast<size_t>(pos), 1, v.size() - 1);
  const double delta = std::clamp(pos - static_cast<double>(j), 0.0, 1.0);
  return v[j - 1] + delta * (v[j] - v[j - 1]);
}

// A run's rate is the upper decile of its rounds' rates. Every round does identical work, and
// a shared host only ever slows a round down, by 15-45% for seconds to tens of seconds at a
// time. The fastest rounds are therefore the steadiest estimate of what the program costs:
// where the host's speed changed within runs, the upper decile spread about half as much
// across runs as the median did.
double RunRate(const std::vector<double>& round_rates) { return Quantile(round_rates, 0.9); }

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

// Everything a round's simulated outputs and counts are, as text: identical rounds of one
// seed must produce identical digests.
std::string Digest(const RoundResult& r) {
  std::string out;
  char buf[96];
  const auto add = [&](const char* name, double v) {
    std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, v);
    out += buf;
  };
  add("units", static_cast<double>(r.units));
  add("failed", static_cast<double>(r.failed));
  add("sim_iops", r.sim_iops);
  add("sim_p50_ms", r.sim_p50_ms);
  add("sim_p99_ms", r.sim_p99_ms);
  add("sim_max_backlog", r.sim_max_backlog);
  for (const auto& [name, value] : r.counts) {
    add(name.c_str(), value);
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics, bool correct, uint64_t attempted,
                 uint64_t failed) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vlog_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans-out PATH]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Keep freed memory in the process, so a round reuses the pages the previous round touched
  // instead of faulting in fresh ones. On a virtual machine fresh-page faults cost a varying
  // amount, which made set-up times bimodal from run to run; the simulator's own work is what
  // the benchmark measures. 32 MiB is glibc's largest mmap threshold and exceeds every image.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);

  SpanRecorder recorder;
  SelfTimes self_times;
  uint32_t traced_rounds = 0;
  std::vector<double> untraced_rates;
  std::vector<double> traced_rates;
  std::vector<double> setup_s;
  RoundResult first;  // Every round must repeat its simulated results and counts.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool deterministic = true;
  double timed_total = 0;
  // A set-up-only round attempts no units; a failed set-up counts as one failed unit.
  const auto setup_round = [&] {
    const RoundResult r = workload->run(args.seed, /*setup_only=*/true);
    setup_s.push_back(r.setup_s);
    attempted += r.failed;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "  FAILURE: %s\n", e.c_str());
    }
  };
  const auto run_start = std::chrono::steady_clock::now();
  for (uint32_t round = 0; failed == 0; ++round) {
    const bool traced = args.trace && round % 2 == 1;
    if (traced) {
      recorder.Clear();
      g_spans = &recorder;
    }
    RoundResult r = workload->run(args.seed, /*setup_only=*/false);
    g_spans = nullptr;
    if (traced) {
      AppendSelfTimes(recorder.spans(), &self_times);
      ++traced_rounds;
    }
    const double rate = r.timed_s > 0 ? static_cast<double>(r.units) / r.timed_s : 0;
    (traced ? traced_rates : untraced_rates).push_back(rate);
    if (!args.trace) {
      setup_s.push_back(r.setup_s);
      setup_round();
    }
    attempted += r.attempted;
    failed += r.failed;
    timed_total += r.timed_s;
    std::fprintf(stderr, "round %u%s: %llu units, setup %.4f s, timed %.4f s, %.1f units/wall-s\n",
                 round, traced ? " (traced)" : "", static_cast<unsigned long long>(r.units),
                 r.setup_s, r.timed_s, rate);
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "  FAILURE: %s\n", e.c_str());
    }
    if (round == 0) {
      first = std::move(r);
    } else if (Digest(r) != Digest(first)) {
      deterministic = false;
      std::fprintf(stderr, "  FAILURE: round %u differs from round 0 with the same seed\n"
                   "    round 0: %s\n    round %u: %s\n",
                   round, Digest(first).c_str(), round, Digest(r).c_str());
    }
    if (failed > 0 || !deterministic) {
      break;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start).count();
    const bool enough_rounds = args.trace ? traced_rounds >= kMinTracedRounds &&
                                                untraced_rates.size() >= kMinTracedRounds
                                          : round + 1 >= kMinRounds;
    if ((enough_rounds && timed_total >= args.seconds) ||
        (elapsed > kMaxRunWallS && (!args.trace || traced_rounds > 0))) {
      break;
    }
  }

  while (!args.trace && failed == 0 && setup_s.size() < kMinSetups) {
    setup_round();
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"ops_per_wall_s", RunRate(untraced_rates), "units/s"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
        {"sim_iops", first.sim_iops, "ops/sim-s"},
        {"sim_p50_ms", first.sim_p50_ms, "sim-ms"},
        {"sim_p99_ms", first.sim_p99_ms, "sim-ms"},
    };
  } else {
    for (size_t i = 0; i < kSpanNames; ++i) {
      const std::string name = SpanNameString(static_cast<SpanName>(i));
      const SpanSummary s = Summarize(self_times[i], traced_rounds);
      metrics.push_back({name + ".calls", s.calls, "count"});
      metrics.push_back({name + ".wall_s", s.self_s, "s"});
      metrics.push_back({name + ".p50_us", s.p50_us, "us"});
      metrics.push_back({name + ".p99_us", s.p99_us, "us"});
    }
    for (const auto& [name, unit] : CountMetrics()) {
      const auto it = first.counts.find(name);
      metrics.push_back({name, it != first.counts.end() ? it->second : 0.0, unit});
    }
    metrics.push_back({"bench.sim_max_backlog", first.sim_max_backlog, "ops"});
    metrics.push_back({"bench.sim_samples", static_cast<double>(first.sim_samples), "count"});
    const double untraced = RunRate(untraced_rates);
    const double traced = RunRate(traced_rates);
    metrics.push_back({"bench.untraced_ops_per_wall_s", untraced, "units/s"});
    metrics.push_back({"bench.traced_ops_per_wall_s", traced, "units/s"});
    metrics.push_back({"bench.trace_overhead_ops_per_wall_s", traced - untraced, "units/s"});
    if (!args.spans_out.empty() && !WriteSpans(args.spans_out, recorder.spans())) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans_out.c_str());
      return 1;
    }
  }

  const bool correct = failed == 0 && deterministic;
  std::printf("workload %s seed %llu: %zu timed rounds, %.2f timed wall-s, %zu set-ups\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              untraced_rates.size() + traced_rates.size(), timed_total, setup_s.size());
  std::printf("sim latency: %llu samples per round, tail taken at p%.4g\n",
              static_cast<unsigned long long>(first.sim_samples), first.sim_tail_pct);
  std::printf("error_rate %.6g ratio (%llu failed of %llu attempted)\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  for (const Metric& m : metrics) {
    std::printf("%-44s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", Json(metrics, correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}
