// Timeline engine tests: window rotation and counter/gauge sampling semantics, the exact
// merged-windows == run-wide histogram identity, SLO span coalescing with dominant-component
// attribution, the steady-state detector, the attached-timeline-never-moves-the-clock
// guarantee, and byte-identical open-loop Poisson reruns.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/time.h"
#include "src/core/vld.h"
#include "src/obs/histogram.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/simdisk/disk_params.h"
#include "src/simdisk/sim_disk.h"
#include "src/workload/queue_sweep.h"

namespace vlog {
namespace {

using common::Milliseconds;
using obs::LatencyHistogram;
using obs::Timeline;
using obs::TimelineConfig;
using obs::TimelineWindow;
using obs::WindowedHistogram;

// Bit-for-bit histogram equality: identical bucket vectors and identical exact summaries.
bool HistEq(const LatencyHistogram& a, const LatencyHistogram& b) {
  return a.buckets() == b.buckets() && a.Count() == b.Count() && a.Sum() == b.Sum() &&
         a.Min() == b.Min() && a.Max() == b.Max();
}

// --- Window rotation and sampling semantics ------------------------------------------------

TEST(TimelineTest, CounterDeltasAndGaugeSamplesPerWindow) {
  uint64_t cumulative = 0;
  uint64_t level = 7;
  Timeline tl(TimelineConfig{.window = Milliseconds(10), .start = 0});
  tl.AddCounter("ops", [&] { return cumulative; });
  tl.AddGauge("depth", [&] { return level; });

  cumulative = 5;
  level = 3;
  tl.Poll(Milliseconds(10));  // Closes window 0 exactly at its boundary.
  cumulative = 12;
  level = 9;
  tl.Poll(Milliseconds(21));  // Past window 1's end: closes it.

  ASSERT_EQ(tl.windows().size(), 2u);
  EXPECT_EQ(tl.windows()[0].index, 0u);
  EXPECT_EQ(tl.windows()[0].start, Milliseconds(0));
  EXPECT_EQ(tl.windows()[0].end, Milliseconds(10));
  EXPECT_EQ(tl.windows()[0].counters[0], 5u);  // Delta from 0.
  EXPECT_EQ(tl.windows()[0].gauges[0], 3u);    // Sampled at close.
  EXPECT_EQ(tl.windows()[1].counters[0], 7u);  // Delta from the previous close.
  EXPECT_EQ(tl.windows()[1].gauges[0], 9u);
}

TEST(TimelineTest, PollAcrossSeveralBoundariesChargesDeltaToFirstElapsedWindow) {
  uint64_t cumulative = 0;
  Timeline tl(TimelineConfig{.window = Milliseconds(10), .start = 0});
  tl.AddCounter("ops", [&] { return cumulative; });
  cumulative = 30;
  tl.Poll(Milliseconds(35));  // Crosses three boundaries in one Poll.
  ASSERT_EQ(tl.windows().size(), 3u);
  EXPECT_EQ(tl.windows()[0].counters[0], 30u);  // Whole delta on the first elapsed window.
  EXPECT_EQ(tl.windows()[1].counters[0], 0u);
  EXPECT_EQ(tl.windows()[2].counters[0], 0u);
}

TEST(TimelineTest, FinishClosesPartialTailWindow) {
  Timeline tl(TimelineConfig{.window = Milliseconds(10), .start = 0});
  WindowedHistogram& h = tl.AddHistogram("lat");
  tl.Poll(Milliseconds(10));
  h.Record(1000);
  tl.Finish(Milliseconds(14));  // Mid-window: the tail closes at 14 ms, not 20.
  ASSERT_EQ(tl.windows().size(), 2u);
  EXPECT_EQ(tl.windows()[1].start, Milliseconds(10));
  EXPECT_EQ(tl.windows()[1].end, Milliseconds(14));
  EXPECT_EQ(tl.windows()[1].histograms[0].Count(), 1u);
}

// --- The exact merge identity (satellite: merged windows == run-wide, bit for bit) ---------

TEST(TimelineTest, MergedWindowHistogramsEqualRunWideExactly) {
  Timeline tl(TimelineConfig{.window = Milliseconds(10), .start = 0});
  WindowedHistogram& h = tl.AddHistogram("lat");
  // Window 0: a spread of magnitudes. Window 1: empty. Window 2: a single sample.
  h.Record(17);
  h.Record(1000);
  h.Record(123456789);
  tl.Poll(Milliseconds(10));
  tl.Poll(Milliseconds(20));  // Window 1 closes with nothing recorded.
  h.Record(42);
  tl.Finish(Milliseconds(25));

  ASSERT_EQ(tl.windows().size(), 3u);
  EXPECT_EQ(tl.windows()[1].histograms[0].Count(), 0u);  // The empty window really is empty.
  LatencyHistogram merged;
  for (const TimelineWindow& w : tl.windows()) {
    merged.Merge(w.histograms[0]);
  }
  EXPECT_TRUE(HistEq(merged, h.total()));
  EXPECT_EQ(merged.Count(), 4u);
  EXPECT_EQ(merged.Min(), 17);
  EXPECT_EQ(merged.Max(), 123456789);
}

TEST(TimelineTest, MergeIdentityHoldsForSingleSampleRun) {
  Timeline tl(TimelineConfig{.window = Milliseconds(10), .start = 0});
  WindowedHistogram& h = tl.AddHistogram("lat");
  h.Record(5000);
  tl.Finish(Milliseconds(3));
  ASSERT_EQ(tl.windows().size(), 1u);
  LatencyHistogram merged;
  merged.Merge(tl.windows()[0].histograms[0]);
  EXPECT_TRUE(HistEq(merged, h.total()));
  EXPECT_EQ(merged.Count(), 1u);
}

TEST(TimelineTest, MergeIdentityHoldsForAllEmptyWindows) {
  Timeline tl(TimelineConfig{.window = Milliseconds(10), .start = 0});
  WindowedHistogram& h = tl.AddHistogram("lat");
  tl.Poll(Milliseconds(30));
  tl.Finish(Milliseconds(30));
  ASSERT_EQ(tl.windows().size(), 3u);
  LatencyHistogram merged;
  for (const TimelineWindow& w : tl.windows()) {
    merged.Merge(w.histograms[0]);
  }
  EXPECT_TRUE(HistEq(merged, h.total()));
  EXPECT_EQ(merged.Count(), 0u);
}

// --- SLO monitor ---------------------------------------------------------------------------

TEST(TimelineTest, SloCoalescesConsecutiveViolationsAndAttributesDominantComponent) {
  uint64_t alpha = 0;
  uint64_t beta = 0;
  Timeline tl(TimelineConfig{.window = Milliseconds(10), .start = 0});
  tl.AddCounter("c.alpha", [&] { return alpha; });
  tl.AddCounter("c.beta", [&] { return beta; });
  tl.AddCounter("other", [&] { return uint64_t{999}; });  // Non-prefixed: never a candidate.
  WindowedHistogram& h = tl.AddHistogram("lat");
  tl.AddSlo("lat", Milliseconds(1), "c.");

  h.Record(Milliseconds(2));  // Window 0 violates (p99 ~2 ms > 1 ms budget).
  alpha += 10;
  tl.Poll(Milliseconds(10));
  h.Record(Milliseconds(3));  // Window 1 violates too; beta dominates the breach overall.
  beta += 100;
  tl.Poll(Milliseconds(20));
  h.Record(1000);  // Window 2 is comfortably under budget: the span closes.
  tl.Poll(Milliseconds(30));
  tl.Poll(Milliseconds(40));  // Window 3 is empty — an empty window never violates.
  h.Record(Milliseconds(5));  // Window 4 opens a new span, still open at Finish.
  tl.Finish(Milliseconds(45));

  ASSERT_EQ(tl.slos().size(), 1u);
  const Timeline::SloResult& slo = tl.slos()[0];
  ASSERT_EQ(slo.violations.size(), 2u);
  EXPECT_EQ(slo.violations[0].start_window, 0u);
  EXPECT_EQ(slo.violations[0].end_window, 1u);
  EXPECT_EQ(slo.violations[0].start, Milliseconds(0));
  EXPECT_EQ(slo.violations[0].end, Milliseconds(20));
  // 100 > 10, and the non-prefixed "other" is excluded; dominant reports the component name
  // with the prefix stripped.
  EXPECT_EQ(slo.violations[0].dominant, "beta");
  EXPECT_GE(slo.violations[0].worst_p99, 2e6);
  EXPECT_EQ(slo.violations[1].start_window, 4u);
  EXPECT_EQ(slo.violations[1].end_window, 4u);
  EXPECT_FALSE(slo.in_violation);  // Finish closed the open span.
}

// --- Steady-state detector -----------------------------------------------------------------

TEST(TimelineTest, SteadyStateDetectsFlatButNotRampingSeries) {
  uint64_t flat = 1000;
  uint64_t ramp = 1000;
  Timeline flat_tl(TimelineConfig{.window = Milliseconds(10), .start = 0});
  flat_tl.AddGauge("g", [&] { return flat; });
  flat_tl.AddSteadySeries("g");
  flat_tl.ConfigureSteadyState(4, 0.05);
  Timeline ramp_tl(TimelineConfig{.window = Milliseconds(10), .start = 0});
  ramp_tl.AddGauge("g", [&] { return ramp; });
  ramp_tl.AddSteadySeries("g");
  ramp_tl.ConfigureSteadyState(4, 0.05);

  for (int w = 1; w <= 6; ++w) {
    ramp += 500;  // 50% per window: far outside a 5% tolerance.
    flat_tl.Poll(Milliseconds(10 * w));
    ramp_tl.Poll(Milliseconds(10 * w));
  }
  EXPECT_TRUE(flat_tl.IsSteady());
  EXPECT_GE(flat_tl.steady_windows(), 3u);  // Steady from the K-th close onward.
  EXPECT_FALSE(ramp_tl.IsSteady());
  EXPECT_EQ(ramp_tl.steady_windows(), 0u);
}

TEST(TimelineTest, SteadyStateRequiresKWindows) {
  uint64_t flat = 5;
  Timeline tl(TimelineConfig{.window = Milliseconds(10), .start = 0});
  tl.AddGauge("g", [&] { return flat; });
  tl.AddSteadySeries("g");
  tl.ConfigureSteadyState(4, 0.05);
  tl.Poll(Milliseconds(10));
  tl.Poll(Milliseconds(20));
  tl.Poll(Milliseconds(30));
  EXPECT_FALSE(tl.IsSteady());  // Only 3 of the required 4 windows exist.
  tl.Poll(Milliseconds(40));
  EXPECT_TRUE(tl.IsSteady());
}

// --- Observation never moves the clock -----------------------------------------------------

simdisk::DiskParams TestDisk() { return simdisk::Truncated(simdisk::Hp97560(), 24); }

// The canned queued workload with the full observation stack (tracer + timeline + probes +
// breakdown counters) attached or nothing at all; returns the final sim-time.
common::Time RunObserved(bool observed, std::string* json_out = nullptr) {
  common::Clock clock;
  simdisk::SimDisk disk(TestDisk(), &clock);
  obs::TraceRecorder tracer(&clock);
  core::Vld vld(&disk, core::VldConfig{.queue_depth = 32});
  EXPECT_TRUE(vld.Format().ok());
  Timeline tl(TimelineConfig{.window = Milliseconds(10), .start = clock.Now()});
  WindowedHistogram* lat = nullptr;
  if (observed) {
    disk.set_tracer(&tracer);
    lat = &tl.AddHistogram("latency");
    obs::RegisterBreakdownCounters(tl, tracer, "breakdown.");
    vld.RegisterTimelineProbes(tl, "");
    tl.AddSlo("latency", Milliseconds(25), "breakdown.");
    tl.AddSteadySeries("vld.free_blocks");
  }
  common::Rng rng(42);
  const uint32_t blocks = vld.logical_blocks() / 2;
  std::vector<std::byte> payload(4096, std::byte{0x7});
  for (int round = 0; round < 6; ++round) {
    for (uint32_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(
          vld.SubmitWrite(static_cast<simdisk::Lba>(rng.Below(blocks)) * 8, payload).ok());
    }
    auto flushed = vld.FlushQueue();
    EXPECT_TRUE(flushed.ok());
    if (observed) {
      for (const core::Vld::QueuedCompletion& c : *flushed) {
        lat->Record(c.Latency());
      }
      tl.Poll(clock.Now());
    }
  }
  if (observed) {
    tl.Finish(clock.Now());
    EXPECT_GE(tl.windows().size(), 1u);
    if (json_out != nullptr) {
      *json_out = tl.Json();
    }
  }
  return clock.Now();
}

TEST(TimelineOverheadTest, AttachedTimelineAndTracerNeverMoveTheClock) {
  EXPECT_EQ(RunObserved(/*observed=*/true), RunObserved(/*observed=*/false));
}

TEST(TimelineDeterminismTest, SameSeedRunsProduceByteIdenticalTimelineJson) {
  std::string a;
  std::string b;
  RunObserved(/*observed=*/true, &a);
  RunObserved(/*observed=*/true, &b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"vlog-timeline/1\""), std::string::npos);
}

// --- Open-loop Poisson arrivals ------------------------------------------------------------

struct OpenLoopRun {
  common::Time final_time = 0;
  std::string timeline_json;
  workload::OpenLoopResult result;
  LatencyHistogram merged_windows;
  LatencyHistogram window_total;
  std::vector<Timeline::SloViolation> violations;
};

OpenLoopRun RunOpenLoop() {
  common::Clock clock;
  simdisk::SimDisk disk(TestDisk(), &clock);
  obs::TraceRecorder tracer(&clock);
  disk.set_tracer(&tracer);
  core::Vld vld(&disk, core::VldConfig{.queue_depth = 32});
  EXPECT_TRUE(vld.Format().ok());
  Timeline tl(TimelineConfig{.window = Milliseconds(50), .start = clock.Now()});
  WindowedHistogram& lat = tl.AddHistogram("latency");
  obs::RegisterBreakdownCounters(tl, tracer, "breakdown.");
  vld.RegisterTimelineProbes(tl, "");
  tl.AddSlo("latency", Milliseconds(50), "breakdown.");
  // An over-capacity burst in the middle of an otherwise sustainable arrival stream.
  const workload::OpenLoopOptions options{.rate_ops_per_s = 150,
                                          .burst_rate_ops_per_s = 1200,
                                          .burst_start = Milliseconds(200),
                                          .burst_duration = Milliseconds(200),
                                          .arrivals = 300,
                                          .seed = 2};
  OpenLoopRun run;
  auto result = workload::RunGovernedOpenLoop(vld, options, /*governor=*/nullptr, &tl, &lat);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  run.result = std::move(result).value();
  tl.Finish(clock.Now());
  run.final_time = clock.Now();
  run.timeline_json = tl.Json();
  for (const TimelineWindow& w : tl.windows()) {
    run.merged_windows.Merge(w.histograms[0]);
  }
  run.window_total = lat.total();
  run.violations = tl.slos()[0].violations;
  return run;
}

TEST(OpenLoopTest, SameSeedRerunsAreByteIdentical) {
  const OpenLoopRun a = RunOpenLoop();
  const OpenLoopRun b = RunOpenLoop();
  EXPECT_EQ(a.final_time, b.final_time);
  ASSERT_FALSE(a.timeline_json.empty());
  EXPECT_EQ(a.timeline_json, b.timeline_json);
}

TEST(OpenLoopTest, WindowMergeMatchesDriverHistogramExactly) {
  const OpenLoopRun run = RunOpenLoop();
  EXPECT_EQ(run.result.ops, 300u);
  // Three-way identity: merged window histograms == windowed total == driver's own histogram.
  EXPECT_TRUE(HistEq(run.merged_windows, run.window_total));
  EXPECT_TRUE(HistEq(run.merged_windows, run.result.latency_hist));
}

TEST(OpenLoopTest, OverloadBurstBreachesSloWithDominantComponent) {
  const OpenLoopRun run = RunOpenLoop();
  // The 8x-capacity burst must form a real backlog and drive at least one coalesced violation
  // span whose dominant component is attributed — under overload, time waiting in the queue.
  EXPECT_GT(run.result.max_backlog, 32u);
  ASSERT_GE(run.violations.size(), 1u);
  EXPECT_EQ(run.violations[0].dominant, "queueing");
  EXPECT_GT(run.violations[0].worst_p99, 50e6);  // Past the 50 ms budget.
}

}  // namespace
}  // namespace vlog
