// Wall-clock spans recorded by the benchmark around each public call it makes into a layer.
//
// The traced run installs a SpanRecorder; untraced runs leave it null, so a ScopedSpan costs one
// pointer test. Spans stay in memory (name, start, end, parent, client step) and are summarized
// and written out only when the run ends. Everything is single-threaded: a span's parent is the
// innermost span open when it began, and children nest strictly inside their parent.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kVldSubmit,
  kVldFlushQueue,
  kVldWrite,
  kGovernorRunBurst,
  kVldRecoverScan,
  kVldRecoverPark,
  kArraySubmit,
  kArrayFlushQueue,
  kNvmWrite,
  kNvmRead,
  kNvmDestageBurst,
  kTimelinePoll,
  kCrashsimRecord,
  kCrashsimSweep,
  kBenchClient,
  kCount,
};
constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);

// The dotted name reported for a span ("vld.submit", ...).
const char* SpanNameString(SpanName name);

struct Span {
  int64_t start_ns = 0;  // steady_clock, relative to the recorder's origin.
  int64_t end_ns = 0;
  uint64_t step = 0;     // Client step that issued the call (0 outside any step).
  uint32_t parent = 0;   // 1-based index of the enclosing span; 0 for a root span.
  SpanName name = SpanName::kCount;
};

class SpanRecorder {
 public:
  SpanRecorder();
  // Opens a span under the innermost open one and returns its handle.
  uint32_t Begin(SpanName name);
  void End(uint32_t handle);
  // Tags every span begun from now on with client step `step`.
  void set_step(uint64_t step) { step_ = step; }
  const std::vector<Span>& spans() const { return spans_; }
  void Clear();

 private:
  int64_t NowNs() const;

  int64_t origin_ns_ = 0;
  uint64_t step_ = 0;
  uint32_t open_ = 0;  // Handle of the innermost open span (0 = none).
  std::vector<Span> spans_;
};

// The recorder of the traced round in progress; null when tracing is off.
extern SpanRecorder* g_spans;

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name) : handle_(g_spans != nullptr ? g_spans->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (handle_ != 0) {
      g_spans->End(handle_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t handle_;
};

// Self time of every span, grouped by name: a span's duration minus the durations of its
// direct children. Appends to `out`, so several traced rounds can be pooled.
using SelfTimes = std::array<std::vector<int64_t>, kSpanNames>;
void AppendSelfTimes(const std::vector<Span>& spans, SelfTimes* out);

// One name's pooled self times over `rounds` traced rounds: calls and self seconds per round,
// and the median and p99 of the per-call self times.
struct SpanSummary {
  double calls = 0;
  double self_s = 0;
  double p50_us = 0;
  double p99_us = 0;
};
SpanSummary Summarize(std::vector<int64_t> self_ns, uint32_t rounds);

// Writes one tab-separated line per span (index, parent, step, name, start_ns, end_ns).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
