#include "perfbench/spans.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

SpanRecorder* g_spans = nullptr;

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kVldSubmit:
      return "vld.submit";
    case SpanName::kVldFlushQueue:
      return "vld.flush_queue";
    case SpanName::kVldWrite:
      return "vld.write";
    case SpanName::kGovernorRunBurst:
      return "governor.run_burst";
    case SpanName::kVldRecoverScan:
      return "vld.recover_scan";
    case SpanName::kVldRecoverPark:
      return "vld.recover_park";
    case SpanName::kArraySubmit:
      return "array.submit";
    case SpanName::kArrayFlushQueue:
      return "array.flush_queue";
    case SpanName::kNvmWrite:
      return "nvm.write";
    case SpanName::kNvmRead:
      return "nvm.read";
    case SpanName::kNvmDestageBurst:
      return "nvm.destage_burst";
    case SpanName::kTimelinePoll:
      return "timeline.poll";
    case SpanName::kCrashsimRecord:
      return "crashsim.record";
    case SpanName::kCrashsimSweep:
      return "crashsim.sweep";
    case SpanName::kBenchClient:
      return "bench.client";
    case SpanName::kCount:
      break;
  }
  return "?";
}

SpanRecorder::SpanRecorder() : origin_ns_(NowNs()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         origin_ns_;
}

uint32_t SpanRecorder::Begin(SpanName name) {
  spans_.push_back(Span{.start_ns = NowNs(), .step = step_, .parent = open_, .name = name});
  open_ = static_cast<uint32_t>(spans_.size());
  return open_;
}

void SpanRecorder::End(uint32_t handle) {
  Span& span = spans_[handle - 1];
  span.end_ns = NowNs();
  open_ = span.parent;
}

void SpanRecorder::Clear() {
  spans_.clear();
  open_ = 0;
  step_ = 0;
}

void AppendSelfTimes(const std::vector<Span>& spans, SelfTimes* out) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end_ns - spans[i].start_ns;
    if (spans[i].parent != 0) {
      self[spans[i].parent - 1] -= spans[i].end_ns - spans[i].start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    (*out)[static_cast<size_t>(spans[i].name)].push_back(self[i]);
  }
}

SpanSummary Summarize(std::vector<int64_t> self_ns, uint32_t rounds) {
  SpanSummary s;
  if (self_ns.empty() || rounds == 0) {
    return s;
  }
  std::sort(self_ns.begin(), self_ns.end());
  int64_t total = 0;
  for (const int64_t ns : self_ns) {
    total += ns;
  }
  const auto rank = [&](double q) {
    const size_t n = self_ns.size();
    const size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    return static_cast<double>(self_ns[std::min(n, std::max<size_t>(idx, 1)) - 1]) / 1e3;
  };
  s.calls = static_cast<double>(self_ns.size()) / rounds;
  s.self_s = static_cast<double>(total) / 1e9 / rounds;
  s.p50_us = rank(0.50);
  s.p99_us = rank(0.99);
  return s;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "index\tparent\tstep\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%u\t%llu\t%s\t%lld\t%lld\n", i + 1, s.parent,
                 static_cast<unsigned long long>(s.step), SpanNameString(s.name),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
