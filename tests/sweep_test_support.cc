#include "tests/sweep_test_support.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

namespace vlog::crashsim {

uint64_t g_sweep_seed = 1;
int64_t g_sweep_point = -1;

namespace {

std::string Escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// key -> escaped summary, parsed once per binary.
const std::map<std::string, std::string>& GoldenSummaries() {
  static const std::map<std::string, std::string> golden = [] {
    std::map<std::string, std::string> lines;
    std::ifstream in(VLOG_SWEEP_GOLDEN);
    std::string line;
    while (std::getline(in, line)) {
      const size_t tab = line.find('\t');
      if (tab != std::string::npos) {
        lines.emplace(line.substr(0, tab), line.substr(tab + 1));
      }
    }
    return lines;
  }();
  return golden;
}

}  // namespace

bool Replaying() { return g_sweep_point >= 0; }

CrashSweepOptions SeededSweepOptions() {
  CrashSweepOptions options;
  options.enumerate.seed = g_sweep_seed;
  options.reorder.seed = g_sweep_seed;
  options.only_ordinal = g_sweep_point;
  return options;
}

void ExpectGoldenSummary(const CrashSweepReport& report) {
  if (g_sweep_seed != 1 || Replaying()) {
    return;
  }
  const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string key = std::string(test->test_suite_name()) + "." + test->name();
  const std::string actual = Escape(report.Summary());
  const auto& golden = GoldenSummaries();
  const auto it = golden.find(key);
  EXPECT_TRUE(it != golden.end() && it->second == actual)
      << (it == golden.end() ? "no golden summary for " : "summary differs from golden for ")
      << key << " in " << VLOG_SWEEP_GOLDEN << "; the current line is:\n"
      << key << "\t" << actual;
}

}  // namespace vlog::crashsim

// Custom main so a sweep failure replays with the exact command its Summary() prints:
// --seed=N reproduces the point list, --point=K narrows the sweep to the violating ordinal.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      vlog::crashsim::g_sweep_seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--point=", 8) == 0) {
      vlog::crashsim::g_sweep_point = std::strtoll(argv[i] + 8, nullptr, 10);
    }
  }
  return RUN_ALL_TESTS();
}
