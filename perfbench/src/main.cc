// perfbench: one benchmark for the composed tiers of the ats library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Workloads (see perfbench/README.md for why each exists):
//   subset_sum_concurrent  ConcurrentPrioritySampler, nproc-1 routed
//                          producers + one open-loop Merged/HtSubsetSum
//                          query thread
//   distinct_fanin         ClusterSim: Zipf keys, KMV, 8 agents under a
//                          fan-in-4 tree, seeded chaos, checkpoints
//   window_monitor         ConcurrentWindowSampler, one time-ordered
//                          producer + one open-loop ImprovedSample/HtCount
//                          query thread
//
// --trace 0 prints every end-to-end metric; --trace 1 runs an untraced
// half and a traced half of the workload, then the per-layer ladder, and
// prints every per-layer metric. Output: a context line, then (last) one
// JSON object {"correct", "attempted", "failed", "metrics"}. Progress
// and failed checks go to stderr.
#include <sched.h>
#include <sys/vfs.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "ats/core/simd/simd_dispatch.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// The seed never used while tuning the benchmark: a claimed change must
// also hold on it.
constexpr uint64_t kHoldoutSeed = 9001;

unsigned CountCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string FilesystemOf(const std::string& path) {
  struct statfs s;
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "subset_sum_concurrent|distinct_fanin|window_monitor "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  config.out_dir = ".perfbench_out";
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (config.workload != "subset_sum_concurrent" &&
      config.workload != "distinct_fanin" &&
      config.workload != "window_monitor") {
    return Usage("unknown --workload");
  }
  if (!(config.seconds >= 1.0 && config.seconds <= 60.0)) {
    return Usage("--seconds must be in [1, 60]");
  }
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  config.trace = trace == 1;
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure an assert build\n");
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  config.nproc = CountCpus();
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  if (ec) return Usage("cannot create --out-dir");

  Result result;
  // Identity of the measurement: perfbench/compare.py refuses to compare
  // result sets that differ in any of these.
  result.context["workload"] = config.workload;
  result.context["seed"] = std::to_string(config.seed);
  result.context["holdout_seed"] = std::to_string(kHoldoutSeed);
  result.context["seconds"] = std::to_string(config.seconds);
  result.context["trace"] = std::to_string(trace);
  result.context["nproc"] = std::to_string(config.nproc);
  result.context["build_type"] = PERFBENCH_BUILD_TYPE;
  result.context["simd_active"] =
      ats::simd::SimdLevelName(ats::simd::ActiveSimdLevel());
  result.context["simd_detected"] =
      ats::simd::SimdLevelName(ats::simd::DetectedSimdLevel());
  result.context["chaos_profile"] = kChaosProfile;
  result.context["checkpoint_fs"] = FilesystemOf(config.out_dir);

  std::fprintf(stderr, "perfbench: %s seed=%llu seconds=%g trace=%d\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed), config.seconds,
               trace);
  if (config.workload == "subset_sum_concurrent") {
    RunSubsetSumConcurrent(config, &result);
  } else if (config.workload == "distinct_fanin") {
    RunDistinctFanin(config, &result);
  } else {
    RunWindowMonitor(config, &result);
  }
  if (config.trace) RunLadder(config, &result);

  bool finite = true;
  std::string metrics;
  for (const auto& [name, value_unit] : result.metrics) {
    double value = value_unit.first;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      finite = false;
      value = 0.0;
    }
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + num +
               ", \"unit\": " + JsonString(value_unit.second) + "}";
  }
  std::string context;
  for (const auto& [key, value] : result.context) {
    if (!context.empty()) context += ", ";
    context += JsonString(key) + ": " + JsonString(value);
  }
  std::printf("{\"context\": {%s}, \"checks_attempted\": %llu, "
              "\"failed_checks\": %llu}\n",
              context.c_str(),
              static_cast<unsigned long long>(result.checks_attempted),
              static_cast<unsigned long long>(result.checks_failed));
  const bool correct = finite && result.checks_failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted +
                                              result.checks_attempted),
              static_cast<unsigned long long>(result.checks_failed),
              metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
