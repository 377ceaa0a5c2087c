// perfbench — the randla benchmark program.
//
//   perfbench --workload factor_tall|serve_mix|cluster_hot --seed N
//             --seconds S --trace 0|1
//
// Runs one workload on inputs generated from the seed, measures for S
// seconds, checks every output it measures, and prints:
//   stamp {...}         the machine the numbers belong to (compare.py
//                       refuses to compare runs whose stamps differ);
//   info <key> {...}    context (tail percentile and sample counts, ...);
//   {"correct":...}     last line: the run's metrics, with units — the
//                       end-to-end set, or with --trace 1 the per-layer set.
// Exit status is 0 whenever the result line was printed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "la/blas3.hpp"
#include "la/parallel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// Cache size in KiB from sysfs ("32768K"); 0 if unavailable.
long cache_kib(int index) {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                  std::to_string(index) + "/size");
  long v = 0;
  f >> v;
  return v;
}

std::string stamp() {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\":%ld,\"kernel_arch\":\"%s\",\"blas_threads\":%lld,"
                "\"l1d_kib\":%ld,\"l2_kib\":%ld,\"l3_kib\":%ld,"
                "\"build\":\"%s\"}",
                sysconf(_SC_NPROCESSORS_ONLN),
                json_escape(randla::blas::kernel_arch()).c_str(),
                static_cast<long long>(randla::blas_num_threads()),
                cache_kib(0), cache_kib(2), cache_kib(3), PERFBENCH_BUILD_TYPE);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "factor_tall|serve_mix|cluster_hot --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage("missing value");
    const char* v = argv[++i];
    if (!std::strcmp(argv[i - 1], "--workload")) {
      args.workload = v;
      have_workload = true;
    } else if (!std::strcmp(argv[i - 1], "--seed")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(argv[i - 1], "--seconds")) {
      args.seconds = std::atof(v);
    } else if (!std::strcmp(argv[i - 1], "--trace")) {
      args.trace = std::atoi(v) != 0;
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  Report rep;
  try {
    if (args.workload == "factor_tall")
      rep = run_factor_tall(args);
    else if (args.workload == "serve_mix")
      rep = run_serve_mix(args);
    else if (args.workload == "cluster_hot")
      rep = run_cluster_hot(args);
    else
      return usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("stamp %s\n", stamp().c_str());
  std::printf("info run {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
              "\"trace\":%d}\n",
              json_escape(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const auto& [key, json] : rep.info)
    std::printf("info %s %s\n", key.c_str(), json.c_str());
  for (const Metric& m : rep.metrics)
    if (!std::isfinite(m.value)) rep.invalid("metric " + m.name + " not finite");
  if (rep.attempted == 0) rep.invalid("no op attempted");
  // The workloads are sized so that no op fails. A failed op (an error,
  // Busy after every retry, a failed check) drops out of the latency
  // samples, so it makes the run incorrect instead.
  if (rep.failed > 0)
    rep.invalid(std::to_string(rep.failed) + " of " +
                std::to_string(rep.attempted) + " ops failed");

  std::string out = "{\"correct\": ";
  out += rep.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    char val[64];
    std::snprintf(val, sizeof val, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + val +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}
