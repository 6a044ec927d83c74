// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload serve|bulk|serve-train --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//
// Prints a human-readable report, then as its LAST stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A traced
// run first repeats the untraced run in the same process, so the tracing
// overhead is a measured ratio. Exits 1 when any output check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/common/kernels/backend.hpp"
#include "src/common/parallel.hpp"
#include "workload.hpp"

namespace memhd::perfbench {
namespace {

/// BENCHMARK.json "end_to_end": reported by every workload.
constexpr const char* kEndToEnd[] = {"setup_s",       "p50_ms",   "p90_ms",
                                     "goodput_per_s", "accuracy", "ok_share",
                                     "peak_rss_mb"};
/// BENCHMARK.json "per_layer": reported by every workload's traced run.
constexpr const char* kPerLayer[] = {
    "api.score_ms.p50",       "api.score_ms.p99",
    "api.rows_per_call.p50",  "api.rows_per_call.max",
    "api.score_busy",         "api.save_ms",
    "api.load_ms",            "api.model_bytes",
    "hdc.encode_us_per_row",  "hdc.encode_share",
    "hdc.encode_dataset_s",   "common.search_us_per_row",
    "common.search_share",    "core.initialize_s",
    "core.train_qat_s",       "core.initialize_share",
    "trace.overhead.setup_s", "trace.overhead.p50_ms",
    "trace.overhead.p90_ms",  "trace.overhead.goodput_per_s"};
/// End-to-end metrics whose traced/untraced ratio is the tracing overhead.
constexpr const char* kOverhead[] = {"setup_s", "p50_ms", "p90_ms", "p99_ms",
                                     "goodput_per_s"};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve|bulk|serve-train --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  // Non-finite values only occur when a run failed (a failed request is
  // +inf latency); JSON has no infinity, so they print as a huge number.
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 1e300);
  return buf;
}

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics.items())
    std::printf("  %-34s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

WorkloadResult run_workload(const Options& options, Tracer* tracer) {
  if (options.workload == "serve") return run_serve(options, tracer);
  if (options.workload == "bulk") return run_bulk(options, tracer);
  return run_serve_train(options, tracer);
}

int run(int argc, char** argv) {
  Options options;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || (options.workload != "serve" &&
                         options.workload != "bulk" &&
                         options.workload != "serve-train"))
    return usage("--workload must be serve, bulk or serve-train");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  std::printf(
      "perfbench workload=%s seed=%llu seconds=%g trace=%d backend=%s "
      "threads=%u nproc=%u\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, common::active_backend().name,
      common::configured_num_threads(), std::thread::hardware_concurrency());

  WorkloadResult result = run_workload(options, nullptr);
  Tracer tracer;
  if (options.trace) {
    const WorkloadResult untraced_result = result;
    result = run_workload(options, &tracer);
    std::printf("tracing overhead (traced / untraced, same seed):\n");
    for (const char* name : kOverhead) {
      const Metric* a = untraced_result.e2e.find(name);
      const Metric* b = result.e2e.find(name);
      if (a == nullptr || b == nullptr || a->value == 0) continue;
      std::printf("  %-16s untraced %12.6g  traced %12.6g  %s\n", name,
                  a->value, b->value, a->unit.c_str());
      result.layer.set(std::string("trace.overhead.") + name,
                       b->value / a->value, "ratio", "traced / untraced");
    }
    result.tally += untraced_result.tally;
    result.failures.insert(result.failures.end(),
                           untraced_result.failures.begin(),
                           untraced_result.failures.end());
  }

  for (const std::string& line : result.lines)
    std::printf("%s\n", line.c_str());
  print_metrics(options.trace ? "end-to-end (traced run):" : "end-to-end:",
                result.e2e);
  if (options.trace) {
    print_metrics("per-layer:", result.layer);
    std::printf("self time by span (traced run):\n");
    for (const auto& [name, t] : self_times(tracer.spans()))
      std::printf("  %-26s count %8zu  total %12.3f ms  self %12.3f ms\n",
                  name.c_str(), t.count, t.total_ms, t.self_ms);
    if (!trace_out.empty()) {
      if (tracer.write(trace_out))
        std::printf("spans written to %s\n", trace_out.c_str());
      else
        result.failures.push_back("cannot write " + trace_out);
    }
  }

  // The JSON carries exactly the metrics BENCHMARK.json declares.
  const Metrics& source = options.trace ? result.layer : result.e2e;
  std::string metrics_json;
  const auto emit = [&](const char* name) {
    const Metric* m = source.find(name);
    if (m == nullptr) {
      result.failures.push_back(std::string("metric not measured: ") + name);
      return;
    }
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"" + m->name + "\": {\"value\": " +
                    json_number(m->value) + ", \"unit\": \"" + m->unit + "\"}";
  };
  if (options.trace)
    for (const char* name : kPerLayer) emit(name);
  else
    for (const char* name : kEndToEnd) emit(name);

  for (const std::string& failure : result.failures)
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  const bool correct = result.failures.empty() && result.tally.failed() == 0;
  std::printf("checks: %s (attempted %llu, failed %llu)\n",
              correct ? "ok" : "FAILED",
              static_cast<unsigned long long>(result.tally.attempted),
              static_cast<unsigned long long>(result.tally.failed()));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.tally.attempted),
      static_cast<unsigned long long>(
          std::max<std::uint64_t>(result.tally.failed(),
                                  correct ? 0 : 1)),
      metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace memhd::perfbench

int main(int argc, char** argv) {
  try {
    return memhd::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
