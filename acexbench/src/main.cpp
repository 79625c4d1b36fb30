// acexbench: publisher bytes in -> verified subscriber bytes out.
//
//   acexbench --workload bulk_link|daemon_live|shm_fanout --seed N
//             --seconds S --trace 0|1 [--source ID]
//
// Prints the provenance line, a human-readable table of every metric by
// name and unit, and as its LAST stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits non-zero when any (block, subscriber) delivery failed, the build
// is not optimised, or a latency percentile lacks its samples.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace acexbench;

/// Every per-layer metric a traced run reports, as (name, unit), for every
/// workload. A layer the workload bypasses reads 0 and is marked
/// "bypassed" in the table (README.md lists which workload measures what).
std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const MethodId m : ladder_methods()) {
    const std::string n(acex::method_name(m));
    out.emplace_back("compress.encode_MBps." + n, "MB/s");
    out.emplace_back("compress.decode_MBps." + n, "MB/s");
    out.emplace_back("compress.block_share_pct." + n, "%");
  }
  const std::pair<const char*, const char*> fixed[] = {
      {"compress.crc32_MBps", "MB/s"},
      {"compress.frame_us_per_block", "us"},
      {"adaptive.sample_us_per_block", "us"},
      {"adaptive.plan_us_per_block", "us"},
      {"adaptive.cpu_estimate_err_pct", "%"},
      {"adaptive.switches_per_100_blocks", "count"},
      {"adaptive.fallbacks", "count"},
      {"engine.worker_busy_pct", "%"},
      {"engine.driver_link_wait_pct", "%"},
      {"engine.speedup_vs_1worker", "x"},
      {"transport.link_util_pct.fast", "%"},
      {"transport.link_util_pct.mid", "%"},
      {"transport.link_util_pct.slow", "%"},
      {"broker.publish_us.p50", "us"},
      {"broker.publish_us.p99", "us"},
      {"broker.pump_us_per_block", "us"},
      {"broker.encodes_per_block", "count"},
      {"broker.cache_hit_pct", "%"},
      {"broker.encode_cpu_ms_per_block", "ms"},
      {"broker.mem_unique_KiB_per_sub", "KiB"},
      {"shm.staged_bytes_per_block", "B"},
      {"shm.copy_fallbacks", "count"},
      {"shm.receive_us_per_frame", "us"},
      {"net.client_poll_us.p50", "us"},
      {"net.client_poll_us.p99", "us"},
      {"net.wakeups_per_block", "count"},
      {"net.bytes_out_per_block", "B"},
      {"net.handshake_ms", "ms"},
      {"bench.gen_lag_p99_ms", "ms"},
      {"bench.backlog_end_blocks", "count"},
      {"bench.budget_closure_pct", "%"},
      {"bench.trace_overhead_pct", "%"},
  };
  for (const auto& [name, unit] : fixed) out.emplace_back(name, unit);
  return out;
}

/// End-to-end metrics printed in the table but left out of the JSON
/// result, which holds only metrics steady enough to gate a change on.
/// failed_pct is 0 on every passing run, so it travels as the result's
/// attempted/failed counts (and the exit code) instead. deliver_p99_ms is
/// shown for every run, but on a shared 4-vCPU host it moves by more than
/// any usable bound between identical runs (scheduling stalls of the
/// worker hand-offs, page faults of the daemon clients' growing streams).
bool in_json(const std::string& name, bool trace) {
  return trace || (name != "failed_pct" && name != "deliver_p99_ms");
}

Outcome run(const std::string& workload, const Options& opts) {
  if (workload == "bulk_link") return run_bulk_link(opts);
  if (workload == "daemon_live") return run_daemon_live(opts);
  if (workload == "shm_fanout") return run_shm_fanout(opts);
  std::fprintf(stderr, "acexbench: unknown workload '%s'\n", workload.c_str());
  std::exit(2);
}

/// Fill in bypassed per-layer metrics and print the human-readable table.
void complete_and_print(Outcome& out, bool trace) {
  std::set<std::string> measured;
  for (const Metric& m : out.metrics) measured.insert(m.name);
  std::printf("%-36s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : out.metrics) {
    std::printf("%-36s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!trace) return;
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (measured.count(name)) continue;
    out.add(name, 0.0, unit);
    std::printf("%-36s %16s  %s\n", name.c_str(), "bypassed", unit.c_str());
  }
}

void print_json(const Outcome& out, bool trace, bool correct) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.metrics) {
    if (!in_json(m.name, trace)) continue;
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string source = "unknown";
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "acexbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value() == "1";
    } else if (arg == "--source") {
      source = value();
    } else {
      std::fprintf(stderr, "acexbench: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (workload.empty() || !have_seed || !(opts.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: acexbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }

  Outcome out;
  try {
    out = run(workload, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acexbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  const bool valid = print_provenance(workload.c_str(), opts.seed, source, out.input_checksum);
  complete_and_print(out, opts.trace);
  bool enough = true;
  if (!opts.trace && out.latency_samples < kMinLatencySamples) {
    std::printf("INVALID RESULT: %zu latency samples, need %zu for p99\n", out.latency_samples,
                kMinLatencySamples);
    enough = false;
  }
  const bool correct = out.attempted > 0 && out.failed == 0;
  print_json(out, opts.trace, correct);
  std::fflush(stdout);
  return correct && valid && enough ? 0 : 1;
}
