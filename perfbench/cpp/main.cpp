// avf_perfbench: runs one round of one end-to-end workload in this process
// and prints its measurements as one JSON line on stdout.
//
//   avf_perfbench --workload <profile_grid|serve_adaptive>
//                 --seed <n> [--full-checks 0|1] [--trace-out <file.json>]
//
// A round times its set-up and its measured phase separately, then checks
// the workload's outputs.  --full-checks adds the expensive checks (fidelity
// re-runs, cache-on/off comparisons) after
// the measurements are taken.  --trace-out records spans around the
// benchmark's calls into each layer and writes them as Chrome trace-event
// JSON.  perfbench/run.py runs rounds in fresh processes and aggregates
// them; this binary is not meant to be the benchmark's entry point.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "util/stats.hpp"

namespace {

using avf::perfbench::RoundOptions;
using avf::perfbench::RoundResult;

/// Every per-layer metric a round reports; a workload that does not pass
/// through a layer reports 0 for it.
constexpr const char* kLayerMetrics[] = {
    "sim.events", "sim.queue_compactions", "sim.fluid_full_reallocs",
    "sim.fluid_fast_reallocs", "sim.fluid_sparse_events",
    "sim.fluid_rate_rescales", "sim.cpu_full_reallocs", "viz.requests",
    "viz.client_rounds", "viz.raw_bytes_encoded", "viz.wire_bytes",
    "viz.region_hits", "viz.region_misses", "viz.region_hit_ratio",
    "viz.size_cache_hits", "viz.size_cache_misses", "viz.store_bytes_resident",
    "viz.store_unique_entries", "viz.store_evictions",
    "viz.store_bytes_deduped", "perfdb.predict_cache_hits",
    "perfdb.predict_cache_misses", "perfdb.index_rebuilds",
    "adapt.ticks_skipped", "adapt.triggers", "adapt.adaptations",
    "adapt.steering_applied"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string to_json(const RoundResult& r) {
  std::ostringstream out;
  out << "{\"setup_s\":" << json_number(r.setup_s)
      << ",\"run_s\":" << json_number(r.run_s)
      << ",\"peak_rss_mb\":" << json_number(r.peak_rss_mb)
      << ",\"items\":" << r.items << ",\"attempted\":" << r.attempted
      << ",\"failed\":" << r.failed
      << ",\"sim_response_p50_s\":"
      << json_number(avf::util::percentile(r.sim_responses, 0.5))
      << ",\"sim_response_p99_s\":"
      << json_number(avf::util::percentile(r.sim_responses, 0.99))
      << ",\"sim_response_samples\":" << r.sim_responses.size()
      << ",\"checks_run\":" << r.checks_run << ",\"check_failures\":[";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    out << (i ? "," : "") << json_string(r.check_failures[i]);
  }
  out << "],\"layers\":{";
  bool first = true;
  for (const auto& [name, value] : r.layers) {
    out << (first ? "" : ",") << json_string(name) << ":" << json_number(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "avf_perfbench: " << why
            << "\nusage: avf_perfbench --workload <name> --seed <n> "
               "[--full-checks 0|1] [--trace-out <file>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  RoundOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--full-checks") {
        options.full_checks = std::stoi(value) != 0;
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_seed) usage("--seed is required");

  RoundResult (*run)(const RoundOptions&) = nullptr;
  if (workload == "profile_grid") {
    run = avf::perfbench::run_profile_grid;
  } else if (workload == "serve_adaptive") {
    run = avf::perfbench::run_serve_adaptive;
  } else {
    usage("unknown workload '" + workload + "'");
  }

  std::unique_ptr<avf::perfbench::Tracer> tracer;
  if (!trace_out.empty()) {
    tracer = std::make_unique<avf::perfbench::Tracer>();
    options.tracer = tracer.get();
  }
  try {
    RoundResult result = run(options);
    result.check(result.sim_responses.size() >= 1000,
                 "at least 1000 simulated response samples");
    for (const char* name : kLayerMetrics) result.layers.try_emplace(name, 0.0);
    if (tracer) {
      std::ofstream out(trace_out);
      tracer->write_chrome_json(out);
      if (!out) throw std::runtime_error("cannot write " + trace_out);
    }
    std::cout << to_json(result) << std::endl;
  } catch (const std::exception& e) {
    std::cout << "{\"error\":" << json_string(e.what()) << "}" << std::endl;
    return 1;
  }
  return 0;
}
