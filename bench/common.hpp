// Shared helpers for the figure-reproduction benchmarks.  Each fig*
// executable regenerates one figure of the paper's evaluation: it prints
// the same series the figure plots, plus the shape checks that must hold
// (who wins, where the crossover falls).
//
// Micro-benchmarks additionally emit machine-readable results as
// bench_results/BENCH_<name>.json (one file per binary: benchmark name,
// per-case wall_ns, thread count, and the git revision the binary was
// built from) so runs can be diffed across commits without scraping
// console output.  Define AVF_BENCH_HAS_GBENCH before including this
// header to get the google-benchmark capture reporter.
#pragma once

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/table.hpp"
#include "viz/world.hpp"

#include "avf_git_rev.hpp"  // AVF_GIT_REV, generated by bench/git_rev.cmake

namespace avf::bench {

/// Print a figure series and also save it as CSV under ./bench_results/
/// (for re-plotting the figures with any external tool).
inline void emit_table(const util::TextTable& table, const std::string& name) {
  table.print(std::cout);
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) {
    std::ofstream out("bench_results/" + name + ".csv");
    if (out) table.save_csv(out);
  }
}

inline void figure_header(const std::string& id, const std::string& caption) {
  std::cout << "\n=== " << id << " — " << caption << " ===\n\n";
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

/// The performance database used by fig5/6/7 (built on first use, cached in
/// ./.avf_viz_perfdb.csv across bench binaries).
inline const perfdb::PerfDatabase& figure_database() {
  return viz::standard_viz_database();
}

/// Standard full-scale world (paper §7.1: two PII-450s, 100 Mbps Ethernet,
/// ten 1024x1024 images).
inline viz::WorldSetup standard_setup() {
  viz::WorldSetup setup;
  return setup;
}

inline tunable::ConfigPoint viz_config(int dR, int c, int l) {
  tunable::ConfigPoint p;
  p.set("dR", dR);
  p.set("c", c);
  p.set("l", l);
  return p;
}

// --- machine-readable benchmark output ----------------------------------

/// One measured case of a micro-benchmark.
struct JsonBenchCase {
  std::string label;                      ///< e.g. "BM_Compress/1"
  double wall_ns = 0.0;                   ///< wall time per iteration
  int threads = 1;                        ///< thread count for this case
  std::map<std::string, double> extra;    ///< user counters (ratio, ...)
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

/// Write bench_results/BENCH_<name>.json.  Returns false (after a warning)
/// if the directory or file cannot be created; benchmarks still succeed.
inline bool write_bench_json(const std::string& name,
                             const std::vector<JsonBenchCase>& cases) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  std::ofstream out("bench_results/BENCH_" + name + ".json");
  if (!out) {
    std::cerr << "warning: could not write BENCH_" << name << ".json\n";
    return false;
  }
  // Build the whole document first and write it in one shot: a result file
  // is either complete or absent, never a torn prefix from a crash or an
  // interleaved writer.
  std::ostringstream doc;
  doc.precision(17);
  doc << "{\n  \"name\": \"" << json_escape(name) << "\",\n"
      << "  \"git_rev\": \"" << json_escape(AVF_GIT_REV) << "\",\n"
      << "  \"cases\": [";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const JsonBenchCase& c = cases[i];
    doc << (i ? ",\n" : "\n") << "    {\"label\": \"" << json_escape(c.label)
        << "\", \"wall_ns\": " << c.wall_ns
        << ", \"threads\": " << c.threads;
    for (const auto& [key, value] : c.extra) {
      doc << ", \"" << json_escape(key) << "\": " << value;
    }
    doc << "}";
  }
  doc << "\n  ]\n}\n";
  out << doc.str();
  return static_cast<bool>(out);
}

/// Append the tile store's memory/dedup counters to a JSON case, so the
/// per-commit result files track resident bytes and dedup payoff alongside
/// wall time (bytes_resident / bytes_deduped / unique_entries /
/// pinned_entries are the headline fields; the rest attribute them).
inline void add_tile_store_counters(JsonBenchCase& c,
                                    const viz::TileStore& store) {
  c.extra["bytes_resident"] = static_cast<double>(store.bytes_resident());
  c.extra["bytes_deduped"] = static_cast<double>(store.bytes_deduped());
  c.extra["unique_entries"] = static_cast<double>(store.unique_entries());
  c.extra["pinned_entries"] = static_cast<double>(store.pinned_entries());
  c.extra["store_hits"] = static_cast<double>(store.hits());
  c.extra["store_misses"] = static_cast<double>(store.misses());
  c.extra["store_evictions"] = static_cast<double>(store.evictions());
  c.extra["store_cross_origin_hits"] =
      static_cast<double>(store.cross_origin_hits());
  c.extra["store_collisions"] = static_cast<double>(store.collisions());
}

#ifdef AVF_BENCH_HAS_GBENCH
/// Console reporter that additionally captures every run for JSON output.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(std::vector<JsonBenchCase>* sink)
      : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      JsonBenchCase c;
      c.label = run.benchmark_name();
      if (run.iterations > 0) {
        c.wall_ns = run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9;
      }
      c.threads = run.threads;
      for (const auto& [key, counter] : run.counters) {
        c.extra[key] = counter.value;
      }
      sink_->push_back(std::move(c));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  std::vector<JsonBenchCase>* sink_;
};

/// Drop-in replacement for BENCHMARK_MAIN()'s body: run all registered
/// benchmarks with console output plus BENCH_<name>.json capture.
inline int run_benchmarks_with_json(int argc, char** argv,
                                    const std::string& name) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::vector<JsonBenchCase> cases;
  JsonCaptureReporter reporter(&cases);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  write_bench_json(name, cases);
  return 0;
}
#endif  // AVF_BENCH_HAS_GBENCH

}  // namespace avf::bench
