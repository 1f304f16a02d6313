// Micro-benchmarks: performance-database insert and prediction cost (the
// scheduler consults the database on every adaptation check).
//
// The prediction paths under test (see src/perfdb/database.hpp):
//   predict_reference — seed implementation, per-call std::set grid rebuild
//   predict           — GridIndex fast path (binary-search bracketing +
//                       dense-cell corner lookup)
// The acceptance gate for the fast path is >= 5x over the reference on
// repeated predictions against a 64-config x 256-point database.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#define AVF_BENCH_HAS_GBENCH
#include "bench/common.hpp"
#include "perfdb/database.hpp"

namespace {

using namespace avf;
using perfdb::PerfDatabase;
using tunable::ConfigPoint;

tunable::MetricSchema schema() {
  tunable::MetricSchema s;
  s.add("transmit_time", tunable::Direction::kLowerBetter);
  s.add("response_time", tunable::Direction::kLowerBetter);
  s.add("resolution", tunable::Direction::kHigherBetter);
  return s;
}

PerfDatabase build_db(int configs, int grid) {
  PerfDatabase db({"cpu_share", "net_bps"}, schema());
  for (int c = 0; c < configs; ++c) {
    ConfigPoint config;
    config.set("mode", c);
    for (int i = 0; i < grid; ++i) {
      for (int j = 0; j < grid; ++j) {
        tunable::QosVector q;
        double cpu = (i + 1.0) / grid;
        double bw = (j + 1.0) * 100e3;
        q.set("transmit_time", 10.0 / cpu + 1e6 / bw);
        q.set("response_time", 1.0 / cpu);
        q.set("resolution", 4.0);
        db.insert(config, {cpu, bw}, q);
      }
    }
  }
  return db;
}

constexpr int kLargeConfigs = 64;
constexpr int kLargeGrid = 16;  // 16x16 = 256 resource points per config

void BM_Insert(benchmark::State& state) {
  for (auto _ : state) {
    PerfDatabase db = build_db(static_cast<int>(state.range(0)), 6);
    benchmark::DoNotOptimize(db.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 36);
}
BENCHMARK(BM_Insert)->Arg(18);

// --- single-config prediction, 64x16x16 database ------------------------

void BM_PredictReference(benchmark::State& state) {
  PerfDatabase db = build_db(kLargeConfigs, kLargeGrid);
  ConfigPoint config;
  config.set("mode", 7);
  double x = 0.0;
  for (auto _ : state) {
    auto q = db.predict_reference(config, {0.37 + x * 1e-9, 275e3},
                                  perfdb::Lookup::kInterpolate);
    x += 1.0;
    benchmark::DoNotOptimize(q->get("transmit_time"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictReference);

void BM_PredictIndexed(benchmark::State& state) {
  // GridIndex fast path, the point perturbed per iteration like the
  // reference case above.
  PerfDatabase db = build_db(kLargeConfigs, kLargeGrid);
  ConfigPoint config;
  config.set("mode", 7);
  double x = 0.0;
  for (auto _ : state) {
    auto q = db.predict(config, {0.37 + x * 1e-9, 275e3},
                        perfdb::Lookup::kInterpolate);
    x += 1.0;
    benchmark::DoNotOptimize(q->get("transmit_time"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictIndexed);

void BM_PredictNearest(benchmark::State& state) {
  PerfDatabase db = build_db(kLargeConfigs, kLargeGrid);
  ConfigPoint config;
  config.set("mode", 7);
  for (auto _ : state) {
    auto q = db.predict(config, {0.37, 275e3}, perfdb::Lookup::kNearest);
    benchmark::DoNotOptimize(q->get("transmit_time"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictNearest);

// --- full scheduler-style scans: every config, one resource point -------

void BM_FullScanReference(benchmark::State& state) {
  // What the scheduler paid per adaptation decision with the seed
  // implementation.
  PerfDatabase db = build_db(kLargeConfigs, kLargeGrid);
  std::vector<ConfigPoint> configs = db.configs();
  for (auto _ : state) {
    double best = 1e300;
    for (const ConfigPoint& c : configs) {
      auto q = db.predict_reference(c, {0.37, 275e3});
      best = std::min(best, q->get("transmit_time"));
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * kLargeConfigs);
}
BENCHMARK(BM_FullScanReference);

void BM_FullScanIndexed(benchmark::State& state) {
  PerfDatabase db = build_db(kLargeConfigs, kLargeGrid);
  std::vector<ConfigPoint> configs = db.configs();
  for (auto _ : state) {
    double best = 1e300;
    for (const ConfigPoint& c : configs) {
      auto q = db.predict(c, {0.37, 275e3});
      best = std::min(best, q->get("transmit_time"));
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * kLargeConfigs);
}
BENCHMARK(BM_FullScanIndexed);

}  // namespace

int main(int argc, char** argv) {
  return avf::bench::run_benchmarks_with_json(argc, argv, "micro_perfdb");
}
