// profile_grid: ProfilingDriver::profile of viz_app_spec() (18 configs) over
// a cpu_share x net_bps grid of paper-size images, with one sensitivity
// refinement round.  Every cell is the library's viz::make_viz_run_fn: it
// builds a fresh world and downloads the same image, so world wiring,
// per-byte payload handling and the thread pool dominate; the reply caches
// hit almost always and adaptation does nothing.  The per-cell worlds are
// private to that function, so this workload reports the process-wide
// cache counters and the cell spans, not per-world sim/viz counters.
#include <atomic>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "perfdb/driver.hpp"
#include "util/rng.hpp"

namespace avf::perfbench {

namespace {

constexpr int kImageSize = 1024;
constexpr int kLevels = 4;
constexpr std::size_t kWorkers = 2;
constexpr int kRefinementRounds = 1;
/// Cells re-run through the cache-free fidelity path per checked round
/// (about 0.3 s each at 1024x1024).
constexpr std::size_t kFidelitySample = 3;

const std::vector<std::vector<double>>& grid() {
  static const std::vector<std::vector<double>> g{
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
      {25e3, 100e3, 400e3, 1.6e6, 6.4e6, 12.5e6}};
  return g;
}

bool finite(const tunable::QosVector& q) {
  for (const auto& [name, value] : q.values()) {
    if (!std::isfinite(value)) return false;
  }
  return !q.empty();
}

}  // namespace

VizProfile profile_viz(const viz::WorldSetup& base,
                       const std::vector<std::vector<double>>& grid_axes,
                       int refinement_rounds, std::size_t workers,
                       Tracer* tracer) {
  Tracer::Span sweep(tracer, "perfdb.profile");
  const std::uint64_t sweep_id = sweep.id();
  std::atomic<std::size_t> attempted{0};
  const perfdb::ProfilingDriver::RunFn cell = viz::make_viz_run_fn(base);
  perfdb::ProfilingDriver::Options options;
  options.refinement_rounds = refinement_rounds;
  options.threads = workers;
  perfdb::ProfilingDriver driver(
      [&](const tunable::ConfigPoint& config,
          const perfdb::ResourcePoint& at) {
        const std::uint64_t request = attempted.fetch_add(1) + 1;
        Tracer::Span span(tracer, "perfdb.cell", request, sweep_id);
        try {
          return cell(config, at);
        } catch (const std::exception&) {
          // Stored as non-finite QoS (counted as failed) so the sweep goes
          // on.
          tunable::QosVector nan;
          for (const auto& name : viz::viz_app_spec().metrics().names()) {
            nan.set(name, std::nan(""));
          }
          return nan;
        }
      },
      options);
  perfdb::PerfDatabase db = driver.profile(viz::viz_app_spec(), grid_axes);
  return VizProfile{std::move(db), attempted.load()};
}

RoundResult run_profile_grid(const RoundOptions& options) {
  Tracer* tracer = options.tracer;
  RoundResult r;
  viz::WorldSetup base;
  base.image_size = kImageSize;
  base.levels = kLevels;
  base.image_count = 1;
  base.image_seed = util::SplitMix64(options.seed).next();

  // Set-up: synthesize the image and decompose its pyramid into the
  // process-wide memo the cells read (cold: every round is a fresh
  // process).
  const Clock::time_point setup_start = Clock::now();
  {
    Tracer::Span setup(tracer, "bench.setup");
    Tracer::Span span(tracer, "wavelet.pyramid_build");
    viz::cached_pyramid_entry(base.image_size, base.image_seed, base.levels);
  }
  r.setup_s = seconds_since(setup_start);

  const VizCacheSnapshot caches_before = VizCacheSnapshot::take();
  const Clock::time_point run_start = Clock::now();
  const VizProfile profile = [&] {
    Tracer::Span run(tracer, "bench.run");
    return profile_viz(base, grid(), kRefinementRounds, kWorkers, tracer);
  }();
  r.run_s = seconds_since(run_start);
  r.peak_rss_mb = peak_rss_mb();
  add_viz_cache_counters(r.layers, caches_before);
  if (tracer != nullptr) add_span_metrics(r.layers, *tracer, kWorkers);

  const perfdb::PerfDatabase& db = profile.db;
  std::vector<perfdb::PerfRecord> records;
  for (const tunable::ConfigPoint& config : db.configs()) {
    for (perfdb::PerfRecord& rec : db.records(config)) {
      records.push_back(std::move(rec));
    }
  }
  r.items = records.size();
  r.attempted = profile.attempted;
  std::size_t resolution_mismatches = 0;
  for (const perfdb::PerfRecord& rec : records) {
    if (!finite(rec.quality)) {
      ++r.failed;
      continue;
    }
    r.sim_responses.push_back(rec.quality.get("response_time"));
    if (rec.quality.get("resolution") != rec.config.get("l")) {
      ++resolution_mismatches;
    }
  }
  r.check(r.attempted == r.items, "every profiled cell is in the database");
  r.check(resolution_mismatches == 0, "every cell's resolution equals its l");

  // response_time never rises with more CPU at fixed bandwidth, nor with
  // more bandwidth at fixed CPU share.
  std::size_t violations = 0;
  for (const tunable::ConfigPoint& config : db.configs()) {
    std::map<double, std::map<double, double>> by_bw, by_cpu;
    for (const perfdb::PerfRecord& rec : db.records(config)) {
      const double resp = rec.quality.get("response_time");
      by_bw[rec.resources[1]][rec.resources[0]] = resp;
      by_cpu[rec.resources[0]][rec.resources[1]] = resp;
    }
    for (const auto* lines : {&by_bw, &by_cpu}) {
      for (const auto& [fixed, line] : *lines) {
        double prev = INFINITY;
        for (const auto& [x, resp] : line) {
          if (!(resp <= prev)) ++violations;
          prev = resp;
        }
      }
    }
  }
  r.check(violations == 0,
          "response_time is monotone in cpu_share and in net_bps");

  if (options.full_checks && !records.empty()) {
    // Seeded sample re-run serially with every reply cache off: real
    // compression and decompression on every round must reproduce the
    // database's QoS bit for bit.
    viz::WorldSetup fidelity = base;
    fidelity.server_options.size_cache = nullptr;
    fidelity.server_options.region_cache = nullptr;
    fidelity.server_options.chunk_cache = nullptr;
    perfdb::ProfilingDriver::RunFn reference = viz::make_viz_run_fn(fidelity);
    util::SplitMix64 pick(options.seed ^ 0x66696465ULL);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < kFidelitySample; ++i) {
      const perfdb::PerfRecord& rec = records[pick.next_below(records.size())];
      if (!(reference(rec.config, rec.resources) == rec.quality)) {
        ++mismatches;
      }
    }
    r.check(mismatches == 0,
            "cache-free fidelity re-run equals the database bit for bit");
  }
  return r;
}

}  // namespace avf::perfbench
