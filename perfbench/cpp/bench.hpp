// Shared pieces of the end-to-end benchmark: the span recorder used by
// traced rounds, the per-round result every workload fills in, and small
// helpers (wall clock, peak RSS, layer counter snapshots).
//
// The benchmark records spans only around its own calls into each layer
// (world construction, Simulator::run, ProfilingDriver::profile, each
// profiling cell, adaptation stack construction, the post-run decision
// replay).  Library code is never instrumented here.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "perfdb/database.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "viz/world.hpp"

namespace avf::sim {
class FluidResource;
class Link;
class Simulator;
}  // namespace avf::sim

namespace avf::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set of this process so far, MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// In-memory span recorder.  A null Tracer* disables tracing entirely: a
/// Span over a null tracer reads no clock and stores nothing, so untraced
/// rounds pay one branch per span site.
///
/// Thread-safe: worker threads of a profiling sweep record concurrently.
/// Each thread keeps its own stack of open spans, so a span's parent is
/// the innermost span open on the same thread unless the caller names a
/// parent explicitly (cells on pool workers name the sweep span that
/// caused them).
class Tracer {
 public:
  static constexpr std::uint64_t kNoParent = 0;

  struct Record {
    const char* name = nullptr;  ///< "<layer>.<what>", string literal
    std::uint64_t id = 0;        ///< 1-based, unique per tracer
    std::uint64_t parent = kNoParent;
    std::uint64_t request = 0;   ///< shared by spans of one unit of work
    std::uint32_t tid = 0;       ///< small per-thread index
    std::int64_t start_ns = 0;   ///< since tracer construction
    std::int64_t end_ns = 0;
    double seconds() const {
      return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span; closing records it.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, std::uint64_t request = 0,
         std::uint64_t parent = kInheritParent);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// This span's id (0 when tracing is off), for explicit parenting.
    std::uint64_t id() const { return record_.id; }

    static constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

   private:
    Tracer* tracer_;
    Record record_;
  };

  /// Snapshot of every closed span, in close order.
  std::vector<Record> records() const AVF_EXCLUDES(mutex_);

  /// Chrome trace-event JSON ("X" complete events, microseconds), loadable
  /// in chrome://tracing or Perfetto.
  void write_chrome_json(std::ostream& out) const AVF_EXCLUDES(mutex_);

  /// Sum of the durations of spans named `name`, seconds.
  double total_seconds(const std::string& name) const AVF_EXCLUDES(mutex_);
  /// Durations of spans named `name`, seconds, in close order.
  std::vector<double> durations(const std::string& name) const
      AVF_EXCLUDES(mutex_);
  /// Self time summed per layer (the span-name prefix before the first
  /// '.'): each span's duration minus the union of its children's
  /// intervals.
  std::map<std::string, double> self_seconds_by_layer() const
      AVF_EXCLUDES(mutex_);

 private:
  std::int64_t now_ns() const;
  void close(const Record& record) AVF_EXCLUDES(mutex_);

  Clock::time_point origin_;
  mutable util::Mutex mutex_;
  std::atomic<std::uint64_t> next_id_{0};
  std::vector<Record> records_ AVF_GUARDED_BY(mutex_);
};

/// What one round of a workload measured.  Every workload fills every
/// field; layer metrics a workload does not exercise stay 0.
struct RoundResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  double peak_rss_mb = 0.0;
  /// Units completed in the timed phase (cells, downloads).
  std::size_t items = 0;
  /// Units of work attempted / failed (cells, downloads).
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Simulated response samples the application's users see.
  std::vector<double> sim_responses;
  /// Per-layer counters and span aggregates, by metric name.
  std::map<std::string, double> layers;
  /// Output checks that did not hold (empty = all held).
  std::vector<std::string> check_failures;
  /// Number of output checks evaluated.
  std::size_t checks_run = 0;

  /// Record one output check.
  void check(bool ok, const std::string& what);
};

struct RoundOptions {
  std::uint64_t seed = 1;
  /// Run the expensive output checks after the timed phase.
  bool full_checks = false;
  Tracer* tracer = nullptr;
};

/// Event-queue counters of one simulator ("sim.events",
/// "sim.queue_compactions"), added to `layers`.
void add_sim_counters(std::map<std::string, double>& layers,
                      const sim::Simulator& simulator);
/// Fluid counters of a link, both directions ("sim.fluid_*").
void add_link_counters(std::map<std::string, double>& layers,
                       sim::Link& link);
/// Full-reallocation count of a host CPU ("sim.cpu_full_reallocs").
void add_cpu_counters(std::map<std::string, double>& layers,
                      const sim::FluidResource& cpu);

/// Reply-cache and tile-store counters of the process-wide viz caches.
struct VizCacheSnapshot {
  double region_hits = 0, region_misses = 0;
  double size_hits = 0, size_misses = 0;
  double store_evictions = 0, store_bytes_deduped = 0;
  static VizCacheSnapshot take();
};
/// Adds the viz cache counters accumulated since `before` (store levels —
/// resident bytes, unique entries — are reported as of now).
void add_viz_cache_counters(std::map<std::string, double>& layers,
                            const VizCacheSnapshot& before);

/// The span aggregates every traced round reports (span totals, cell and
/// select percentiles, pool busy ratio, self time per layer).
void add_span_metrics(std::map<std::string, double>& layers,
                      const Tracer& tracer, std::size_t pool_workers);

/// A viz profiling sweep: ProfilingDriver::profile with the library's
/// viz::make_viz_run_fn as the cell function, a span around the sweep and
/// each cell, and a cell that throws stored as non-finite QoS.
struct VizProfile {
  perfdb::PerfDatabase db;
  std::size_t attempted = 0;  ///< cell runs started
};
VizProfile profile_viz(const viz::WorldSetup& base,
                       const std::vector<std::vector<double>>& grid,
                       int refinement_rounds, std::size_t workers,
                       Tracer* tracer);

RoundResult run_profile_grid(const RoundOptions& options);
RoundResult run_serve_adaptive(const RoundOptions& options);

}  // namespace avf::perfbench
