#include <sys/resource.h>

#include <algorithm>
#include <utility>

#include "bench.hpp"
#include "sim/fluid_resource.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "viz/caches.hpp"
#include "viz/server.hpp"
#include "viz/tile_store.hpp"

namespace avf::perfbench {

namespace {

std::atomic<std::uint32_t> next_thread_index{0};

std::uint32_t this_thread_index() {
  thread_local const std::uint32_t index = next_thread_index.fetch_add(1);
  return index;
}

/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<std::uint64_t> open_spans;

std::string layer_of(const char* name) {
  std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Span::Span(Tracer* tracer, const char* name, std::uint64_t request,
                   std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.name = name;
  record_.id = tracer_->next_id_.fetch_add(1) + 1;
  if (parent == kInheritParent) {
    parent = open_spans.empty() ? kNoParent : open_spans.back();
  }
  record_.parent = parent;
  record_.request = request;
  record_.tid = this_thread_index();
  open_spans.push_back(record_.id);
  record_.start_ns = tracer_->now_ns();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = tracer_->now_ns();
  open_spans.pop_back();
  tracer_->close(record_);
}

void Tracer::close(const Record& record) {
  util::MutexLock lock(mutex_);
  records_.push_back(record);
}

std::vector<Tracer::Record> Tracer::records() const {
  util::MutexLock lock(mutex_);
  return records_;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  const std::vector<Record> all = records();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Record& r = all[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << r.name
        << "\",\"cat\":\"" << layer_of(r.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
        << ",\"ts\":" << static_cast<double>(r.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"request\":" << r.request << "}}";
  }
  out << "\n]}\n";
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (double d : durations(name)) total += d;
  return total;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records()) {
    if (name == r.name) out.push_back(r.seconds());
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const std::vector<Record> all = records();
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Record& r : all) {
    if (r.parent != kNoParent) {
      children[r.parent].emplace_back(r.start_ns, r.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (const Record& r : all) {
    std::int64_t covered = 0;
    auto it = children.find(r.id);
    if (it != children.end()) {
      // Children may run on other threads and overlap each other; count
      // the union of their intervals clipped to this span.
      auto& spans = it->second;
      std::sort(spans.begin(), spans.end());
      std::int64_t lo = 0, hi = -1;
      for (auto [s, e] : spans) {
        s = std::max(s, r.start_ns);
        e = std::min(e, r.end_ns);
        if (e <= s) continue;
        if (s > hi) {
          if (hi > lo) covered += hi - lo;
          lo = s;
          hi = e;
        } else {
          hi = std::max(hi, e);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    self[layer_of(r.name)] +=
        static_cast<double>(r.end_ns - r.start_ns - covered) * 1e-9;
  }
  return self;
}

void RoundResult::check(bool ok, const std::string& what) {
  ++checks_run;
  if (!ok) check_failures.push_back(what);
}

void add_sim_counters(std::map<std::string, double>& layers,
                      const sim::Simulator& simulator) {
  layers["sim.events"] += static_cast<double>(simulator.events_processed());
  layers["sim.queue_compactions"] +=
      static_cast<double>(simulator.compactions());
}

void add_link_counters(std::map<std::string, double>& layers,
                       sim::Link& link) {
  for (const sim::FluidResource* r : {&link.forward(), &link.backward()}) {
    layers["sim.fluid_full_reallocs"] +=
        static_cast<double>(r->full_reallocs());
    layers["sim.fluid_fast_reallocs"] +=
        static_cast<double>(r->fast_reallocs());
    layers["sim.fluid_sparse_events"] +=
        static_cast<double>(r->sparse_events());
    layers["sim.fluid_rate_rescales"] +=
        static_cast<double>(r->rate_rescales());
  }
}

void add_cpu_counters(std::map<std::string, double>& layers,
                      const sim::FluidResource& cpu) {
  layers["sim.cpu_full_reallocs"] += static_cast<double>(cpu.full_reallocs());
}

VizCacheSnapshot VizCacheSnapshot::take() {
  const viz::RegionEncodeCache& region = viz::RegionEncodeCache::global();
  const viz::CompressedSizeCache& size = viz::CompressedSizeCache::global();
  const viz::TileStore& store = viz::TileStore::global();
  VizCacheSnapshot s;
  s.region_hits = static_cast<double>(region.hits());
  s.region_misses = static_cast<double>(region.misses());
  s.size_hits = static_cast<double>(size.hits());
  s.size_misses = static_cast<double>(size.misses());
  s.store_evictions = static_cast<double>(store.evictions());
  s.store_bytes_deduped = static_cast<double>(store.bytes_deduped());
  return s;
}

void add_viz_cache_counters(std::map<std::string, double>& layers,
                            const VizCacheSnapshot& before) {
  const VizCacheSnapshot now = VizCacheSnapshot::take();
  const viz::TileStore& store = viz::TileStore::global();
  const double hits = now.region_hits - before.region_hits;
  const double misses = now.region_misses - before.region_misses;
  layers["viz.region_hits"] = hits;
  layers["viz.region_misses"] = misses;
  layers["viz.region_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layers["viz.size_cache_hits"] = now.size_hits - before.size_hits;
  layers["viz.size_cache_misses"] = now.size_misses - before.size_misses;
  layers["viz.store_evictions"] = now.store_evictions - before.store_evictions;
  layers["viz.store_bytes_deduped"] =
      now.store_bytes_deduped - before.store_bytes_deduped;
  layers["viz.store_bytes_resident"] =
      static_cast<double>(store.bytes_resident());
  layers["viz.store_unique_entries"] =
      static_cast<double>(store.unique_entries());
}

void add_span_metrics(std::map<std::string, double>& layers,
                      const Tracer& tracer, std::size_t pool_workers) {
  layers["sim.run_s"] = tracer.total_seconds("sim.run");
  layers["viz.world_build_s"] = tracer.total_seconds("viz.world_build");
  layers["wavelet.pyramid_build_s"] =
      tracer.total_seconds("wavelet.pyramid_build");
  const double profile_s = tracer.total_seconds("perfdb.profile");
  layers["perfdb.profile_s"] = profile_s;
  const std::vector<double> cells = tracer.durations("perfdb.cell");
  layers["perfdb.cell_s_p50"] = util::percentile(cells, 0.5);
  layers["perfdb.cell_s_p99"] = util::percentile(cells, 0.99);
  double busy = 0.0;
  for (double c : cells) busy += c;
  layers["perfdb.pool_busy_ratio"] =
      profile_s > 0.0 && pool_workers > 0
          ? busy / (static_cast<double>(pool_workers) * profile_s)
          : 0.0;
  layers["adapt.stack_build_s"] = tracer.total_seconds("adapt.stack_build");
  std::vector<double> selects = tracer.durations("adapt.select");
  for (double& s : selects) s *= 1e6;
  layers["adapt.select_us_p50"] = util::percentile(selects, 0.5);
  layers["adapt.select_us_p99"] = util::percentile(selects, 0.99);
  const std::map<std::string, double> self = tracer.self_seconds_by_layer();
  for (const char* layer :
       {"bench", "sim", "viz", "wavelet", "perfdb", "adapt"}) {
    auto it = self.find(layer);
    layers[std::string(layer) + ".self_s"] =
        it != self.end() ? it->second : 0.0;
  }
}

}  // namespace avf::perfbench
