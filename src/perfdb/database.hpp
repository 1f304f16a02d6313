// The performance database (paper §5): for each configuration, sampled
// mappings from resource conditions to quality metrics, with interpolation
// to predict behavior between samples.
//
// Records live on a per-configuration grid over the application's declared
// resource axes (e.g. cpu_share x net_bps).  `predict` supports two modes:
//   kNearest     — the discrete lookup the paper's prototype used (§7.1);
//   kInterpolate — multilinear interpolation over the bracketing grid cell,
//                  with constant extrapolation outside the sampled hull and
//                  nearest-neighbor fallback for incomplete cells.
//
// Prediction is a hot path: the resource scheduler queries every stored
// configuration on every adaptation decision (§6.2).  Two paths serve it:
//   predict           — GridIndex fast path (per-axis binary search +
//                       dense-cell corner lookup), exact for every query
//                       point and bit-for-bit identical to the reference.
//   predict_reference — the original per-call std::set rebuild, kept as the
//                       consistency oracle for tests and benchmarks.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "perfdb/grid_index.hpp"
#include "tunable/config.hpp"
#include "tunable/qos.hpp"

namespace avf::perfdb {

/// How predict() answers between samples: nearest stored sample, or
/// multilinear interpolation with nearest-neighbor fallback.
enum class Lookup { kNearest, kInterpolate };

/// Where a stored sample came from.  Exhaustive profiling produces only
/// kMeasured cells; adaptive profiling (ProfilingDriver::profile_adaptive)
/// fills the unsampled remainder of the grid with kPredicted cells from its
/// regression trees.  The distinction survives save()/load() — predicted
/// cells are flagged, never silently promoted to measurements.
enum class Provenance {
  kMeasured,   ///< ran in the sandbox
  kPredicted,  ///< regression-tree estimate, bounded-error only
};

struct PerfRecord {
  tunable::ConfigPoint config;
  ResourcePoint resources;
  tunable::QosVector quality;
  Provenance provenance = Provenance::kMeasured;
};

class PerfDatabase {
 public:
  PerfDatabase(std::vector<std::string> resource_axes,
               tunable::MetricSchema schema);

  // Value-semantic, with explicit special members: the rebuild counter is
  // atomic (not copyable), and a copied GridIndex would point into the
  // *source's* sample nodes — copies therefore invalidate their indexes
  // (they rebuild lazily on first query).  Moves keep indexes: std::map
  // moves preserve node addresses.
  PerfDatabase(const PerfDatabase& other);
  PerfDatabase& operator=(const PerfDatabase& other);
  PerfDatabase(PerfDatabase&& other) noexcept;
  PerfDatabase& operator=(PerfDatabase&& other) noexcept;

  const std::vector<std::string>& axes() const { return axes_; }
  const tunable::MetricSchema& schema() const { return schema_; }

  /// Process-unique identity of this database *object*.  Copies get a fresh
  /// uid (their contents may diverge from the source); moves transfer it.
  /// Never reused within a process, so (uid, mutation_epoch) pairs are safe
  /// cache keys across database destruction/reallocation.
  std::uint64_t uid() const { return uid_; }
  /// Bumped on every content mutation: once per insert(), once per touched
  /// configuration in insert_batch(), once per erase_config().  Consumers
  /// (the adaptation decision cache) treat a changed epoch as "any prior
  /// prediction may be stale".
  std::uint64_t mutation_epoch() const { return mutation_epoch_; }

  /// Insert one sample; re-inserting the same (config, point) overwrites
  /// (value and provenance both).
  void insert(const tunable::ConfigPoint& config, const ResourcePoint& at,
              const tunable::QosVector& quality,
              Provenance provenance = Provenance::kMeasured);

  /// Insert a batch of samples in order.  Equivalent to calling insert()
  /// per record, but the mutation epoch is bumped once per touched
  /// configuration instead of once per sample — the profiling driver
  /// commits whole sweeps through this path.
  void insert_batch(const std::vector<PerfRecord>& records);

  std::size_t size() const { return total_records_; }
  /// Number of stored cells that are tree-predicted rather than measured.
  std::size_t predicted_count() const { return predicted_records_; }
  /// Provenance of the sample at (config, at); nullopt when absent.
  std::optional<Provenance> provenance(const tunable::ConfigPoint& config,
                                       const ResourcePoint& at) const;
  /// All of `config`'s stored samples are predictions (false when the
  /// config is absent or has at least one measured cell).
  bool all_predicted(const tunable::ConfigPoint& config) const;
  std::vector<tunable::ConfigPoint> configs() const;
  /// Visit every stored configuration without copying the points.
  void for_each_config(
      const std::function<void(const tunable::ConfigPoint&)>& fn) const;
  bool has_config(const tunable::ConfigPoint& config) const;
  /// All records for one configuration (unsorted).
  std::vector<PerfRecord> records(const tunable::ConfigPoint& config) const;

  /// Sampled values along `axis` for `config`, sorted ascending.
  std::vector<double> grid_values(const tunable::ConfigPoint& config,
                                  const std::string& axis) const;

  /// Predicted quality for `config` at `at`; nullopt when the config has no
  /// records at all.  Indexed fast path, exact for every query point.
  std::optional<tunable::QosVector> predict(
      const tunable::ConfigPoint& config, const ResourcePoint& at,
      Lookup mode = Lookup::kInterpolate) const;

  /// Reference (seed) implementation: per-call grid rebuild.  Slow; used by
  /// tests and benchmarks as the consistency oracle.
  std::optional<tunable::QosVector> predict_reference(
      const tunable::ConfigPoint& config, const ResourcePoint& at,
      Lookup mode = Lookup::kInterpolate) const;

  /// Remove an entire configuration (used by pruning).
  void erase_config(const tunable::ConfigPoint& config);

  // -- fast-path observability (bench/test layer) -----------------------
  struct PredictionStats {
    // Always 0: predictions are not memoized (kept for existing readers).
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::size_t index_rebuilds = 0;
  };
  PredictionStats prediction_stats() const;
  void reset_prediction_stats();

  // -- persistence (CSV: axes..., then metrics..., keyed by config) -----
  /// A database with predicted cells additionally emits an `origin` column
  /// ("measured" / "predicted").  All-measured databases keep the historic
  /// column set, so exhaustive profiles round-trip byte-identically against
  /// pre-provenance files.
  void save(std::ostream& out) const;
  /// Parse a database saved by save().  Throws std::runtime_error naming
  /// the offending row/column on malformed numeric cells and on unknown
  /// metric direction tokens.
  static PerfDatabase load(std::istream& in);

 private:
  struct ConfigData {
    tunable::ConfigPoint config;
    // Keyed by resource point for exact-corner lookup.
    std::map<ResourcePoint, tunable::QosVector> samples;
    // Points whose sample is a tree prediction (absent = measured).
    std::set<ResourcePoint> predicted;
    // Lazily (re)built prediction index over `samples`.
    mutable GridIndex index;
  };

  const ConfigData* find(const tunable::ConfigPoint& config) const;
  const GridIndex& indexed(const ConfigData& data) const;
  tunable::QosVector nearest(const ConfigData& data,
                             const ResourcePoint& at) const;
  std::optional<tunable::QosVector> interpolate(const ConfigData& data,
                                                const ResourcePoint& at) const;
  tunable::QosVector nearest_reference(const ConfigData& data,
                                       const ResourcePoint& at) const;
  std::optional<tunable::QosVector> interpolate_reference(
      const ConfigData& data, const ResourcePoint& at) const;

  std::vector<std::string> axes_;
  tunable::MetricSchema schema_;
  /// Shared insert step: returns the touched ConfigData, leaves the
  /// mutation epoch bump to the caller (per-sample vs per-batch).
  ConfigData& insert_raw(const tunable::ConfigPoint& config,
                         const ResourcePoint& at,
                         const tunable::QosVector& quality,
                         Provenance provenance);

  static std::uint64_t next_uid();

  std::map<std::string, ConfigData> by_config_;  // key() -> data
  std::uint64_t uid_ = next_uid();
  std::uint64_t mutation_epoch_ = 0;
  std::size_t total_records_ = 0;
  std::size_t predicted_records_ = 0;
  // Atomic: the parallel post-passes (prune/sensitivity) trigger lazy index
  // builds for *distinct* configurations from different workers; the
  // shared counter must not race.
  mutable std::atomic<std::size_t> index_rebuilds_{0};
};

}  // namespace avf::perfdb
