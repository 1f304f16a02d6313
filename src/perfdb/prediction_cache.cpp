#include "perfdb/prediction_cache.hpp"

#include <bit>
#include <cmath>

#include "util/hash.hpp"

namespace avf::perfdb {

namespace {
constexpr int kQuantBits = 20;  // ~1e-6 relative buckets
}  // namespace

PredictionCache::PredictionCache(const PredictionCache& other) {
  util::MutexLock lock(other.mutex_);
  max_entries_ = other.max_entries_;
  entries_ = other.entries_;
  epochs_ = other.epochs_;
  stats_ = other.stats_;
}

PredictionCache& PredictionCache::operator=(const PredictionCache& other) {
  if (this != &other) {
    PredictionCache tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

PredictionCache::PredictionCache(PredictionCache&& other) noexcept {
  util::MutexLock lock(other.mutex_);
  max_entries_ = other.max_entries_;
  entries_ = std::move(other.entries_);
  epochs_ = std::move(other.epochs_);
  stats_ = other.stats_;
}

PredictionCache& PredictionCache::operator=(
    PredictionCache&& other) noexcept {
  if (this != &other) {
    // Lock order: source first, then destination — both sides of a move
    // assignment are exclusively owned by the caller in every use in the
    // tree (PerfDatabase assignment), so no concurrent opposite-order pair
    // exists.
    util::MutexLock source(other.mutex_);
    util::MutexLock dest(mutex_);
    max_entries_ = other.max_entries_;
    entries_ = std::move(other.entries_);
    epochs_ = std::move(other.epochs_);
    stats_ = other.stats_;
  }
  return *this;
}

std::uint64_t PredictionCache::quantize(double x) {
  if (!std::isfinite(x)) return std::bit_cast<std::uint64_t>(x);
  if (x == 0.0) return 0;
  int exp = 0;
  double mantissa = std::frexp(x, &exp);  // |mantissa| in [0.5, 1)
  auto q = static_cast<std::int64_t>(
      std::llround(mantissa * static_cast<double>(1 << kQuantBits)));
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(exp)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(q));
}

std::uint64_t PredictionCache::hash_key(
    const std::string& config_key, const std::vector<std::uint64_t>& qpoint,
    Lookup mode) {
  std::uint64_t h = util::kFnv1a64Offset;
  h = util::fnv1a64(h, config_key.data(), config_key.size());
  h = util::fnv1a64(h, qpoint.data(), qpoint.size() * sizeof(std::uint64_t));
  int m = static_cast<int>(mode);
  h = util::fnv1a64(h, &m, sizeof(m));
  return h;
}

std::uint64_t PredictionCache::epoch_of(const std::string& config_key) const {
  auto it = epochs_.find(config_key);
  return it == epochs_.end() ? 0 : it->second;
}

const std::optional<tunable::QosVector>* PredictionCache::lookup(
    const std::string& config_key, const ResourcePoint& at,
    Lookup mode) const {
  std::vector<std::uint64_t> qpoint(at.size());
  for (std::size_t i = 0; i < at.size(); ++i) qpoint[i] = quantize(at[i]);
  util::MutexLock lock(mutex_);
  auto it = entries_.find(hash_key(config_key, qpoint, mode));
  if (it == entries_.end() || it->second.mode != mode ||
      it->second.epoch != epoch_of(config_key) ||
      it->second.config_key != config_key || it->second.qpoint != qpoint) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second.result;
}

void PredictionCache::store(const std::string& config_key,
                            const ResourcePoint& at, Lookup mode,
                            std::optional<tunable::QosVector> result) {
  if (max_entries_ == 0) return;
  util::MutexLock lock(mutex_);
  Entry entry;
  entry.config_key = config_key;
  entry.epoch = epoch_of(config_key);
  entry.qpoint.resize(at.size());
  for (std::size_t i = 0; i < at.size(); ++i) {
    entry.qpoint[i] = quantize(at[i]);
  }
  entry.mode = mode;
  entry.result = std::move(result);
  std::uint64_t h = hash_key(config_key, entry.qpoint, mode);
  if (entries_.size() >= max_entries_ && !entries_.contains(h)) {
    entries_.clear();
    ++stats_.evictions;
  }
  entries_[h] = std::move(entry);
}

void PredictionCache::invalidate_config(const std::string& config_key) {
  util::MutexLock lock(mutex_);
  ++epochs_[config_key];
  ++stats_.invalidations;
}

void PredictionCache::clear() {
  util::MutexLock lock(mutex_);
  entries_.clear();
  epochs_.clear();
}

}  // namespace avf::perfdb
