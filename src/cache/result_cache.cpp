#include "cache/result_cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "obs/metrics.h"
#include "util/fs.h"
#include "util/sha256.h"

namespace clktune::cache {

using util::Json;

namespace {

/// Process-wide cache counters (aggregated across every ResultCache
/// instance — the CLI's, the daemon's, the tests').  The per-instance
/// CacheStats struct stays the precise per-cache view; these feed the
/// obs registry so `clktune metrics` sees cache behaviour without a
/// handle on any particular instance.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& memory_hits;
  obs::Counter& disk_hits;
  obs::Counter& self_heals;
  obs::Counter& puts;
  obs::Counter& evictions;
  obs::Counter& bytes_written;
  obs::Counter& write_failures;
  obs::Gauge& degraded;

  static CacheMetrics& get() {
    static CacheMetrics m{
        obs::Registry::global().counter(
            "clktune_cache_hits_total",
            "Result-cache lookups served from memory or disk"),
        obs::Registry::global().counter(
            "clktune_cache_misses_total",
            "Result-cache lookups that had to compute"),
        obs::Registry::global().counter(
            "clktune_cache_memory_hits_total",
            "Cache hits served from the in-memory LRU layer"),
        obs::Registry::global().counter(
            "clktune_cache_disk_hits_total",
            "Cache hits served from the on-disk artifact layer"),
        obs::Registry::global().counter(
            "clktune_cache_self_heals_total",
            "Corrupt disk entries detected and treated as misses"),
        obs::Registry::global().counter(
            "clktune_cache_puts_total", "Artifacts stored into the cache"),
        obs::Registry::global().counter(
            "clktune_cache_evictions_total",
            "LRU entries dropped from the memory layer"),
        obs::Registry::global().counter(
            "clktune_cache_disk_bytes_written_total",
            "Bytes of artifact envelopes written to disk"),
        obs::Registry::global().counter(
            "clktune_cache_write_failures_total",
            "Disk commits of cache entries that failed"),
        obs::Registry::global().gauge(
            "clktune_cache_degraded",
            "1 when a cache instance has degraded to read-only after a "
            "disk write failure"),
    };
    return m;
  }
};

/// Bumped whenever the artifact schema, the flow's numeric behaviour or
/// the on-disk entry format changes, so stale entries read as misses
/// instead of wrong answers.  v2: disk entries became self-describing
/// envelopes ({"key","sha256","result"}) so `clktune cache verify` can
/// re-hash artifacts against their keys.  v3: scenario kinds (criticality /
/// binning) — new result shapes must never deserialize from v2 entries.
/// v4: the warm-started MILP solver may return different tunings among tied
/// optima, and concentration now weighs both single-buffer rescues, so a v3
/// entry may hold a plan this build would not produce.
constexpr const char* kSchemaSalt = "clktune-scenario-result-v4\n";

}  // namespace

Json wrap_disk_entry(const std::string& key, const Json& artifact) {
  Json envelope = Json::object();
  envelope.set("key", key);
  envelope.set("sha256", util::sha256_hex(util::canonical_dump(artifact)));
  envelope.set("result", artifact);
  return envelope;
}

Json unwrap_disk_entry(const std::string& key, const Json& envelope) {
  const std::string& embedded = envelope.at("key").as_string();
  if (embedded != key)
    throw util::JsonError("cache: envelope key \"" + embedded +
                          "\" does not match \"" + key + "\"");
  Json artifact = envelope.at("result");
  const std::string digest =
      util::sha256_hex(util::canonical_dump(artifact));
  if (digest != envelope.at("sha256").as_string())
    throw util::JsonError("cache: artifact re-hash " + digest +
                          " does not match the recorded sha256 — entry"
                          " is corrupt");
  return artifact;
}

Json CacheStats::to_json() const {
  Json j = Json::object();
  j.set("hits", hits);
  j.set("misses", misses);
  j.set("memory_hits", memory_hits);
  j.set("disk_hits", disk_hits);
  j.set("evictions", evictions);
  j.set("puts", puts);
  j.set("self_heals", self_heals);
  j.set("write_failures", write_failures);
  return j;
}

std::string scenario_cache_key(const scenario::ScenarioSpec& spec) {
  util::Sha256 hasher;
  hasher.update(kSchemaSalt);
  hasher.update(util::canonical_dump(spec.to_json()));
  if (spec.design.kind == scenario::DesignSourceKind::bench_file) {
    // The document only names the .bench file; the result depends on its
    // bytes, so hash them too — editing the netlist must change the key
    // (and the same path from different working directories must not
    // collide on content that differs).
    std::ifstream in(spec.design.bench_path, std::ios::binary);
    if (!in)
      throw std::runtime_error("cache: cannot open " + spec.design.bench_path);
    char chunk[4096];
    while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0)
      hasher.update(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return hasher.hex_digest();
}

ResultCache::ResultCache(std::string directory, std::size_t memory_capacity)
    : directory_(std::move(directory)), memory_capacity_(memory_capacity) {
  // Register the counter family eagerly so expositions (e.g. `clktune
  // cache stats --json`) list every cache counter at zero rather than
  // omitting the ones no operation has touched yet.
  CacheMetrics::get();
  if (!directory_.empty())
    std::filesystem::create_directories(directory_);
}

std::string ResultCache::artifact_path(const std::string& key) const {
  return directory_ + "/" + key + ".json";
}

void ResultCache::insert_memory_locked(const std::string& key,
                                       const Json& artifact) {
  if (memory_capacity_ == 0) return;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = artifact;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, artifact);
  index_[key] = lru_.begin();
  while (lru_.size() > memory_capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    CacheMetrics::get().evictions.inc();
  }
}

std::optional<Json> ResultCache::get(const std::string& key) {
  CacheMetrics& metrics = CacheMetrics::get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      ++stats_.memory_hits;
      metrics.hits.inc();
      metrics.memory_hits.inc();
      return it->second->second;
    }
  }
  bool self_heal = false;
  if (!directory_.empty()) {
    try {
      // Disk entries are envelopes; a legacy bare artifact, a wrong-key
      // file, torn bytes or a corrupted artifact (digest mismatch) all
      // throw here and read as a miss — the recomputation then overwrites
      // the bad entry, so corruption self-heals instead of poisoning runs.
      Json artifact = unwrap_disk_entry(
          key, util::read_json_file(artifact_path(key)));
      std::lock_guard<std::mutex> lock(mutex_);
      insert_memory_locked(key, artifact);
      ++stats_.hits;
      ++stats_.disk_hits;
      metrics.hits.inc();
      metrics.disk_hits.inc();
      return artifact;
    } catch (const std::exception&) {
      // Missing or corrupt artifact: fall through to a miss.  A file
      // that exists but failed to unwrap is a corrupt entry the
      // recomputation will overwrite — the self-heal path.
      std::error_code ec;
      self_heal = std::filesystem::exists(artifact_path(key), ec) && !ec;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  metrics.misses.inc();
  if (self_heal) {
    ++stats_.self_heals;
    metrics.self_heals.inc();
  }
  return std::nullopt;
}

void ResultCache::degrade(const char* reason) {
  if (degraded_.exchange(true, std::memory_order_relaxed)) return;
  CacheMetrics::get().degraded.set(1);
  // One warning per instance, not one per put: a full disk would
  // otherwise turn a million-cell campaign into a million log lines.
  std::fprintf(stderr,
               "clktune: warning: cache disk write failed (%s); cache "
               "degraded to read-only — existing entries and the memory "
               "layer keep serving, new results are not persisted\n",
               reason);
}

void ResultCache::put(const std::string& key, const Json& artifact) {
  if (!directory_.empty() && !degraded_.load(std::memory_order_relaxed)) {
    std::string payload = wrap_disk_entry(key, artifact).dump(-1);
    payload.push_back('\n');
    try {
      // Crash-durable commit (fsync file + directory): a result that was
      // served is a result that survives power loss.  Readers racing the
      // rename see either the old complete entry or the new one.
      util::write_file_atomic(artifact_path(key), payload,
                              /*durable=*/true, /*fault_site=*/"cache");
      CacheMetrics::get().bytes_written.inc(payload.size());
    } catch (const std::exception& e) {
      // Losing persistence must never abort the run that is computing
      // results — degrade to read-only and keep going.
      CacheMetrics::get().write_failures.inc();
      degrade(e.what());
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.write_failures;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  insert_memory_locked(key, artifact);
  ++stats_.puts;
  CacheMetrics::get().puts.inc();
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ResultCache::memory_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace clktune::cache
