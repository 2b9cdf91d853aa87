// Result-cache subsystem tests: SHA-256 known answers, canonical JSON,
// content-key stability across member-order permutations, LRU hit / miss /
// eviction behaviour, disk persistence across cache instances, the
// byte-exact ScenarioResult JSON round trip the cache depends on, and a
// warm exec::LocalExecutor rerun that computes nothing yet reproduces the
// cold summary bit for bit.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "cache/maintenance.h"
#include "cache/result_cache.h"
#include "exec/local_executor.h"
#include "exec/request.h"
#include "scenario/campaign.h"
#include "scenario/scenario.h"
#include "scenario/summary_diff.h"
#include "util/json.h"
#include "util/sha256.h"

namespace clktune {
namespace {

using util::Json;

// ------------------------------------------------------------------ sha256

TEST(Sha256Test, MatchesKnownVectors) {
  EXPECT_EQ(
      util::sha256_hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      util::sha256_hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      util::sha256_hex(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalUpdatesMatchOneShot) {
  // A message spanning multiple 64-byte blocks, fed in awkward pieces.
  const std::string message(150, 'x');
  util::Sha256 hasher;
  hasher.update(message.substr(0, 1));
  hasher.update(message.substr(1, 63));
  hasher.update(message.substr(64, 64));
  hasher.update(message.substr(128));
  EXPECT_EQ(hasher.hex_digest(), util::sha256_hex(message));
}

// -------------------------------------------------------- canonical JSON

TEST(CanonicalJsonTest, SortsMembersRecursivelyAndCompactly) {
  const Json j = Json::parse(R"({"b": {"y": 1, "x": [2, {"q": 3, "p": 4}]},
                                 "a": true})");
  EXPECT_EQ(util::canonical_dump(j),
            R"({"a":true,"b":{"x":[2,{"p":4,"q":3}],"y":1}})");
  // Arrays keep their order; only object members sort.
  EXPECT_EQ(util::canonical_dump(Json::parse("[3,1,2]")), "[3,1,2]");
}

// ------------------------------------------------------------- cache keys

Json tiny_scenario_doc() {
  return Json::parse(R"({
    "name": "tiny",
    "design": {"synthetic": {"name": "tiny", "num_flipflops": 30,
                             "num_gates": 220, "seed": 5}},
    "clock": {"sigma_offset": 0.0, "period_samples": 400},
    "insertion": {"num_samples": 200, "steps": 8},
    "evaluation": {"samples": 400, "seed": 99}
  })");
}

TEST(CacheKeyTest, StableAcrossMemberOrderPermutations) {
  // The same document with every object's members permuted.
  const Json permuted = Json::parse(R"({
    "evaluation": {"seed": 99, "samples": 400},
    "insertion": {"steps": 8, "num_samples": 200},
    "clock": {"period_samples": 400, "sigma_offset": 0.0},
    "design": {"synthetic": {"seed": 5, "num_gates": 220,
                             "num_flipflops": 30, "name": "tiny"}},
    "name": "tiny"
  })");
  const auto spec_a = scenario::ScenarioSpec::from_json(tiny_scenario_doc());
  const auto spec_b = scenario::ScenarioSpec::from_json(permuted);
  EXPECT_EQ(cache::scenario_cache_key(spec_a),
            cache::scenario_cache_key(spec_b));
  EXPECT_EQ(cache::scenario_cache_key(spec_a).size(), 64u);
}

TEST(CacheKeyTest, ChangesWithAnyResultAffectingField) {
  const auto base = scenario::ScenarioSpec::from_json(tiny_scenario_doc());

  Json changed_seed = tiny_scenario_doc();
  changed_seed.find("design")->find("synthetic")->set("seed", 6);
  Json changed_eval = tiny_scenario_doc();
  changed_eval.find("evaluation")->set("samples", 500);

  EXPECT_NE(cache::scenario_cache_key(base),
            cache::scenario_cache_key(
                scenario::ScenarioSpec::from_json(changed_seed)));
  EXPECT_NE(cache::scenario_cache_key(base),
            cache::scenario_cache_key(
                scenario::ScenarioSpec::from_json(changed_eval)));
}

TEST(CacheKeyTest, BenchFileKeyTracksFileContents) {
  // The document only names the file; the key must change when its bytes
  // do, or an edited netlist would be served stale results.
  const std::string path = testing::TempDir() + "clktune_key_test.bench";
  const auto write_file = [&](const char* text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
  };
  Json doc = Json::object();
  doc.set("name", "bench");
  Json design = Json::object();
  design.set("bench_file", path);
  doc.set("design", std::move(design));
  const auto spec = scenario::ScenarioSpec::from_json(doc);

  write_file("INPUT(a)\n");
  const std::string key_a = cache::scenario_cache_key(spec);
  EXPECT_EQ(key_a, cache::scenario_cache_key(spec));  // content-stable
  write_file("INPUT(b)\n");
  EXPECT_NE(cache::scenario_cache_key(spec), key_a);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------ cache store

Json fake_artifact(int value) {
  Json j = Json::object();
  j.set("value", value);
  return j;
}

TEST(CacheKeyTest, OlderSchemaEntriesAreCleanMisses) {
  // Salt bumps v2 -> v3 (scenario kinds changed the result artifact space)
  // and v3 -> v4 (the solver may pick other tunings among tied optima): a
  // perfectly well-formed entry stored under an older key of the same
  // document must read as a miss, never deserialize into a v4 run.
  const auto spec = scenario::ScenarioSpec::from_json(tiny_scenario_doc());
  const std::string key = cache::scenario_cache_key(spec);
  const std::string dir = testing::TempDir() + "clktune_cache_old_schema";
  std::filesystem::remove_all(dir);
  int version = 2;
  for (const char* salt :
       {"clktune-scenario-result-v2\n", "clktune-scenario-result-v3\n"}) {
    util::Sha256 old;
    old.update(salt);
    old.update(util::canonical_dump(spec.to_json()));
    const std::string old_key = old.hex_digest();
    ASSERT_NE(old_key, key);

    cache::ResultCache cache_store(dir);
    // The old entry is intact (valid envelope, matching digest) — the miss
    // below is purely the salt bump, not corruption self-healing.
    cache_store.put(old_key, fake_artifact(version++));
    ASSERT_TRUE(cache::ResultCache(dir).get(old_key).has_value());

    cache::ResultCache fresh(dir);
    EXPECT_FALSE(fresh.get(key).has_value()) << salt;
    EXPECT_EQ(fresh.stats().misses, 1u);
    EXPECT_EQ(fresh.stats().self_heals, 0u);
  }

  cache::ResultCache(dir).put(key, fake_artifact(4));
  const auto hit = cache::ResultCache(dir).get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->at("value").as_int(), 4);
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, MemoryHitMissAndStats) {
  cache::ResultCache cache_store;  // memory-only
  EXPECT_FALSE(cache_store.get("k1").has_value());
  cache_store.put("k1", fake_artifact(1));
  const auto hit = cache_store.get("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->at("value").as_int(), 1);

  const cache::CacheStats stats = cache_store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.memory_hits, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.puts, 1u);
}

TEST(ResultCacheTest, LruEvictsLeastRecentlyUsed) {
  cache::ResultCache cache_store(/*directory=*/"", /*memory_capacity=*/2);
  cache_store.put("k1", fake_artifact(1));
  cache_store.put("k2", fake_artifact(2));
  ASSERT_TRUE(cache_store.get("k1").has_value());  // k2 is now the LRU
  cache_store.put("k3", fake_artifact(3));         // evicts k2
  EXPECT_EQ(cache_store.memory_size(), 2u);
  EXPECT_EQ(cache_store.stats().evictions, 1u);
  EXPECT_FALSE(cache_store.get("k2").has_value());
  EXPECT_TRUE(cache_store.get("k1").has_value());
  EXPECT_TRUE(cache_store.get("k3").has_value());
}

TEST(ResultCacheTest, DiskLayerPersistsAcrossInstancesAndEvictions) {
  const std::string dir = testing::TempDir() + "clktune_cache_test";
  std::filesystem::remove_all(dir);
  {
    cache::ResultCache writer(dir, /*memory_capacity=*/1);
    writer.put("k1", fake_artifact(1));
    writer.put("k2", fake_artifact(2));  // k1 evicted from memory, on disk
    const auto hit = writer.get("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->at("value").as_int(), 1);
    EXPECT_EQ(writer.stats().disk_hits, 1u);
  }
  cache::ResultCache reader(dir);
  const auto hit = reader.get("k2");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->at("value").as_int(), 2);
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_FALSE(reader.get("missing").has_value());
  std::filesystem::remove_all(dir);
}

TEST(ResultCacheTest, CorruptDiskEntryReadsAsMiss) {
  const std::string dir = testing::TempDir() + "clktune_cache_corrupt";
  std::filesystem::remove_all(dir);
  cache::ResultCache cache_store(dir);
  {
    std::FILE* f = std::fopen((dir + "/deadbeef.json").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{not json", f);
    std::fclose(f);
  }
  EXPECT_FALSE(cache_store.get("deadbeef").has_value());
  std::filesystem::remove_all(dir);
}

Json tiny_campaign_doc() {
  Json doc = Json::object();
  doc.set("name", "tiny_campaign");
  doc.set("base", tiny_scenario_doc());
  Json sweep = Json::object();
  sweep.set("clock.sigma_offset",
            Json(util::JsonArray{Json(0.0), Json(1.0)}));
  doc.set("sweep", std::move(sweep));
  return doc;
}

// ------------------------------------------------------ disk maintenance

TEST(CacheMaintenanceTest, GcEvictsOldestEntriesAndWriterTempFiles) {
  const std::string dir = testing::TempDir() + "clktune_cache_gc";
  std::filesystem::remove_all(dir);
  cache::ResultCache cache_store(dir);
  cache_store.put("k1", fake_artifact(1));
  cache_store.put("k2", fake_artifact(2));
  cache_store.put("k3", fake_artifact(3));
  // Deterministic LRU order regardless of write timing granularity.
  const auto now = std::filesystem::file_time_type::clock::now();
  std::filesystem::last_write_time(dir + "/k1.json",
                                   now - std::chrono::hours(3));
  std::filesystem::last_write_time(dir + "/k2.json",
                                   now - std::chrono::hours(2));
  std::filesystem::last_write_time(dir + "/k3.json",
                                   now - std::chrono::hours(1));
  {
    std::FILE* f = std::fopen((dir + "/k9.json.tmp.123.0").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("torn", f);
    std::fclose(f);
  }

  const cache::DiskCacheStats before = cache::disk_cache_stats(dir);
  EXPECT_EQ(before.entries, 3u);  // the temp file is not an entry
  ASSERT_GT(before.bytes, 0u);

  // A budget that fits two entries evicts exactly the oldest one.
  const std::uint64_t entry_bytes =
      std::filesystem::file_size(dir + "/k1.json");
  const cache::GcReport report =
      cache::gc_cache_dir(dir, 2 * entry_bytes + entry_bytes / 2);
  EXPECT_EQ(report.scanned, 3u);
  EXPECT_EQ(report.removed, 1u);
  EXPECT_EQ(report.kept, 2u);
  EXPECT_EQ(report.temp_files_removed, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir + "/k1.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/k2.json"));

  // Budget 0 clears the layer entirely.
  const cache::GcReport wipe = cache::gc_cache_dir(dir, 0);
  EXPECT_EQ(wipe.removed, 2u);
  EXPECT_EQ(cache::disk_cache_stats(dir).entries, 0u);

  EXPECT_THROW(cache::disk_cache_stats(dir + "/nope"), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(CacheMaintenanceTest, VerifyReHashesArtifactsAgainstKeys) {
  const std::string dir = testing::TempDir() + "clktune_cache_verify";
  std::filesystem::remove_all(dir);

  // Real entries, written by a cached campaign run.
  const auto spec = scenario::CampaignSpec::from_json(tiny_campaign_doc());
  cache::ResultCache cache_store(dir);
  exec::Request request = exec::Request::for_campaign(spec);
  request.cache = &cache_store;
  exec::LocalExecutor executor;
  const scenario::CampaignSummary cold = executor.execute(request).summary;

  // Every entry is a self-describing envelope keyed by its filename.
  std::vector<std::string> files;
  for (const auto& item : std::filesystem::directory_iterator(dir))
    files.push_back(item.path().string());
  ASSERT_EQ(files.size(), 2u);
  for (const std::string& file : files) {
    const Json envelope = util::read_json_file(file);
    EXPECT_EQ(envelope.at("key").as_string() + ".json",
              std::filesystem::path(file).filename().string());
    EXPECT_EQ(envelope.at("sha256").as_string(),
              util::sha256_hex(util::canonical_dump(envelope.at("result"))));
  }
  EXPECT_TRUE(cache::verify_cache_dir(dir).ok());

  // Tamper with one artifact's bytes (still valid JSON): verify flags the
  // digest mismatch, and a warm run treats the entry as a miss — so
  // corruption self-heals instead of poisoning the summary.
  {
    Json envelope = util::read_json_file(files[0]);
    envelope.find("result")->set("setting", "tampered");
    util::write_json_file(files[0], envelope, -1);
  }
  {
    std::FILE* f = std::fopen((dir + "/not-a-key.json").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"key\":\"other\",\"sha256\":\"x\",\"result\":{}}", f);
    std::fclose(f);
  }
  const cache::VerifyReport report = cache::verify_cache_dir(dir);
  EXPECT_EQ(report.checked, 3u);
  ASSERT_EQ(report.issues.size(), 2u);

  cache::ResultCache reread(dir);
  exec::Request warm_request = exec::Request::for_campaign(spec);
  warm_request.cache = &reread;
  const scenario::CampaignSummary warm =
      executor.execute(warm_request).summary;
  EXPECT_EQ(warm.to_json().dump(), cold.to_json().dump());
  EXPECT_EQ(warm.scenarios_cached, 1u);  // the intact entry still serves
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- result round trip

TEST(ResultRoundTripTest, ScenarioResultJsonIsByteExact) {
  const auto spec = scenario::ScenarioSpec::from_json(tiny_scenario_doc());
  const scenario::ScenarioResult result = scenario::run_scenario(spec, 1);
  const std::string original = result.to_json().dump();
  const scenario::ScenarioResult rebuilt =
      scenario::ScenarioResult::from_json(Json::parse(original));
  EXPECT_EQ(rebuilt.to_json().dump(), original);
  EXPECT_EQ(rebuilt.seconds, 0.0);  // timing is not part of the artifact
}

// --------------------------------------------- campaign cache + selection

TEST(CampaignCacheTest, WarmRerunComputesNothingAndMatchesColdBytes) {
  const auto spec = scenario::CampaignSpec::from_json(tiny_campaign_doc());
  cache::ResultCache cache_store;

  exec::Request request = exec::Request::for_campaign(spec);
  request.cache = &cache_store;
  exec::LocalExecutor executor;
  const scenario::CampaignSummary cold = executor.execute(request).summary;
  EXPECT_EQ(cold.scenarios_cached, 0u);
  EXPECT_EQ(cache_store.stats().misses, 2u);

  const scenario::CampaignSummary warm = executor.execute(request).summary;
  EXPECT_EQ(warm.scenarios_cached, warm.scenarios_run);
  EXPECT_EQ(cache_store.stats().hits, 2u);
  EXPECT_EQ(warm.to_json().dump(), cold.to_json().dump());
}

TEST(CampaignShardTest, ShardsPartitionTheExpansion) {
  const auto spec = scenario::CampaignSpec::from_json(tiny_campaign_doc());
  exec::LocalExecutor executor;
  const exec::Request request = exec::Request::for_campaign(spec);
  const scenario::CampaignSummary full = executor.execute(request).summary;

  // `--shard 0/2` and `--shard 1/2` are the index lists {0} and {1}.
  exec::Request shard0 = request, shard1 = request;
  shard0.indices = std::vector<std::size_t>{0};
  shard1.indices = std::vector<std::size_t>{1};
  const scenario::CampaignSummary a = executor.execute(shard0).summary;
  const scenario::CampaignSummary b = executor.execute(shard1).summary;

  ASSERT_EQ(full.results.size(), 2u);
  ASSERT_EQ(a.results.size(), 1u);
  ASSERT_EQ(b.results.size(), 1u);
  EXPECT_EQ(a.results[0].to_json().dump(), full.results[0].to_json().dump());
  EXPECT_EQ(b.results[0].to_json().dump(), full.results[1].to_json().dump());

  // Partial summaries are self-describing; the full one stays unchanged.
  EXPECT_NE(a.to_json().dump().find("\"selection\""), std::string::npos);
  EXPECT_EQ(full.to_json().dump().find("\"selection\""), std::string::npos);

  exec::Request bad = request;
  bad.indices = std::vector<std::size_t>{2};
  EXPECT_THROW(executor.execute(bad), exec::ExecError);
}

// ---------------------------------------------------------- summary diff

Json fake_summary(const char* name, double yield_a, double yield_b) {
  Json make = Json::parse(R"({"name": "s", "results": []})");
  make.set("name", name);
  const auto cell = [](const char* cell_name, double tuned) {
    Json yield = Json::parse(R"({"tuned": {"yield": 0}})");
    yield.find("tuned")->set("yield", tuned);
    Json r = Json::object();
    r.set("name", cell_name);
    r.set("yield", std::move(yield));
    return r;
  };
  make.find("results")->push_back(cell("c0", yield_a));
  make.find("results")->push_back(cell("c1", yield_b));
  return make;
}

TEST(SummaryDiffTest, FlagsRegressionsBeyondTolerance) {
  const Json a = fake_summary("base", 0.90, 0.80);
  const Json b = fake_summary("cand", 0.896, 0.70);
  const scenario::SummaryDiff diff = scenario::diff_summaries(a, b, 0.005);
  ASSERT_EQ(diff.cells.size(), 2u);
  EXPECT_FALSE(diff.cells[0].regression);  // -0.004 within tolerance
  EXPECT_TRUE(diff.cells[1].regression);   // -0.10 beyond it
  EXPECT_EQ(diff.regressions, 1u);
  EXPECT_FALSE(diff.structural_mismatch());

  // Improvements never flag.
  const scenario::SummaryDiff improved =
      scenario::diff_summaries(b, a, 0.005);
  EXPECT_EQ(improved.regressions, 0u);
}

TEST(SummaryDiffTest, DetectsStructuralMismatch) {
  Json a = fake_summary("base", 0.9, 0.8);
  Json b = fake_summary("cand", 0.9, 0.8);
  b.find("results")->as_array().pop_back();
  const scenario::SummaryDiff diff = scenario::diff_summaries(a, b, 0.0);
  EXPECT_TRUE(diff.structural_mismatch());
  ASSERT_EQ(diff.only_in_a.size(), 1u);
  EXPECT_EQ(diff.only_in_a[0], "c1");
}

Json fake_criticality_cell(const char* name,
                           std::vector<std::pair<int, double>> arcs) {
  Json list = Json::array();
  for (const auto& [index, after] : arcs) {
    Json arc = Json::object();
    arc.set("arc", index);
    arc.set("after", after);
    list.push_back(std::move(arc));
  }
  Json crit = Json::object();
  crit.set("arcs", std::move(list));
  Json r = Json::object();
  r.set("name", name);
  r.set("kind", "criticality");
  r.set("criticality", std::move(crit));
  return r;
}

Json fake_binning_cell(const char* name,
                       std::vector<std::pair<double, double>> bins) {
  Json list = Json::array();
  for (const auto& [period, tuned_yield] : bins) {
    Json tuned = Json::object();
    tuned.set("yield", tuned_yield);
    Json bin = Json::object();
    bin.set("period_ps", period);
    bin.set("tuned", std::move(tuned));
    list.push_back(std::move(bin));
  }
  Json binning = Json::object();
  binning.set("bins", std::move(list));
  Json r = Json::object();
  r.set("name", name);
  r.set("kind", "binning");
  r.set("binning", std::move(binning));
  return r;
}

TEST(SummaryDiffTest, CriticalityComparesTopKRankSetsUnderTolerance) {
  // Same arc set, probabilities within tolerance: clean.
  const Json a = fake_criticality_cell("c", {{3, 0.40}, {7, 0.10}});
  const Json close_b = fake_criticality_cell("c", {{3, 0.41}, {7, 0.10}});
  EXPECT_EQ(scenario::diff_summaries(a, close_b, 0.02).regressions, 0u);

  // An arc that left the ranking counts as probability 0 on that side.
  const Json dropped = fake_criticality_cell("c", {{3, 0.40}});
  const scenario::SummaryDiff d = scenario::diff_summaries(a, dropped, 0.02);
  ASSERT_EQ(d.cells.size(), 1u);
  EXPECT_EQ(d.cells[0].kind, "criticality");
  EXPECT_TRUE(d.cells[0].regression);
  EXPECT_FALSE(d.structural_mismatch());

  // The comparison scalar is the highest after-tuning criticality.
  EXPECT_DOUBLE_EQ(d.cells[0].yield_a, 0.40);
}

TEST(SummaryDiffTest, BinningComparesPerRungAndRejectsLadderChanges) {
  const Json a = fake_binning_cell("c", {{500.0, 0.6}, {550.0, 0.9}});
  const Json better = fake_binning_cell("c", {{500.0, 0.7}, {550.0, 0.9}});
  EXPECT_EQ(scenario::diff_summaries(a, better, 0.01).regressions, 0u);

  const Json worse = fake_binning_cell("c", {{500.0, 0.4}, {550.0, 0.9}});
  const scenario::SummaryDiff d = scenario::diff_summaries(a, worse, 0.01);
  EXPECT_EQ(d.regressions, 1u);
  EXPECT_DOUBLE_EQ(d.cells[0].yield_a, 0.6);  // lowest per-bin tuned yield

  // A different ladder is a structural mismatch, not a regression.
  const Json moved = fake_binning_cell("c", {{500.0, 0.6}, {560.0, 0.9}});
  const scenario::SummaryDiff m = scenario::diff_summaries(a, moved, 0.01);
  EXPECT_TRUE(m.structural_mismatch());
  ASSERT_EQ(m.incomparable.size(), 1u);
  EXPECT_EQ(m.incomparable[0], "c");
}

TEST(SummaryDiffTest, MismatchedKindsAreIncomparable) {
  const Json a = fake_summary("base", 0.9, 0.8).at("results").as_array()[0];
  const Json b = fake_criticality_cell("c0", {{3, 0.4}});
  const scenario::SummaryDiff diff = scenario::diff_summaries(a, b, 0.0);
  EXPECT_TRUE(diff.structural_mismatch());
  ASSERT_EQ(diff.incomparable.size(), 1u);
  EXPECT_EQ(diff.incomparable[0], "c0");
  EXPECT_EQ(diff.regressions, 0u);
}

}  // namespace
}  // namespace clktune
