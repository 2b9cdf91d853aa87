// Scenario / campaign subsystem tests: the JSON reader-writer, spec
// parsing and validation (including loud rejection of malformed input),
// sweep expansion, and an end-to-end campaign on a tiny synthetic design
// whose JSON artifact must be bit-identical across runs and thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/report_json.h"
#include "exec/local_executor.h"
#include "exec/request.h"
#include "scenario/campaign.h"
#include "scenario/scenario.h"
#include "util/json.h"

namespace clktune {
namespace {

using util::Json;
using util::JsonError;

// ----------------------------------------------------------------- JSON

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").as_double(), -1250.0);
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(JsonTest, ParsesNestedStructures) {
  const Json j = Json::parse(
      R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}, "f": -0.25})");
  EXPECT_EQ(j.at("a").as_array().size(), 3u);
  EXPECT_EQ(j.at("a").as_array()[2].at("b").as_string(), "c");
  EXPECT_TRUE(j.at("d").at("e").is_null());
  EXPECT_DOUBLE_EQ(j.at("f").as_double(), -0.25);
  EXPECT_FALSE(j.contains("missing"));
  EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(JsonTest, RoundTripPreservesValueAndOrder) {
  const std::string text =
      R"({"z":1,"a":[true,null,"x"],"m":{"k2":2.5,"k1":"é"}})";
  const Json j = Json::parse(text);
  // Member order is preserved, so a parse -> dump -> parse -> dump cycle is
  // a fixed point.
  EXPECT_EQ(j.dump(), Json::parse(j.dump()).dump());
  EXPECT_EQ(j.dump(), text);
}

TEST(JsonTest, DumpIsDeterministicAndPrettyRoundTrips) {
  Json j = Json::object();
  j.set("name", "x");
  j.set("values", Json(util::JsonArray{Json(1), Json(2.5), Json(false)}));
  EXPECT_EQ(j.dump(), j.dump());
  EXPECT_EQ(Json::parse(j.dump(2)).dump(), j.dump());
  // Integral doubles print without a decimal point; seeds survive exactly.
  Json k = Json::object();
  k.set("seed", std::uint64_t{20160314});
  EXPECT_EQ(k.dump(), "{\"seed\":20160314}");
  EXPECT_EQ(Json::parse(k.dump()).at("seed").as_uint(), 20160314u);
}

TEST(JsonTest, StringEscapes) {
  Json j = Json::object();
  j.set("s", std::string("a\"b\\c\n\t\x01"));
  const std::string dumped = j.dump();
  EXPECT_EQ(Json::parse(dumped).at("s").as_string(), "a\"b\\c\n\t\x01");
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1, 2,,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\": 1,}"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("01"), JsonError);
  EXPECT_THROW(Json::parse("1."), JsonError);
  EXPECT_THROW(Json::parse("1e"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("\"bad\\q\""), JsonError);
  EXPECT_THROW(Json::parse("[1] trailing"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), JsonError);
  // Nesting is capped at 512 containers, so depth cannot exhaust the stack.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), JsonError);
  EXPECT_THROW(Json::parse(std::string(513, '[') + std::string(513, ']')),
               JsonError);
  EXPECT_NO_THROW(Json::parse(std::string(512, '[') + std::string(512, ']')));
}

TEST(JsonTest, ErrorsCarryLineAndColumn) {
  try {
    Json::parse("{\n  \"a\": flase\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(JsonTest, TypeMismatchThrows) {
  const Json j = Json::parse(R"({"a": 1.5})");
  EXPECT_THROW(j.at("a").as_string(), JsonError);
  EXPECT_THROW(j.at("a").as_int(), JsonError);   // non-integral
  EXPECT_THROW(j.at("b"), JsonError);            // missing key
  EXPECT_THROW(Json::parse("[-1]").as_array()[0].as_uint(), JsonError);
}

// ----------------------------------------------------------- ScenarioSpec

Json tiny_scenario_doc(std::uint64_t design_seed = 5) {
  Json design = Json::object();
  Json synth = Json::object();
  synth.set("name", "tiny");
  synth.set("num_flipflops", 30);
  synth.set("num_gates", 220);
  synth.set("seed", design_seed);
  design.set("synthetic", std::move(synth));

  Json clock = Json::object();
  clock.set("sigma_offset", 0.0);
  clock.set("period_samples", 400);

  Json insertion = Json::object();
  insertion.set("num_samples", 200);
  insertion.set("steps", 8);

  Json evaluation = Json::object();
  evaluation.set("samples", 400);
  evaluation.set("seed", 99);

  Json doc = Json::object();
  doc.set("name", "tiny");
  doc.set("design", std::move(design));
  doc.set("clock", std::move(clock));
  doc.set("insertion", std::move(insertion));
  doc.set("evaluation", std::move(evaluation));
  return doc;
}

TEST(ScenarioSpecTest, ParsesCompleteDocument) {
  const auto spec = scenario::ScenarioSpec::from_json(tiny_scenario_doc());
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.design.kind, scenario::DesignSourceKind::synthetic);
  EXPECT_EQ(spec.design.synthetic.num_flipflops, 30);
  EXPECT_EQ(spec.insertion.num_samples, 200u);
  EXPECT_EQ(spec.insertion.steps, 8);
  EXPECT_EQ(spec.evaluation.samples, 400u);
  EXPECT_EQ(spec.evaluation.seed, 99u);
  EXPECT_FALSE(spec.yield_target.has_value());
}

TEST(ScenarioSpecTest, SpecRoundTripsThroughJson) {
  const auto spec = scenario::ScenarioSpec::from_json(tiny_scenario_doc());
  const auto again = scenario::ScenarioSpec::from_json(spec.to_json());
  EXPECT_EQ(spec.to_json().dump(), again.to_json().dump());
}

TEST(ScenarioSpecTest, DefaultsApplyWhenSectionsOmitted) {
  Json doc = Json::object();
  doc.set("name", "defaults");
  Json design = Json::object();
  design.set("paper_circuit", "s9234");
  doc.set("design", std::move(design));
  const auto spec = scenario::ScenarioSpec::from_json(doc);
  const core::InsertionConfig defaults;
  EXPECT_EQ(spec.insertion.num_samples, defaults.num_samples);
  EXPECT_EQ(spec.insertion.steps, defaults.steps);
  EXPECT_EQ(spec.clock.sigma_offset, 0.0);
  EXPECT_EQ(spec.clock.label(), "muT");
}

TEST(ScenarioSpecTest, RejectsMalformedSpecs) {
  // Unknown top-level key.
  Json doc = tiny_scenario_doc();
  doc.set("numsamples", 5);
  EXPECT_THROW(scenario::ScenarioSpec::from_json(doc), JsonError);

  // Typo inside a section.
  doc = tiny_scenario_doc();
  doc.find("insertion")->set("nm_samples", 5);
  EXPECT_THROW(scenario::ScenarioSpec::from_json(doc), JsonError);

  // Missing design.
  doc = tiny_scenario_doc();
  Json stripped = Json::object();
  stripped.set("name", "x");
  EXPECT_THROW(scenario::ScenarioSpec::from_json(stripped), JsonError);

  // Two design sources at once.
  doc = tiny_scenario_doc();
  doc.find("design")->set("paper_circuit", "s9234");
  EXPECT_THROW(scenario::ScenarioSpec::from_json(doc), JsonError);

  // Unknown paper circuit name surfaces on build().
  Json named = Json::object();
  named.set("name", "x");
  Json d = Json::object();
  d.set("paper_circuit", "does_not_exist");
  named.set("design", std::move(d));
  const auto spec = scenario::ScenarioSpec::from_json(named);
  EXPECT_THROW(spec.design.build(), JsonError);

  // Out-of-range values.
  doc = tiny_scenario_doc();
  doc.find("insertion")->set("num_samples", 0);
  EXPECT_THROW(scenario::ScenarioSpec::from_json(doc), JsonError);
  doc = tiny_scenario_doc();
  doc.find("clock")->set("period_ps", -5.0);
  EXPECT_THROW(scenario::ScenarioSpec::from_json(doc), JsonError);
  doc = tiny_scenario_doc();
  doc.set("yield_target", 1.5);
  EXPECT_THROW(scenario::ScenarioSpec::from_json(doc), JsonError);
}

TEST(ScenarioSpecTest, ClockLabels) {
  scenario::ClockPolicy clock;
  EXPECT_EQ(clock.label(), "muT");
  clock.sigma_offset = 1.0;
  EXPECT_EQ(clock.label(), "muT+s");
  clock.sigma_offset = 2.0;
  EXPECT_EQ(clock.label(), "muT+2s");
  clock.sigma_offset = -0.5;
  EXPECT_EQ(clock.label(), "muT-0.5s");
  clock.period_ps = 800.0;
  EXPECT_EQ(clock.label(), "fixed");
}

// -------------------------------------------------------------- Campaign

Json tiny_campaign_doc() {
  Json doc = Json::object();
  doc.set("name", "tiny_campaign");
  doc.set("base", tiny_scenario_doc());
  Json sweep = Json::object();
  sweep.set("design.synthetic.seed",
            Json(util::JsonArray{Json(5), Json(6)}));
  sweep.set("clock.sigma_offset",
            Json(util::JsonArray{Json(0.0), Json(1.0)}));
  doc.set("sweep", std::move(sweep));
  return doc;
}

TEST(CampaignTest, ExpandsCrossProductInDeclarationOrder) {
  const auto spec = scenario::CampaignSpec::from_json(tiny_campaign_doc());
  const auto scenarios = spec.expand();
  ASSERT_EQ(scenarios.size(), 4u);
  EXPECT_EQ(scenarios[0].name, "tiny/seed=5/sigma_offset=0");
  EXPECT_EQ(scenarios[1].name, "tiny/seed=5/sigma_offset=1");
  EXPECT_EQ(scenarios[2].name, "tiny/seed=6/sigma_offset=0");
  EXPECT_EQ(scenarios[3].name, "tiny/seed=6/sigma_offset=1");
  EXPECT_EQ(scenarios[0].design.synthetic.seed, 5u);
  EXPECT_EQ(scenarios[3].design.synthetic.seed, 6u);
  EXPECT_EQ(scenarios[3].clock.sigma_offset, 1.0);
  // seed_stride gives every expansion a distinct sampling seed.
  EXPECT_EQ(scenarios[1].insertion.sample_seed,
            scenarios[0].insertion.sample_seed + 1);
  EXPECT_EQ(scenarios[3].insertion.sample_seed,
            scenarios[0].insertion.sample_seed + 3);
}

TEST(CampaignTest, ExplicitSeedAxisOverridesStride) {
  // Sweeping sample_seed directly must run exactly the requested seeds,
  // not stride-perturbed ones.
  Json doc = tiny_campaign_doc();
  Json sweep = Json::object();
  sweep.set("insertion.sample_seed",
            Json(util::JsonArray{Json(100), Json(200)}));
  doc.set("sweep", std::move(sweep));
  const auto scenarios = scenario::CampaignSpec::from_json(doc).expand();
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].insertion.sample_seed, 100u);
  EXPECT_EQ(scenarios[1].insertion.sample_seed, 200u);
}

TEST(CampaignTest, RejectsMalformedCampaigns) {
  // Unknown top-level key.
  Json doc = tiny_campaign_doc();
  doc.set("sweeps", 1);
  EXPECT_THROW(scenario::CampaignSpec::from_json(doc), JsonError);
  // Missing base.
  Json no_base = Json::object();
  no_base.set("name", "x");
  EXPECT_THROW(scenario::CampaignSpec::from_json(no_base), JsonError);
  // Empty axis.
  doc = tiny_campaign_doc();
  doc.find("sweep")->set("insertion.steps", Json::array());
  EXPECT_THROW(scenario::CampaignSpec::from_json(doc), JsonError);
  // Axis path through a non-object.
  doc = tiny_campaign_doc();
  doc.find("sweep")->set("name.x", Json(util::JsonArray{Json(1)}));
  EXPECT_THROW(scenario::CampaignSpec::from_json(doc).expand(), JsonError);
  // Swept value that fails scenario validation.
  doc = tiny_campaign_doc();
  doc.find("sweep")->set("insertion.steps",
                         Json(util::JsonArray{Json(0)}));
  EXPECT_THROW(scenario::CampaignSpec::from_json(doc).expand(), JsonError);
}

TEST(CampaignTest, EndToEndDeterministicAcrossRunsAndThreadCounts) {
  auto spec = scenario::CampaignSpec::from_json(tiny_campaign_doc());
  exec::LocalExecutor executor;
  spec.threads = 4;
  const scenario::CampaignSummary a =
      executor.execute(exec::Request::for_campaign(spec)).summary;
  spec.threads = 1;
  const scenario::CampaignSummary b =
      executor.execute(exec::Request::for_campaign(spec)).summary;

  ASSERT_EQ(a.results.size(), 4u);
  EXPECT_EQ(a.scenarios_run, 4u);
  // Bit-identical artifacts: same bytes regardless of scheduling.
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());

  for (const scenario::ScenarioResult& r : a.results) {
    EXPECT_EQ(r.num_flipflops, 30);
    EXPECT_GT(r.clock_period_ps, 0.0);
    EXPECT_GE(r.yield.tuned.yield, r.yield.original.yield);
    EXPECT_EQ(r.yield.original.samples, 400u);
  }
  // muT scenarios must leave ~half the chips failing originally; tuning
  // must rescue a visible fraction.
  EXPECT_NEAR(a.results[0].yield.original.yield, 0.5, 0.2);
  EXPECT_GT(a.results[0].yield.improvement(), 0.05);
}

TEST(CampaignTest, YieldTargetsAreChecked) {
  Json doc = tiny_campaign_doc();
  doc.find("base")->set("yield_target", 1.0);  // unreachable at muT
  exec::LocalExecutor executor;
  const scenario::CampaignSummary summary =
      executor
          .execute(exec::Request::for_campaign(
              scenario::CampaignSpec::from_json(doc)))
          .summary;
  EXPECT_GT(summary.targets_missed, 0u);
  bool missed_flagged = false;
  for (const scenario::ScenarioResult& r : summary.results)
    missed_flagged |= !r.met_target;
  EXPECT_TRUE(missed_flagged);
}

// -------------------------------------------------------- Result artifacts

TEST(ReportJsonTest, TuningPlanRoundTripsThroughResultJson) {
  const auto spec = scenario::ScenarioSpec::from_json(tiny_scenario_doc());
  const scenario::ScenarioResult result = scenario::run_scenario(spec, 1);
  ASSERT_FALSE(result.insertion.plan.empty());

  const Json artifact = result.to_json();
  const feas::TuningPlan plan =
      core::tuning_plan_from_json(artifact.at("insertion"));
  EXPECT_EQ(plan.buffers.size(), result.insertion.plan.buffers.size());
  EXPECT_EQ(plan.num_groups, result.insertion.plan.num_groups);
  EXPECT_DOUBLE_EQ(plan.step_ps, result.insertion.plan.step_ps);
  for (std::size_t i = 0; i < plan.buffers.size(); ++i) {
    EXPECT_EQ(plan.buffers[i].ff, result.insertion.plan.buffers[i].ff);
    EXPECT_EQ(plan.buffers[i].k_lo, result.insertion.plan.buffers[i].k_lo);
    EXPECT_EQ(plan.buffers[i].k_hi, result.insertion.plan.buffers[i].k_hi);
    EXPECT_EQ(plan.group_of[i], result.insertion.plan.group_of[i]);
  }
  EXPECT_DOUBLE_EQ(plan.average_range(),
                   result.insertion.plan.average_range());
}

TEST(ReportJsonTest, TimingFieldsOnlyWithOptIn) {
  const auto spec = scenario::ScenarioSpec::from_json(tiny_scenario_doc());
  const scenario::ScenarioResult result = scenario::run_scenario(spec, 1);
  const std::string deterministic = result.to_json(false).dump();
  const std::string timed = result.to_json(true).dump();
  EXPECT_EQ(deterministic.find("seconds"), std::string::npos);
  EXPECT_NE(timed.find("seconds"), std::string::npos);
}

}  // namespace
}  // namespace clktune
