// Unit tests for the regression gate (bench/gate.{hpp,cpp}): record
// extraction from both file formats, the value-vs-timing field split,
// slack arithmetic, missing record/field detection, and the report JSON.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "gate.hpp"

namespace {

using namespace cobra;

const std::string kBaseline =
    "{\n"
    "  \"benchmark\": \"demo\",\n"
    "  \"context\": { \"smoke\": 1, \"graph\": \"ring:n=64\" },\n"
    "  \"records\": [\n"
    "    { \"name\": \"case_a\", \"rounds\": 100, \"ratio\": 1.5,\n"
    "      \"cover_seconds\": 0.5, \"label\": \"x\" },\n"
    "    { \"name\": \"case_b\", \"rounds\": 200, \"ratio\": 2.0 }\n"
    "  ]\n"
    "}\n";

std::string with(const std::string& text, const std::string& from,
                 const std::string& to) {
  std::string out = text;
  const std::size_t at = out.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  out.replace(at, from.size(), to);
  return out;
}

TEST(Gate, TimingFieldsMatchBySubstring) {
  EXPECT_TRUE(bench::is_timing_field("cover_seconds"));
  EXPECT_TRUE(bench::is_timing_field("steps_per_sec"));
  EXPECT_TRUE(bench::is_timing_field("Speedup_8t"));
  EXPECT_TRUE(bench::is_timing_field("dynamic_efficiency"));
  EXPECT_TRUE(bench::is_timing_field("throughput"));
  EXPECT_TRUE(bench::is_timing_field("wall_time_ms"));
  EXPECT_FALSE(bench::is_timing_field("rounds"));
  EXPECT_FALSE(bench::is_timing_field("ratio"));
  EXPECT_FALSE(bench::is_timing_field("exponent"));
}

TEST(Gate, ExtractsNumericRecordFields) {
  const auto records = bench::extract_gate_records(kBaseline);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "case_a");
  ASSERT_EQ(records[0].fields.size(), 3u);  // "label" is a string: ignored
  EXPECT_EQ(records[0].fields[0].first, "rounds");
  EXPECT_DOUBLE_EQ(records[0].fields[0].second, 100.0);
  EXPECT_EQ(records[1].name, "case_b");
}

TEST(Gate, DuplicateRecordNamesGetSuffixes) {
  const std::string dup =
      "{ \"benchmark\": \"d\", \"records\": ["
      " { \"name\": \"r\", \"v\": 1 }, { \"name\": \"r\", \"v\": 2 } ] }";
  const auto records = bench::extract_gate_records(dup);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "r");
  EXPECT_EQ(records[1].name, "r#2");
}

TEST(Gate, MalformedJsonThrows) {
  EXPECT_THROW((void)bench::extract_gate_records("not json"),
               std::invalid_argument);
  EXPECT_THROW((void)bench::extract_gate_records("{ \"benchmark\": \"x\" }"),
               std::invalid_argument);
  EXPECT_THROW((void)bench::extract_gate_records(
                   kBaseline.substr(0, kBaseline.size() / 2)),
               std::invalid_argument);
}

TEST(Gate, IdenticalFilesPass) {
  const auto report = bench::run_gate(kBaseline, kBaseline, {});
  EXPECT_TRUE(report.pass);
  EXPECT_EQ(report.records_compared, 2u);
  EXPECT_EQ(report.fields_compared, 4u);       // 2x rounds + 2x ratio
  EXPECT_EQ(report.time_fields_skipped, 1u);   // cover_seconds
  EXPECT_TRUE(report.issues.empty());
}

TEST(Gate, DriftWithinSlackPasses) {
  // ratio 1.5 -> 1.56: rel delta 0.04, inside the default 0.05.
  const std::string candidate = with(kBaseline, "\"ratio\": 1.5,", "\"ratio\": 1.56,");
  EXPECT_TRUE(bench::run_gate(kBaseline, candidate, {}).pass);
}

TEST(Gate, DriftBeyondSlackFails) {
  // ratio 1.5 -> 1.7: rel delta ~0.133.
  const std::string candidate = with(kBaseline, "\"ratio\": 1.5,", "\"ratio\": 1.7,");
  const auto report = bench::run_gate(kBaseline, candidate, {});
  ASSERT_FALSE(report.pass);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].kind, "exceeds-slack");
  EXPECT_EQ(report.issues[0].record, "case_a");
  EXPECT_EQ(report.issues[0].field, "ratio");
  EXPECT_NEAR(report.issues[0].rel_delta, 0.1333, 0.001);
  // A wider slack admits the same drift.
  bench::GateConfig wide;
  wide.slack = 0.2;
  EXPECT_TRUE(bench::run_gate(kBaseline, candidate, wide).pass);
}

TEST(Gate, MissingRecordAndFieldFail) {
  const std::string no_b = with(
      kBaseline, ",\n    { \"name\": \"case_b\", \"rounds\": 200, \"ratio\": 2.0 }",
      "");
  const auto missing_record = bench::run_gate(kBaseline, no_b, {});
  ASSERT_FALSE(missing_record.pass);
  ASSERT_EQ(missing_record.issues.size(), 1u);
  EXPECT_EQ(missing_record.issues[0].kind, "missing-record");
  EXPECT_EQ(missing_record.issues[0].record, "case_b");

  const std::string no_field =
      with(kBaseline, "\"rounds\": 200, ", "");
  const auto missing_field = bench::run_gate(kBaseline, no_field, {});
  ASSERT_FALSE(missing_field.pass);
  ASSERT_EQ(missing_field.issues.size(), 1u);
  EXPECT_EQ(missing_field.issues[0].kind, "missing-field");
  EXPECT_EQ(missing_field.issues[0].field, "rounds");

  // The reverse direction is fine: extra candidate records are ignored.
  EXPECT_TRUE(bench::run_gate(no_b, kBaseline, {}).pass);
}

TEST(Gate, TimingGatedOnlyOnOptIn) {
  // A synthetically slowed run: cover_seconds 0.5 -> 5.0 (10x).
  const std::string slowed =
      with(kBaseline, "\"cover_seconds\": 0.5,", "\"cover_seconds\": 5.0,");
  // Default config: timing skipped, gate passes.
  const auto skipped = bench::run_gate(kBaseline, slowed, {});
  EXPECT_TRUE(skipped.pass);
  EXPECT_EQ(skipped.time_fields_skipped, 1u);
  // Opting in at 50% slack catches the 10x regression.
  bench::GateConfig strict;
  strict.gate_time = true;
  strict.time_slack = 0.5;
  const auto gated = bench::run_gate(kBaseline, slowed, strict);
  ASSERT_FALSE(gated.pass);
  ASSERT_EQ(gated.issues.size(), 1u);
  EXPECT_EQ(gated.issues[0].field, "cover_seconds");
  EXPECT_DOUBLE_EQ(gated.issues[0].allowed, 0.5);
  // An absurdly wide time slack re-admits it.
  strict.time_slack = 20.0;
  EXPECT_TRUE(bench::run_gate(kBaseline, slowed, strict).pass);
}

TEST(Gate, SweepFilesGateRecordsPerCell) {
  const auto cell = [](const std::string& spec, int threads, double rounds) {
    return "{ \"sweep_run_id\": 0, \"bench\": \"bench_demo\", \"spec\": \"" +
           spec + "\", \"threads\": " + std::to_string(threads) +
           ", \"result\": { \"benchmark\": \"demo\", \"records\": [ { "
           "\"name\": \"cover\", \"rounds\": " +
           std::to_string(rounds) + " } ] } }";
  };
  const auto sweep = [&](double r1, double r2) {
    return "{ \"sweep\": \"cobra_sweep\", \"context\": {}, \"runs\": [ " +
           cell("ring:n=64", 1, r1) + ", " + cell("ring:n=64", 2, r2) +
           " ] }";
  };
  const auto records = bench::extract_gate_records(sweep(100, 100));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "bench_demo|ring:n=64|t1|cover");
  EXPECT_EQ(records[1].name, "bench_demo|ring:n=64|t2|cover");

  EXPECT_TRUE(bench::run_gate(sweep(100, 100), sweep(100, 103), {}).pass);
  const auto report = bench::run_gate(sweep(100, 100), sweep(100, 120), {});
  ASSERT_FALSE(report.pass);
  EXPECT_EQ(report.issues[0].record, "bench_demo|ring:n=64|t2|cover");
}

TEST(Gate, NonFiniteCandidateFieldIsAHardMismatch) {
  // JsonReporter renders NaN/Inf as null; the gate maps null back to NaN
  // and must fail the comparison outright — NaN compares false with
  // everything, so plain slack arithmetic would wave garbage through.
  const std::string candidate = with(kBaseline, "\"ratio\": 1.5,",
                                     "\"ratio\": null,");
  const auto report = bench::run_gate(kBaseline, candidate, {});
  EXPECT_FALSE(report.pass);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].kind, "non-finite");
  EXPECT_EQ(report.issues[0].record, "case_a");
  EXPECT_EQ(report.issues[0].field, "ratio");
  // Both directions are hard failures: a poisoned BASELINE must not
  // become a free pass for the candidate either.
  const std::string bad_base = with(kBaseline, "\"rounds\": 100,",
                                    "\"rounds\": null,");
  const auto flipped = bench::run_gate(bad_base, kBaseline, {});
  EXPECT_FALSE(flipped.pass);
  ASSERT_EQ(flipped.issues.size(), 1u);
  EXPECT_EQ(flipped.issues[0].kind, "non-finite");
  // And the report renders the offending values as null, not as nan text
  // that would corrupt the report JSON.
  const std::string json = bench::render_gate_report(report, {});
  EXPECT_NE(json.find("\"non-finite\""), std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(Gate, ReportJsonCarriesVerdictAndIssues) {
  const std::string candidate = with(kBaseline, "\"ratio\": 1.5,", "\"ratio\": 1.7,");
  bench::GateConfig config;
  const auto report = bench::run_gate(kBaseline, candidate, config);
  const std::string json = bench::render_gate_report(report, config);
  EXPECT_NE(json.find("\"pass\": false"), std::string::npos);
  EXPECT_NE(json.find("\"slack\": 0.05"), std::string::npos);
  EXPECT_NE(json.find("\"exceeds-slack\""), std::string::npos);
  EXPECT_NE(json.find("\"case_a\""), std::string::npos);
  // The report is itself valid JSON by the gate's own parser... which only
  // reads bench/sweep shapes, so settle for structural balance here.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  const auto pass_report =
      bench::render_gate_report(bench::run_gate(kBaseline, kBaseline, config),
                                config);
  EXPECT_NE(pass_report.find("\"pass\": true"), std::string::npos);
  EXPECT_NE(pass_report.find("\"issues\": []"), std::string::npos);
}

}  // namespace
