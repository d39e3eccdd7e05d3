#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "core/model_store.h"
#include "test_util.h"

namespace locpriv::core {
namespace {

LppmModel sample_model() {
  LppmModel m;
  m.mechanism_name = "geo-indistinguishability";
  m.parameter = "epsilon";
  m.scale = lppm::Scale::kLog;
  m.privacy_metric = "poi-retrieval";
  m.utility_metric = "area-coverage-f1";
  m.privacy_direction = metrics::Direction::kLowerIsMorePrivate;
  m.utility_direction = metrics::Direction::kHigherIsMoreUseful;
  m.privacy.fit = {0.17, 0.84, 0.99, 0.012, 14};
  m.privacy.param_low = 0.008;
  m.privacy.param_high = 0.1;
  m.privacy.metric_at_low = 0.02;
  m.privacy.metric_at_high = 0.45;
  m.utility.fit = {0.09, 1.21, 0.98, 0.02, 14};
  m.utility.param_low = 0.004;
  m.utility.param_high = 0.3;
  m.utility.metric_at_low = 0.7;
  m.utility.metric_at_high = 1.1;
  m.param_low = 0.008;
  m.param_high = 0.1;
  return m;
}

TEST(ModelStore, JsonRoundTripPreservesEverything) {
  const LppmModel m = sample_model();
  const LppmModel back = model_from_json(model_to_json(m));
  EXPECT_EQ(back.mechanism_name, m.mechanism_name);
  EXPECT_EQ(back.parameter, m.parameter);
  EXPECT_EQ(back.scale, m.scale);
  EXPECT_EQ(back.privacy_metric, m.privacy_metric);
  EXPECT_EQ(back.utility_metric, m.utility_metric);
  EXPECT_EQ(back.privacy_direction, m.privacy_direction);
  EXPECT_EQ(back.utility_direction, m.utility_direction);
  EXPECT_DOUBLE_EQ(back.privacy.fit.slope, 0.17);
  EXPECT_DOUBLE_EQ(back.privacy.fit.intercept, 0.84);
  EXPECT_DOUBLE_EQ(back.privacy.fit.residual_stddev, 0.012);
  EXPECT_EQ(back.privacy.fit.n, 14u);
  EXPECT_DOUBLE_EQ(back.utility.param_high, 0.3);
  EXPECT_DOUBLE_EQ(back.param_low, 0.008);
}

TEST(ModelStore, RejectsWrongFormatTag) {
  io::JsonObject o;
  o["format"] = "something-else";
  EXPECT_THROW(model_from_json(io::JsonValue(std::move(o))), std::runtime_error);
  EXPECT_THROW(model_from_json(io::JsonValue(io::JsonObject{})), std::runtime_error);
}

TEST(ModelStore, RejectsBadEnumStrings) {
  io::JsonValue j = model_to_json(sample_model());
  io::JsonObject o = j.as_object();
  o["scale"] = "cubic";
  EXPECT_THROW(model_from_json(io::JsonValue(o)), std::runtime_error);
  o = j.as_object();
  o["privacy_direction"] = "sideways";
  EXPECT_THROW(model_from_json(io::JsonValue(o)), std::runtime_error);
}

TEST(ModelStore, FileRoundTrip) {
  const testutil::ScratchDir scratch;
  const std::string path = scratch.path("locpriv_model_test.json");
  save_model(path, sample_model());
  const LppmModel back = load_model(path);
  EXPECT_DOUBLE_EQ(back.privacy.fit.slope, 0.17);
  EXPECT_THROW(load_model("/nonexistent/model.json"), std::runtime_error);
}

TEST(SweepStore, JsonRoundTrip) {
  SweepResult s;
  s.mechanism_name = "geo-indistinguishability";
  s.parameter = "epsilon";
  s.scale = lppm::Scale::kLog;
  s.privacy_metric = "poi-retrieval";
  s.utility_metric = "area-coverage-f1";
  s.points.push_back({0.01, 0.05, 0.01, 0.80, 0.02});
  s.points.push_back({0.1, 0.44, 0.02, 0.95, 0.01});
  const SweepResult back = sweep_from_json(sweep_to_json(s));
  ASSERT_EQ(back.points.size(), 2u);
  EXPECT_DOUBLE_EQ(back.points[0].parameter_value, 0.01);
  EXPECT_DOUBLE_EQ(back.points[1].privacy_mean, 0.44);
  EXPECT_DOUBLE_EQ(back.points[0].utility_stddev, 0.02);
  EXPECT_EQ(back.scale, lppm::Scale::kLog);
}

TEST(SweepStore, CsvExportShapeAndContent) {
  const testutil::ScratchDir scratch;
  SweepResult s;
  s.parameter = "epsilon";
  s.privacy_metric = "poi-retrieval";
  s.utility_metric = "area-coverage-f1";
  s.points.push_back({0.01, 0.05, 0.011, 0.80, 0.02});
  const auto rows = sweep_to_csv_rows(s);
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0].size(), 5u);
  EXPECT_EQ(rows[0][0], "epsilon");
  EXPECT_EQ(rows[0][2], "poi-retrieval_stddev");
  EXPECT_EQ(rows[1][0], "0.01");
  EXPECT_EQ(rows[1][1], "0.05");
  EXPECT_EQ(rows[1][4], "0.02");

  const std::string path = scratch.path("locpriv_sweep_test.csv");
  save_sweep_csv(path, s);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "epsilon,poi-retrieval,poi-retrieval_stddev,"
                    "area-coverage-f1,area-coverage-f1_stddev");
}

SweepResult split_sweep_sample() {
  SweepResult s;
  s.mechanism_name = "geo-indistinguishability";
  s.parameter = "epsilon";
  s.scale = lppm::Scale::kLog;
  s.privacy_metric = "poi-retrieval";
  s.utility_metric = "area-coverage-f1";
  s.split.mode = SplitMode::kHoldout;
  s.split.test_fraction = 0.4;
  s.split.seed = 7;
  s.split_train_users = 6;
  s.split_test_users = 4;
  SweepPoint p{0.01, 0.05, 0.01, 0.80, 0.02};
  p.has_split = true;
  p.privacy_train_mean = 0.03;
  p.privacy_train_stddev = 0.005;
  s.points.push_back(p);
  return s;
}

TEST(SweepStore, SplitRoundTripKeepsGeneralizationBlock) {
  const SweepResult s = split_sweep_sample();
  const io::JsonValue j = sweep_to_json(s);
  ASSERT_TRUE(j.contains("generalization"));
  EXPECT_EQ(j.at("generalization").at("mode").as_string(), "holdout");
  EXPECT_DOUBLE_EQ(j.at("generalization").at("transfer_gap_mean").as_number(), 0.02);
  const SweepResult back = sweep_from_json(j);
  EXPECT_EQ(back.split.mode, SplitMode::kHoldout);
  EXPECT_DOUBLE_EQ(back.split.test_fraction, 0.4);
  EXPECT_EQ(back.split.seed, 7u);
  EXPECT_EQ(back.split_train_users, 6u);
  EXPECT_EQ(back.split_test_users, 4u);
  ASSERT_EQ(back.points.size(), 1u);
  EXPECT_TRUE(back.points[0].has_split);
  EXPECT_DOUBLE_EQ(back.points[0].privacy_train_mean, 0.03);
  EXPECT_DOUBLE_EQ(back.points[0].privacy_train_stddev, 0.005);

  // K-fold carries folds instead of test_fraction.
  SweepResult k = split_sweep_sample();
  k.split.mode = SplitMode::kKFold;
  k.split.folds = 3;
  const SweepResult kback = sweep_from_json(sweep_to_json(k));
  EXPECT_EQ(kback.split.mode, SplitMode::kKFold);
  EXPECT_EQ(kback.split.folds, 3u);
}

TEST(SweepStore, NoSplitSweepOmitsGeneralizationAndOldFilesStillParse) {
  SweepResult s;
  s.parameter = "epsilon";
  s.privacy_metric = "poi-retrieval";
  s.utility_metric = "area-coverage-f1";
  s.points.push_back({0.01, 0.05, 0.01, 0.80, 0.02});
  const io::JsonValue j = sweep_to_json(s);
  // Additive schema: split-off output is shaped exactly like a pre-split
  // file, and such files (no generalization block, no train fields)
  // still round-trip with the split disabled.
  EXPECT_FALSE(j.contains("generalization"));
  ASSERT_EQ(j.at("points").as_array().size(), 1u);
  EXPECT_FALSE(j.at("points").as_array()[0].contains("privacy_train_mean"));
  const SweepResult back = sweep_from_json(j);
  EXPECT_FALSE(back.split.enabled());
  EXPECT_FALSE(back.points[0].has_split);
}

TEST(SweepStore, SplitCsvAppendsTrainColumns) {
  const auto rows = sweep_to_csv_rows(split_sweep_sample());
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0].size(), 7u);
  EXPECT_EQ(rows[0][5], "poi-retrieval_train");
  EXPECT_EQ(rows[0][6], "poi-retrieval_train_stddev");
  EXPECT_EQ(rows[1][5], "0.03");
  EXPECT_EQ(rows[1][6], "0.005");
}

TEST(SweepStore, RejectsUnknownGeneralizationMode) {
  io::JsonValue j = sweep_to_json(split_sweep_sample());
  io::JsonObject o = j.as_object();
  io::JsonObject g = o.at("generalization").as_object();
  g["mode"] = "stratified";
  o["generalization"] = io::JsonValue(std::move(g));
  EXPECT_THROW(sweep_from_json(io::JsonValue(std::move(o))), std::runtime_error);
}

TEST(SweepStore, RejectsWrongFormat) {
  io::JsonObject o;
  o["format"] = "locpriv-model/1";  // a model tag is not a sweep tag
  EXPECT_THROW(sweep_from_json(io::JsonValue(std::move(o))), std::runtime_error);
}

}  // namespace
}  // namespace locpriv::core
