#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/report.h"
#include "test_util.h"

namespace locpriv::core {
namespace {

SweepResult sample_sweep() {
  SweepResult s;
  s.mechanism_name = "geo-indistinguishability";
  s.parameter = "epsilon";
  s.scale = lppm::Scale::kLog;
  s.privacy_metric = "poi-retrieval";
  s.utility_metric = "area-coverage-f1";
  s.points.push_back({0.01, 0.06, 0.01, 0.80, 0.02});
  s.points.push_back({0.1, 0.45, 0.02, 0.95, 0.01});
  return s;
}

LppmModel sample_model() {
  LppmModel m;
  m.mechanism_name = "geo-indistinguishability";
  m.parameter = "epsilon";
  m.scale = lppm::Scale::kLog;
  m.privacy_metric = "poi-retrieval";
  m.utility_metric = "area-coverage-f1";
  m.privacy.fit = {0.17, 0.84, 0.99, 0.01, 10};
  m.privacy.param_low = 0.008;
  m.privacy.param_high = 0.1;
  m.privacy.metric_at_low = 0.02;
  m.privacy.metric_at_high = 0.45;
  m.utility.fit = {0.09, 1.21, 0.98, 0.02, 10};
  m.utility.param_low = 0.008;
  m.utility.param_high = 0.1;
  m.utility.metric_at_low = 0.78;
  m.utility.metric_at_high = 1.0;
  m.param_low = 0.008;
  m.param_high = 0.1;
  return m;
}

TEST(Report, AllSectionsRendered) {
  const SweepResult sweep = sample_sweep();
  const LppmModel model = sample_model();
  const std::vector<Objective> objectives{{Axis::kPrivacy, Sense::kAtMost, 0.10}};
  const Configuration cfg = Configurator(model).configure(objectives);

  ReportInputs inputs;
  inputs.title = "Test report";
  inputs.sweep = &sweep;
  inputs.model = &model;
  inputs.configuration = &cfg;
  inputs.objectives = objectives;

  const std::string md = render_markdown_report(inputs);
  EXPECT_NE(md.find("# Test report"), std::string::npos);
  EXPECT_NE(md.find("## Sweep"), std::string::npos);
  EXPECT_NE(md.find("## Fitted model"), std::string::npos);
  EXPECT_NE(md.find("## Configuration decision"), std::string::npos);
  EXPECT_NE(md.find("poi-retrieval <= 0.1"), std::string::npos);
  EXPECT_NE(md.find("**Feasible.**"), std::string::npos);
  // The sweep table carries the data rows.
  EXPECT_NE(md.find("| 0.01 | 0.06 |"), std::string::npos);
  // The model equation is printed in Eq. 2 form.
  EXPECT_NE(md.find("poi-retrieval = 0.84 + 0.17 * ln(epsilon)"), std::string::npos);
}

TEST(Report, SectionsOmittedWhenInputsAbsent) {
  ReportInputs inputs;
  inputs.title = "Empty";
  const std::string md = render_markdown_report(inputs);
  EXPECT_NE(md.find("# Empty"), std::string::npos);
  EXPECT_EQ(md.find("## Sweep"), std::string::npos);
  EXPECT_EQ(md.find("## Fitted model"), std::string::npos);
  EXPECT_EQ(md.find("## Configuration"), std::string::npos);
}

TEST(Report, InfeasibleConfigurationExplained) {
  const LppmModel model = sample_model();
  const std::vector<Objective> objectives{{Axis::kPrivacy, Sense::kAtMost, 1e-6}};
  const Configuration cfg = Configurator(model).configure(objectives);
  ASSERT_FALSE(cfg.feasible);

  ReportInputs inputs;
  inputs.model = &model;
  inputs.configuration = &cfg;
  inputs.objectives = objectives;
  const std::string md = render_markdown_report(inputs);
  EXPECT_NE(md.find("**Infeasible.**"), std::string::npos);
  EXPECT_NE(md.find("cannot be met"), std::string::npos);
}

TEST(Report, WritesToDisk) {
  const testutil::ScratchDir scratch;
  const std::string path = scratch.path("locpriv_report_test.md");
  const SweepResult sweep = sample_sweep();
  ReportInputs inputs;
  inputs.sweep = &sweep;
  write_markdown_report(path, inputs);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("## Sweep"), std::string::npos);
  EXPECT_THROW(write_markdown_report("/nonexistent/dir/report.md", inputs), std::runtime_error);
}

}  // namespace
}  // namespace locpriv::core
