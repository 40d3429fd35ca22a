#include <gtest/gtest.h>

#include "legal/pipeline_config.hpp"

namespace mclg {
namespace {

TEST(PipelineConfigText, AppliesEveryKeyKind) {
  PipelineConfig config;
  const std::string text =
      "# tuned run\n"
      "preset = contest\n"
      "mgl.window.w = 48\n"
      "mgl.window.expand = 2.0\n"
      "mgl.routability = false\n"
      "maxdisp.delta0 = 25\n"
      "maxdisp.group_by_footprint = yes\n"
      "maxdisp.candidates = 6\n"
      "mcf.run = false\n"
      "mcf.n0 = 8.5\n";
  std::string error;
  ASSERT_TRUE(applyConfigText(text, &config, &error)) << error;
  EXPECT_EQ(config.mgl.window.initialW, 48);
  EXPECT_DOUBLE_EQ(config.mgl.window.expandFactor, 2.0);
  EXPECT_FALSE(config.mgl.insertion.routability);
  EXPECT_DOUBLE_EQ(config.maxDisp.delta0, 25.0);
  EXPECT_TRUE(config.maxDisp.groupByFootprint);
  EXPECT_EQ(config.maxDisp.candidatesPerCell, 6);
  EXPECT_FALSE(config.runFixedRowOrder);
  EXPECT_DOUBLE_EQ(config.fixedRowOrder.maxDispWeight, 8.5);
}

TEST(PipelineConfigText, PresetThenOverride) {
  PipelineConfig config;
  std::string error;
  ASSERT_TRUE(applyConfigText("preset = totaldisp\nmaxdisp.run = false\n",
                              &config, &error))
      << error;
  EXPECT_FALSE(config.mgl.insertion.contestWeights);  // from the preset
  EXPECT_FALSE(config.runMaxDisp);                    // overridden
}

TEST(PipelineConfigText, RejectsUnknownKey) {
  PipelineConfig config;
  std::string error;
  EXPECT_FALSE(applyConfigText("bogus.key = 1\n", &config, &error));
  EXPECT_NE(error.find("bogus.key"), std::string::npos);
  // MGL is serial: it has no thread count or batch capacity to configure.
  EXPECT_FALSE(applyConfigText("mgl.threads = 4\n", &config, &error));
  EXPECT_NE(error.find("mgl.threads"), std::string::npos);
  EXPECT_FALSE(applyConfigText("mgl.batch_cap = 8\n", &config, &error));
  EXPECT_NE(error.find("mgl.batch_cap"), std::string::npos);
  // Nor do the other stages: --threads sets their lanes (setThreads).
  EXPECT_FALSE(applyConfigText("maxdisp.threads = 4\n", &config, &error));
  EXPECT_NE(error.find("maxdisp.threads"), std::string::npos);
  EXPECT_FALSE(applyConfigText("mcf.threads = 1\n", &config, &error));
  EXPECT_NE(error.find("mcf.threads"), std::string::npos);
}

TEST(PipelineConfigText, RejectsBadValue) {
  PipelineConfig config;
  std::string error;
  EXPECT_FALSE(applyConfigText("maxdisp.candidates = many\n", &config,
                               &error));
  EXPECT_FALSE(applyConfigText("mgl.routability = maybe\n", &config, &error));
  EXPECT_FALSE(applyConfigText("just a line\n", &config, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(PipelineConfigText, RoundTripsThroughText) {
  PipelineConfig config = PipelineConfig::contest();
  config.maxDisp.candidatesPerCell = 3;
  config.maxDisp.delta0 = 17.5;
  config.fixedRowOrder.mrdpStyleNetwork = true;
  const std::string text = configToText(config);

  PipelineConfig parsed;
  std::string error;
  ASSERT_TRUE(applyConfigText(text, &parsed, &error)) << error;
  EXPECT_EQ(configToText(parsed), text);
}

}  // namespace
}  // namespace mclg
