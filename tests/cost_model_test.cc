#include "cost/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

namespace snakes {
namespace {

TEST(CostModelKindTest, NameParseRoundTrip) {
  for (const CostModelKind kind :
       {CostModelKind::kAnalytic, CostModelKind::kHdd, CostModelKind::kSsd,
        CostModelKind::kCalibrated}) {
    const auto parsed = ParseCostModelKind(CostModelKindName(kind));
    ASSERT_TRUE(parsed.ok()) << CostModelKindName(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseCostModelKind("floppy").ok());
  EXPECT_FALSE(ParseCostModelKind("").ok());
}

TEST(CostModelTest, FeatureFieldsCoverTheStruct) {
  // One entry per feature, each name unique, each member distinct.
  const auto& fields = CostFeatureFields();
  ASSERT_EQ(fields.size(), 6u);
  CostFeatures probe;
  double next = 1.0;
  for (const CostFeatureField& field : fields) probe.*(field.member) = next++;
  EXPECT_EQ(probe.seeks, 1.0);
  EXPECT_EQ(probe.pages, 2.0);
  EXPECT_EQ(probe.runs, 3.0);
  EXPECT_EQ(probe.records, 4.0);
  EXPECT_EQ(probe.partitions_scanned, 5.0);
  EXPECT_EQ(probe.partitions_pruned, 6.0);
}

TEST(CostModelTest, FeaturesFromQueryIo) {
  QueryIo io;
  io.seeks = 3;
  io.pages = 17;
  io.records = 420;
  const CostFeatures f = CostFeatures::FromQueryIo(io);
  EXPECT_EQ(f.seeks, 3.0);
  EXPECT_EQ(f.pages, 17.0);
  EXPECT_EQ(f.records, 420.0);
}

TEST(CostModelTest, AnalyticDefaultIsBitCompatibleWithDiskModel) {
  // The kAnalytic model must reproduce the seed's disk-model numbers
  // bit-for-bit: the literal seed formula, same constants (9.5 ms seeks,
  // 15,000 B/ms transfer), same operation order.
  const auto& model = DefaultCostModel();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->kind(), CostModelKind::kAnalytic);
  EXPECT_EQ(model->SeekMs(), 9.5);
  for (const uint64_t page_size : {uint64_t{1024}, uint64_t{8192}}) {
    for (double seeks = 0.0; seeks < 40.0; seeks += 7.25) {
      for (double pages = 0.0; pages < 300.0; pages += 61.5) {
        CostFeatures f;
        f.seeks = seeks;
        f.pages = pages;
        const double expected =
            seeks * 9.5 + pages * static_cast<double>(page_size) / 15'000.0;
        const double got = model->EstimateMs(f, page_size);
        EXPECT_EQ(got, expected) << seeks << " seeks, " << pages << " pages";
      }
    }
  }
}

TEST(AnalyticDiskModelTest, QueryTimeDecomposes) {
  // 10 ms seeks, one 8K page per ms.
  const AnalyticDiskModel disk(CostModelKind::kAnalytic, "test", 10.0, 8192.0);
  QueryIo io;
  io.seeks = 3;
  io.pages = 5;
  EXPECT_DOUBLE_EQ(disk.QueryMs(io, 8192), 3 * 10.0 + 5 * 1.0);
}

TEST(AnalyticDiskModelTest, ZeroIoIsFree) {
  QueryIo io;
  EXPECT_DOUBLE_EQ(DefaultCostModel()->QueryMs(io, 8192), 0.0);
}

TEST(AnalyticDiskModelTest, ExpectedTimeMatchesComponents) {
  const AnalyticDiskModel disk(CostModelKind::kAnalytic, "test", 5.0, 4096.0);
  // 2 expected seeks, 10 expected pages of 8K: 10ms + 20ms.
  WorkloadIoStats io;
  io.expected_seeks = 2.0;
  io.expected_pages = 10.0;
  EXPECT_DOUBLE_EQ(disk.ExpectedMs(io, 8192), 10.0 + 20.0);
}

TEST(AnalyticDiskModelTest, SeeksDominateScatteredIo) {
  // The premise of the paper's seek-count objective: for scattered reads,
  // positioning time swamps transfer time on rotating disks.
  const auto& disk = DefaultCostModel();  // 9.5 ms seek, 15 MB/s
  QueryIo scattered;
  scattered.seeks = 100;
  scattered.pages = 100;  // one page per seek
  QueryIo sequential;
  sequential.seeks = 1;
  sequential.pages = 100;
  const double scattered_ms = disk->QueryMs(scattered, 8192);
  const double sequential_ms = disk->QueryMs(sequential, 8192);
  EXPECT_GT(scattered_ms, 10.0 * sequential_ms);
}

TEST(CostModelTest, DefaultCostModelIsAProcessSingleton) {
  EXPECT_EQ(DefaultCostModel().get(), DefaultCostModel().get());
}

TEST(CostModelTest, PresetsOrderSeekCosts) {
  const auto hdd = MakeCostModel(CostModelKind::kHdd).value();
  const auto ssd = MakeCostModel(CostModelKind::kSsd).value();
  const auto analytic = MakeCostModel(CostModelKind::kAnalytic).value();
  // Seeks: 1999 disk > modern hdd >> ssd.
  EXPECT_GT(analytic->SeekMs(), hdd->SeekMs());
  EXPECT_GT(hdd->SeekMs(), 10.0 * ssd->SeekMs());
  // Transfer: same 100-page sequential read is far faster on ssd.
  CostFeatures seq;
  seq.seeks = 1.0;
  seq.pages = 100.0;
  EXPECT_GT(hdd->EstimateMs(seq, 8192), ssd->EstimateMs(seq, 8192));
}

TEST(CostModelTest, CalibratedEstimateIsInterceptPlusDot) {
  CostFeatures coef;
  coef.seeks = 2.0;
  coef.pages = 0.5;
  coef.records = 0.001;
  const CalibratedLinearModel model(1.25, coef);
  CostFeatures f;
  f.seeks = 3.0;
  f.pages = 10.0;
  f.records = 100.0;
  EXPECT_DOUBLE_EQ(model.EstimateMs(f, 8192),
                   1.25 + 3.0 * 2.0 + 10.0 * 0.5 + 100.0 * 0.001);
  // Fitted models absorbed the page size at calibration time.
  EXPECT_EQ(model.EstimateMs(f, 8192), model.EstimateMs(f, 1024));
  EXPECT_EQ(model.SeekMs(), 2.0);
  EXPECT_EQ(model.kind(), CostModelKind::kCalibrated);
}

TEST(CostModelTest, CalibratedJsonRoundTripIsExact) {
  CostFeatures coef;
  coef.seeks = 9.5;
  coef.pages = 0.546133333333333364;  // full-precision survives %.17g
  coef.partitions_pruned = -0.0625;
  const CalibratedLinearModel model(0.123456789012345678, coef, "fitted");
  const auto parsed = CalibratedLinearModel::FromJson(model.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->intercept_ms(), model.intercept_ms());
  for (const CostFeatureField& field : CostFeatureFields()) {
    EXPECT_EQ(parsed->coefficients_ms().*(field.member),
              model.coefficients_ms().*(field.member))
        << field.name;
  }
}

TEST(CostModelTest, FromJsonRejectsMalformedInput) {
  // Every rejection is a Status, never a NaN model.
  for (const char* bad : {
           "",                                           // empty
           "not json",                                   // garbage
           "{\"coefficients\": {\"seeks\": 1.0}}",       // missing intercept
           "{\"intercept_ms\": 1.0}",                    // missing coefficients
           "{\"intercept_ms\": 1.0, \"coefficients\": "
           "{\"warp_drives\": 2.0}}",                    // unknown feature
           "{\"intercept_ms\": nan, \"coefficients\": "
           "{\"seeks\": 1.0}}",                          // non-finite
           "{\"intercept_ms\": 1e999, \"coefficients\": "
           "{\"seeks\": 1.0}}",                          // overflow
       }) {
    const auto parsed = CalibratedLinearModel::FromJson(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
  }
}

TEST(CostModelTest, FromJsonSkipsUnknownTopLevelKeys) {
  // Fit metadata (r_squared, per-class errors) rides along in the same
  // file; the parser must skip what it does not price.
  const char* json =
      "{\"model\": \"calibrated-linear\", \"intercept_ms\": 2.0, "
      "\"r_squared\": 0.98, \"per_class\": {\"(0,0)\": 0.1, \"(1,0)\": 0.2}, "
      "\"coefficients\": {\"seeks\": 4.0, \"pages\": 0.25}}";
  const auto parsed = CalibratedLinearModel::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->intercept_ms(), 2.0);
  EXPECT_EQ(parsed->coefficients_ms().seeks, 4.0);
  EXPECT_EQ(parsed->coefficients_ms().pages, 0.25);
}

TEST(CostModelTest, MakeCostModelSpecs) {
  // Preset kinds need no payload; kCalibrated without one is an error.
  EXPECT_TRUE(MakeCostModel(CostModelKind::kAnalytic).ok());
  EXPECT_FALSE(MakeCostModel(CostModelKind::kCalibrated).ok());

  CostModelSpec spec;
  spec.kind = CostModelKind::kCalibrated;
  EXPECT_FALSE(MakeCostModel(spec).ok());  // empty payload

  spec.calibrated_json =
      "{\"intercept_ms\": 0.5, \"coefficients\": {\"pages\": 0.125}}";
  const auto inline_model = MakeCostModel(spec);
  ASSERT_TRUE(inline_model.ok()) << inline_model.status().ToString();
  EXPECT_EQ(inline_model.value()->kind(), CostModelKind::kCalibrated);

  // Non-'{' payloads are file paths; unreadable ones fail cleanly.
  spec.calibrated_json = "/no/such/coefficients.json";
  EXPECT_FALSE(MakeCostModel(spec).ok());

  const std::string path = ::testing::TempDir() + "/coef.json";
  {
    std::ofstream out(path);
    out << "{\"intercept_ms\": 0.5, \"coefficients\": {\"pages\": 0.125}}";
  }
  spec.calibrated_json = path;
  const auto file_model = MakeCostModel(spec);
  ASSERT_TRUE(file_model.ok()) << file_model.status().ToString();
  EXPECT_EQ(file_model.value()->EstimateMs(CostFeatures{}, 8192), 0.5);
}

TEST(CostModelTest, ToJsonDescribesEveryKind) {
  for (const CostModelKind kind :
       {CostModelKind::kAnalytic, CostModelKind::kHdd, CostModelKind::kSsd}) {
    const auto model = MakeCostModel(kind).value();
    const std::string json = model->ToJson();
    EXPECT_NE(json.find(CostModelKindName(kind)), std::string::npos) << json;
  }
}

}  // namespace
}  // namespace snakes
