#include "cost/calibration.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "lattice/lattice.h"
#include "lattice/workload.h"
#include "tpcd/dbgen.h"
#include "util/clock.h"

namespace snakes {
namespace {

TEST(LeastSquaresTest, RecoversExactCoefficients) {
  // y = 2 + 3*a - 0.5*b, noiseless: the solver must hit the coefficients to
  // numerical round-off (1e-9 is generous; the residual is exactly zero).
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (double a = 0.0; a < 5.0; a += 1.0) {
    for (double b = 0.0; b < 4.0; b += 1.0) {
      rows.push_back({1.0, a, b});
      y.push_back(2.0 + 3.0 * a - 0.5 * b);
    }
  }
  const auto solved = SolveLeastSquares(rows, y);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  ASSERT_EQ(solved->size(), 3u);
  EXPECT_NEAR((*solved)[0], 2.0, 1e-9);
  EXPECT_NEAR((*solved)[1], 3.0, 1e-9);
  EXPECT_NEAR((*solved)[2], -0.5, 1e-9);
}

TEST(LeastSquaresTest, SingularDesignIsAnErrorNotNan) {
  // Two identical columns: X^T X is singular. The solver must return
  // InvalidArgument — never NaN coefficients.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (double a = 0.0; a < 6.0; a += 1.0) {
    rows.push_back({1.0, a, a});
    y.push_back(1.0 + 2.0 * a);
  }
  const auto solved = SolveLeastSquares(rows, y);
  EXPECT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
}

TEST(LeastSquaresTest, ConstantColumnAgainstInterceptIsSingular) {
  // A feature that never varies is collinear with the intercept.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (double a = 0.0; a < 6.0; a += 1.0) {
    rows.push_back({1.0, 7.0});
    y.push_back(3.0);
  }
  EXPECT_FALSE(SolveLeastSquares(rows, y).ok());
}

TEST(LeastSquaresTest, RejectsDegenerateShapes) {
  // Fewer rows than unknowns.
  EXPECT_FALSE(SolveLeastSquares({{1.0, 2.0, 3.0}}, {1.0}).ok());
  // Empty system.
  EXPECT_FALSE(SolveLeastSquares({}, {}).ok());
  // Ragged rows.
  EXPECT_FALSE(SolveLeastSquares({{1.0, 2.0}, {1.0}}, {1.0, 2.0}).ok());
  // Mismatched y.
  EXPECT_FALSE(SolveLeastSquares({{1.0}, {2.0}}, {1.0}).ok());
}

TEST(LeastSquaresTest, RejectsNonFiniteInput) {
  const double nan = std::nan("");
  EXPECT_FALSE(SolveLeastSquares({{1.0, nan}, {1.0, 2.0}, {1.0, 3.0}},
                                 {1.0, 2.0, 3.0})
                   .ok());
  EXPECT_FALSE(SolveLeastSquares({{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}},
                                 {1.0, nan, 3.0})
                   .ok());
}

CalibrationSample SyntheticSample(double seeks, double pages,
                                  double intercept, double seek_ms,
                                  double page_ms, const char* cls = "(0,0)") {
  CalibrationSample sample;
  sample.query_class = cls;
  sample.strategy = "synthetic";
  sample.backend = "packed";
  sample.features.seeks = seeks;
  sample.features.pages = pages;
  sample.measured_ns = (intercept + seek_ms * seeks + page_ms * pages) * 1e6;
  return sample;
}

TEST(CalibrationFitTest, RecoversSyntheticCoefficients) {
  // Noiseless synthetic time: the fit must recover intercept and both
  // coefficients to 1e-9 and report a perfect fit.
  const double intercept = 0.75, seek_ms = 9.5, page_ms = 0.546;
  std::vector<CalibrationSample> samples;
  for (double s = 1.0; s <= 8.0; s += 1.0) {
    for (double p = s; p <= s + 40.0; p += 10.0) {
      samples.push_back(SyntheticSample(s, p, intercept, seek_ms, page_ms));
    }
  }
  const auto fit = FitCalibration(samples);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_NEAR(fit->intercept_ms, intercept, 1e-9);
  EXPECT_NEAR(fit->coefficients_ms.seeks, seek_ms, 1e-9);
  EXPECT_NEAR(fit->coefficients_ms.pages, page_ms, 1e-9);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-9);
  EXPECT_NEAR(fit->median_relative_error, 0.0, 1e-9);
  EXPECT_EQ(fit->num_samples, samples.size());

  // The fitted model predicts exactly on the training features.
  const CalibratedLinearModel model = fit->ToModel();
  for (const CalibrationSample& sample : samples) {
    EXPECT_NEAR(model.EstimateMs(sample.features, 8192),
                sample.measured_ns * 1e-6, 1e-9);
  }
}

TEST(CalibrationFitTest, UnknownFeatureAndDegenerateSweepsFail) {
  std::vector<CalibrationSample> samples = {
      SyntheticSample(1.0, 2.0, 0.5, 9.5, 0.5),
      SyntheticSample(2.0, 5.0, 0.5, 9.5, 0.5),
      SyntheticSample(3.0, 9.0, 0.5, 9.5, 0.5),
  };
  CalibrationFitOptions options;
  options.features = {"seeks", "warp_drives"};
  EXPECT_FALSE(FitCalibration(samples, options).ok());
  // A feature that never varies across the sweep is collinear with the
  // intercept: error Status, not a NaN model.
  std::vector<CalibrationSample> constant = {
      SyntheticSample(2.0, 2.0, 0.5, 9.5, 0.5),
      SyntheticSample(2.0, 5.0, 0.5, 9.5, 0.5),
      SyntheticSample(2.0, 9.0, 0.5, 9.5, 0.5),
  };
  EXPECT_FALSE(FitCalibration(constant).ok());
  // Non-finite measurements are rejected up front.
  samples[1].measured_ns = std::nan("");
  EXPECT_FALSE(FitCalibration(samples).ok());
  EXPECT_FALSE(FitCalibration({}).ok());
}

TEST(CalibrationFitTest, FitJsonLoadsBackAsTheSameModel) {
  const auto fit = FitCalibration({
      SyntheticSample(1.0, 2.0, 0.5, 9.5, 0.5),
      SyntheticSample(2.0, 5.0, 0.5, 9.5, 0.5),
      SyntheticSample(3.0, 9.0, 0.5, 9.5, 0.5),
      SyntheticSample(5.0, 11.0, 0.5, 9.5, 0.5),
  });
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  // The coefficients JSON carries the fit report, and still loads as a
  // bit-identical model (the service's `costmodel calibrated` path).
  const auto parsed = CalibratedLinearModel::FromJson(fit->ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->intercept_ms(), fit->intercept_ms);
  EXPECT_EQ(parsed->coefficients_ms().seeks, fit->coefficients_ms.seeks);
  EXPECT_EQ(parsed->coefficients_ms().pages, fit->coefficients_ms.pages);
}

class CalibrationSweepTest : public ::testing::Test {
 protected:
  CalibrationSweepTest() {
    tpcd::Config config;
    config.parts_per_mfgr = 3;
    config.num_mfgrs = 2;
    config.num_suppliers = 3;
    config.months_per_year = 4;
    config.num_years = 2;
    config.num_orders = 600;
    warehouse_ = tpcd::GenerateWarehouse(config, 11).value();
    const ClusteringAdvisor advisor(warehouse_.schema);
    EvaluationRequest request{Workload::Uniform(advisor.Lattice())};
    request.strategies = {"row-major"};
    for (const PlannedStrategy& s :
         advisor.Plan(request).value().strategies) {
      strategies_.push_back(s.linearization);
    }
  }

  ~CalibrationSweepTest() override { std::remove(scratch_path_.c_str()); }

  CalibrationSweepConfig SweepConfig() const {
    CalibrationSweepConfig config;
    config.queries_per_class = 2;
    config.repetitions = 2;
    config.scratch_path = scratch_path_;
    return config;
  }

  // ctest runs every test as its own process, in parallel under -j: key the
  // scratch file by test name and pid so no two sweeps share it.
  const std::string scratch_path_ =
      ::testing::TempDir() + "/calibration_scratch_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(getpid()) + ".bin";
  tpcd::Warehouse warehouse_;
  std::vector<std::shared_ptr<const Linearization>> strategies_;
};

TEST_F(CalibrationSweepTest, FakeClockMakesTheSweepDeterministic) {
  // Under an injected clock every measured_ns is a pure function of the
  // clock parameters: two identical sweeps agree bit-for-bit, and each
  // sample's elapsed time is exactly one clock step (ExecuteTimed reads the
  // clock exactly twice), times the min-of-repetitions estimator.
  const CalibrationSweepConfig config = SweepConfig();
  FakeClock clock_a(/*start_ns=*/1000, /*step_ns=*/250);
  const auto a =
      CollectCalibrationSamples(warehouse_.facts, strategies_, config,
                                &clock_a);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_FALSE(a.value().empty());
  for (const CalibrationSample& sample : a.value()) {
    EXPECT_EQ(sample.measured_ns, 250.0) << sample.query_class;
  }

  FakeClock clock_b(/*start_ns=*/1000, /*step_ns=*/250);
  const auto b =
      CollectCalibrationSamples(warehouse_.facts, strategies_, config,
                                &clock_b);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value()[i].query_class, b.value()[i].query_class);
    EXPECT_EQ(a.value()[i].strategy, b.value()[i].strategy);
    EXPECT_EQ(a.value()[i].features.seeks, b.value()[i].features.seeks);
    EXPECT_EQ(a.value()[i].features.pages, b.value()[i].features.pages);
    EXPECT_EQ(a.value()[i].measured_ns, b.value()[i].measured_ns);
  }
}

TEST_F(CalibrationSweepTest, SweepCoversEveryClassAndBackend) {
  CalibrationSweepConfig config = SweepConfig();
  config.backends = {StorageBackendKind::kPacked,
                     StorageBackendKind::kMicroPartition};
  FakeClock clock(0, 100);
  const auto samples = CollectCalibrationSamples(warehouse_.facts, strategies_,
                                                 config, &clock);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  const QueryClassLattice lattice(*warehouse_.schema);
  const size_t expected = strategies_.size() * config.backends.size() *
                          lattice.size() *
                          static_cast<size_t>(config.queries_per_class);
  EXPECT_EQ(samples.value().size(), expected);
  // The micro-partition backend contributes pruning features the packed
  // backend cannot (its directory is one unit).
  bool saw_pruning = false;
  for (const CalibrationSample& sample : samples.value()) {
    if (sample.backend == "micropartition" &&
        sample.features.partitions_pruned > 0) {
      saw_pruning = true;
    }
  }
  EXPECT_TRUE(saw_pruning);
}

TEST_F(CalibrationSweepTest, SweepValidatesInputs) {
  CalibrationSweepConfig config = SweepConfig();
  EXPECT_FALSE(
      CollectCalibrationSamples(nullptr, strategies_, config).ok());
  EXPECT_FALSE(CollectCalibrationSamples(warehouse_.facts, {}, config).ok());
  config.queries_per_class = 0;
  EXPECT_FALSE(
      CollectCalibrationSamples(warehouse_.facts, strategies_, config).ok());
  config = SweepConfig();
  config.repetitions = 0;
  EXPECT_FALSE(
      CollectCalibrationSamples(warehouse_.facts, strategies_, config).ok());
  config = SweepConfig();
  config.backends.clear();
  EXPECT_FALSE(
      CollectCalibrationSamples(warehouse_.facts, strategies_, config).ok());
}

TEST_F(CalibrationSweepTest, EndToEndSweepFitsWithinTheErrorBound) {
  // The real-clock pipeline: sweep, fit, and hold the fitted model to the
  // same bound the bench guards — median relative error within 25%.
  CalibrationSweepConfig config = SweepConfig();
  config.queries_per_class = 3;
  config.repetitions = 3;
  const auto samples =
      CollectCalibrationSamples(warehouse_.facts, strategies_, config);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  const auto fit = FitCalibration(samples.value());
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_GT(fit->r_squared, 0.5);
  EXPECT_LE(fit->median_relative_error, 0.25);
  EXPECT_FALSE(fit->per_class_relative_error.empty());
}

TEST_F(CalibrationSweepTest, SamplesJsonHasTheSweepShape) {
  CalibrationSweepConfig config = SweepConfig();
  FakeClock clock(0, 42);
  const auto samples = CollectCalibrationSamples(warehouse_.facts, strategies_,
                                                 config, &clock);
  ASSERT_TRUE(samples.ok());
  const std::string json =
      CalibrationSamplesToJson(samples.value(), config.storage);
  EXPECT_NE(json.find("\"samples\""), std::string::npos);
  EXPECT_NE(json.find("\"page_size_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"measured_ns\": 42"), std::string::npos);
}

}  // namespace
}  // namespace snakes
