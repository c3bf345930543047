#include <gtest/gtest.h>

#include <memory>

#include "curves/path_order.h"
#include "curves/row_major.h"
#include "path/snaked_dp.h"
#include "storage/file_store.h"
#include "storage/query_engine.h"
#include "tpcd/dbgen.h"
#include "tpcd/workloads.h"
#include "util/clock.h"
#include "util/rng.h"

namespace snakes {
namespace {

class FileStoreTest : public ::testing::Test {
 protected:
  FileStoreTest() {
    tpcd::Config config;
    config.parts_per_mfgr = 4;
    config.num_mfgrs = 3;
    config.num_suppliers = 4;
    config.months_per_year = 6;
    config.num_years = 2;
    config.num_orders = 3'000;
    warehouse_ = tpcd::GenerateWarehouse(config, 47).value();
  }

  std::shared_ptr<const PackedLayout> MakeLayout(
      std::shared_ptr<const Linearization> lin, StorageConfig config) {
    return std::make_shared<PackedLayout>(
        PackedLayout::Pack(std::move(lin), warehouse_.facts, config).value());
  }

  tpcd::Warehouse warehouse_;
};

TEST_F(FileStoreTest, FileSizeMatchesPager) {
  auto lin = std::shared_ptr<const Linearization>(
      RowMajorOrder::Make(warehouse_.schema, {0, 1, 2}).value());
  const StorageConfig config{8192, 125};
  auto layout = MakeLayout(lin, config);
  const std::string path = ::testing::TempDir() + "/facts.bin";
  auto store = FileStore::Create(path, layout);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->file_bytes(), layout->num_pages() * config.page_size_bytes);
}

TEST_F(FileStoreTest, PhysicalReadsMatchSimulatorAndFacts) {
  // The ground-truth test: answers from real page reads equal the fact
  // table; pages and seeks equal the simulator's predictions, for queries
  // of every class under two different clusterings.
  const QueryClassLattice lat(*warehouse_.schema);
  const Workload mu = tpcd::SectionSixWorkload(lat, 7).value();
  const auto dp = FindOptimalSnakedLatticePath(mu).value();

  std::vector<std::shared_ptr<const Linearization>> orders;
  orders.emplace_back(
      MakePathOrder(warehouse_.schema, dp.path, true).value());
  orders.emplace_back(
      RowMajorOrder::Make(warehouse_.schema, {2, 0, 1}).value());

  Rng rng(3);
  for (size_t o = 0; o < orders.size(); ++o) {
    auto layout = MakeLayout(orders[o], StorageConfig{1024, 64});
    const std::string path = ::testing::TempDir() + "/facts" +
                             std::to_string(o) + ".bin";
    auto store = FileStore::Create(path, layout);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const QueryEngine simulated(*layout);

    for (uint64_t ci = 0; ci < lat.size(); ++ci) {
      const GridQuery q =
          SampleQuery(*warehouse_.schema, lat.ClassAt(ci), &rng);
      const QueryAnswer physical = store->Execute(q).value();
      const QueryAnswer expected = simulated.Execute(q);
      EXPECT_EQ(physical.count, expected.count) << q.ToString();
      EXPECT_EQ(physical.cents, expected.cents) << q.ToString();
      EXPECT_NEAR(physical.sum, expected.sum, 1e-6 * (1.0 + expected.sum))
          << q.ToString();
      EXPECT_EQ(physical.io.pages, expected.io.pages) << q.ToString();
      EXPECT_EQ(physical.io.seeks, expected.io.seeks) << q.ToString();
    }
  }
}

TEST_F(FileStoreTest, ExecuteTimedTakesExactlyTwoClockReadings) {
  // The timing contract the calibration sweep depends on: one reading
  // before the file opens, one after the last page — nothing in between.
  // Under a FakeClock that advances a fixed step per reading, every
  // measured interval is therefore exactly one step, for every query class.
  auto lin = std::shared_ptr<const Linearization>(
      RowMajorOrder::Make(warehouse_.schema, {0, 1, 2}).value());
  auto layout = MakeLayout(lin, StorageConfig{1024, 64});
  const std::string path = ::testing::TempDir() + "/timed.bin";
  auto store = FileStore::Create(path, layout);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  const QueryClassLattice lat(*warehouse_.schema);
  Rng rng(9);
  FakeClock clock(/*start_ns=*/5'000, /*step_ns=*/750);
  for (uint64_t ci = 0; ci < lat.size(); ++ci) {
    const GridQuery q = SampleQuery(*warehouse_.schema, lat.ClassAt(ci), &rng);
    const auto timed = store->ExecuteTimed(q, &clock);
    ASSERT_TRUE(timed.ok()) << timed.status().ToString();
    EXPECT_EQ(timed->elapsed_ns, 750u) << q.ToString();
  }
  // 2 readings per execution, no stray reads of the injected clock.
  EXPECT_EQ(clock.now_ns(), 5'000u + 2u * 750u * lat.size());
}

TEST_F(FileStoreTest, ExecuteTimedAnswerMatchesExecute) {
  auto lin = std::shared_ptr<const Linearization>(
      RowMajorOrder::Make(warehouse_.schema, {1, 2, 0}).value());
  auto layout = MakeLayout(lin, StorageConfig{1024, 64});
  auto store =
      FileStore::Create(::testing::TempDir() + "/timed_eq.bin", layout);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  const QueryClassLattice lat(*warehouse_.schema);
  Rng rng(21);
  for (uint64_t ci = 0; ci < lat.size(); ++ci) {
    const GridQuery q = SampleQuery(*warehouse_.schema, lat.ClassAt(ci), &rng);
    const QueryAnswer plain = store->Execute(q).value();
    const auto timed = store->ExecuteTimed(q);  // real steady clock
    ASSERT_TRUE(timed.ok()) << timed.status().ToString();
    EXPECT_EQ(timed->answer.count, plain.count) << q.ToString();
    EXPECT_EQ(timed->answer.sum, plain.sum) << q.ToString();
    EXPECT_EQ(timed->answer.io.pages, plain.io.pages) << q.ToString();
    EXPECT_EQ(timed->answer.io.seeks, plain.io.seeks) << q.ToString();
    EXPECT_GT(timed->elapsed_ns, 0u) << q.ToString();
  }
}

TEST_F(FileStoreTest, RejectsTinyRecords) {
  auto lin = std::shared_ptr<const Linearization>(
      RowMajorOrder::Make(warehouse_.schema, {0, 1, 2}).value());
  auto layout = MakeLayout(lin, StorageConfig{1024, 8});
  EXPECT_FALSE(
      FileStore::Create(::testing::TempDir() + "/tiny.bin", layout).ok());
}

}  // namespace
}  // namespace snakes
