#include "svc/snapshot_log.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/coordinate_store.hpp"

namespace dmfsgd::svc {
namespace {

class SnapshotLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("dmfsgd_snapshot_log_test_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

/// A store filled with awkward doubles (nothing decimal-round) so the tests
/// actually exercise the %.17g exact round-trip.
core::CoordinateStore MakeStore(std::size_t n, std::size_t rank,
                                double phase = 0.0) {
  core::CoordinateStore store(n, rank);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < rank; ++d) {
      store.U(i)[d] = std::sin(static_cast<double>(i * rank + d) + phase) / 3.0;
      store.V(i)[d] = std::cos(static_cast<double>(i * rank + d) - phase) / 7.0;
    }
  }
  return store;
}

void ExpectStoresIdentical(const core::CoordinateStore& actual,
                           const core::CoordinateStore& expected) {
  ASSERT_EQ(actual.NodeCount(), expected.NodeCount());
  ASSERT_EQ(actual.rank(), expected.rank());
  const auto au = actual.UData(), eu = expected.UData();
  const auto av = actual.VData(), ev = expected.VData();
  for (std::size_t x = 0; x < au.size(); ++x) {
    ASSERT_EQ(au[x], eu[x]) << "U mismatch at flat index " << x;
    ASSERT_EQ(av[x], ev[x]) << "V mismatch at flat index " << x;
  }
}

/// MakeStore's rows spread over the whole binary exponent range — from
/// subnormals to within a few binades of DBL_MAX — so a pin over the
/// written bytes covers every formatting regime.
core::CoordinateStore MakeWideStore(std::size_t n, std::size_t rank) {
  core::CoordinateStore store = MakeStore(n, rank);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < rank; ++d) {
      const std::size_t x = i * rank + d;
      store.U(i)[d] = std::ldexp(store.U(i)[d], static_cast<int>((x * 37) % 2095) - 1075);
      store.V(i)[d] = std::ldexp(store.V(i)[d], static_cast<int>((x * 53) % 2095) - 1075);
    }
  }
  store.U(0)[0] = std::numeric_limits<double>::denorm_min();
  store.U(0)[1] = -0.0;
  store.V(0)[0] = DBL_MAX;
  store.V(0)[1] = 1e-310;
  return store;
}

std::string ReadBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST_F(SnapshotLogTest, BaseOnlyGenerationRoundTripsBitIdentically) {
  const core::CoordinateStore store = MakeStore(9, 4);
  { SnapshotLogWriter writer(dir_, store); }

  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->epochs, 0u);
  EXPECT_FALSE(recovery->truncated_tail);
  ExpectStoresIdentical(recovery->store, store);
}

TEST_F(SnapshotLogTest, MissingGenerationIsNullopt) {
  EXPECT_FALSE(RecoverSnapshotLog(dir_ / "never_written").has_value());
  EXPECT_FALSE(RecoverSnapshotLog(dir_).has_value());  // dir exists, no base
}

TEST_F(SnapshotLogTest, DeltaEpochsApplyInOrderOnTopOfTheBase) {
  core::CoordinateStore store = MakeStore(10, 3);
  SnapshotLogWriter writer(dir_, store);

  // Epoch 1 dirties rows 2 and 7; epoch 2 re-dirties 2 and adds 9 — the
  // final row 2 must be epoch 2's version.
  store.U(2)[0] = 0.25 + 1.0 / 3.0;
  store.V(7)[2] = -1.0 / 9.0;
  writer.AppendDelta(store, std::vector<core::NodeId>{2, 7});
  store.U(2)[0] = 1.0 / 11.0;
  store.V(9)[1] = 2.0 / 13.0;
  writer.AppendDelta(store, std::vector<core::NodeId>{2, 9});
  EXPECT_EQ(writer.Epochs(), 2u);

  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->epochs, 2u);
  EXPECT_FALSE(recovery->truncated_tail);
  ExpectStoresIdentical(recovery->store, store);
}

TEST_F(SnapshotLogTest, OnlyListedRowsAreEncoded) {
  core::CoordinateStore store = MakeStore(6, 2);
  const core::CoordinateStore base = store;
  SnapshotLogWriter writer(dir_, store);

  // Rows 1 and 4 change, but the epoch only lists row 1 — recovery must
  // keep row 4's base value (the delta is exactly what the caller listed).
  store.U(1)[0] = 5.0 / 3.0;
  store.U(4)[0] = 7.0 / 3.0;
  writer.AppendDelta(store, std::vector<core::NodeId>{1});

  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->store.U(1)[0], store.U(1)[0]);
  EXPECT_EQ(recovery->store.U(4)[0], base.U(4)[0]);
}

TEST_F(SnapshotLogTest, EmptyEpochsCommitAndCount) {
  const core::CoordinateStore store = MakeStore(4, 2);
  SnapshotLogWriter writer(dir_, store);
  writer.AppendDelta(store, std::vector<core::NodeId>{});
  writer.AppendDelta(store, std::vector<core::NodeId>{});

  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->epochs, 2u);
  EXPECT_FALSE(recovery->truncated_tail);
  ExpectStoresIdentical(recovery->store, store);
}

TEST_F(SnapshotLogTest, OutOfRangeRowThrows) {
  const core::CoordinateStore store = MakeStore(4, 2);
  SnapshotLogWriter writer(dir_, store);
  EXPECT_THROW(writer.AppendDelta(store, std::vector<core::NodeId>{4}),
               std::out_of_range);
}

// The crash test: truncate the delta log at EVERY byte offset and require
// recovery to land exactly on the last epoch whose commit survived — never
// a half-applied epoch, never a failure.
TEST_F(SnapshotLogTest, EveryTruncationPointRecoversTheLastGoodEpoch) {
  core::CoordinateStore store = MakeStore(7, 3);
  std::vector<core::CoordinateStore> state_after;  // [e] = store after epoch e
  std::vector<std::uintmax_t> boundary;            // [e] = log size after epoch e
  state_after.push_back(store);
  boundary.push_back(0);
  {
    SnapshotLogWriter writer(dir_, store);
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
      const auto row = static_cast<core::NodeId>(epoch + 1);
      store.U(row)[0] = static_cast<double>(epoch) / 3.0;
      store.V(row)[1] = -static_cast<double>(epoch) / 7.0;
      writer.AppendDelta(store,
                         std::vector<core::NodeId>{row,
                                                   static_cast<core::NodeId>(0)});
      state_after.push_back(store);
      boundary.push_back(std::filesystem::file_size(dir_ / "deltas.log"));
    }
  }
  std::string full;
  {
    std::ifstream in(dir_ / "deltas.log", std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(full.size(), boundary.back());

  const std::filesystem::path crash_dir = dir_ / "crashed";
  std::filesystem::create_directories(crash_dir);
  std::filesystem::copy_file(dir_ / "base.csv", crash_dir / "base.csv");
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    {
      std::ofstream out(crash_dir / "deltas.log",
                        std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    const auto recovery = RecoverSnapshotLog(crash_dir);
    ASSERT_TRUE(recovery.has_value()) << "cut at byte " << cut;
    // The recovered epoch is the last one wholly inside the cut.  A cut
    // that shaves only a commit line's trailing newline still recovers the
    // epoch — getline hands back the final unterminated line, and every
    // byte the checksum covers is present.
    std::uint64_t expected_epoch = 0;
    while (expected_epoch + 1 < boundary.size() &&
           boundary[expected_epoch + 1] <= cut + 1) {
      ++expected_epoch;
    }
    ASSERT_EQ(recovery->epochs, expected_epoch) << "cut at byte " << cut;
    const bool at_boundary =
        cut == boundary[expected_epoch] ||
        (expected_epoch > 0 && cut + 1 == boundary[expected_epoch]);
    ASSERT_EQ(recovery->truncated_tail, !at_boundary) << "cut at byte " << cut;
    ExpectStoresIdentical(recovery->store, state_after[expected_epoch]);
  }
}

TEST_F(SnapshotLogTest, CorruptedEpochIsDiscardedWithEverythingAfterIt) {
  core::CoordinateStore store = MakeStore(5, 2);
  std::uintmax_t first_epoch_end = 0;
  {
    SnapshotLogWriter writer(dir_, store);
    store.U(1)[0] = 1.0 / 3.0;
    writer.AppendDelta(store, std::vector<core::NodeId>{1});
    first_epoch_end = std::filesystem::file_size(dir_ / "deltas.log");
    store.U(2)[0] = 2.0 / 3.0;
    writer.AppendDelta(store, std::vector<core::NodeId>{2});
    store.U(3)[0] = 4.0 / 3.0;
    writer.AppendDelta(store, std::vector<core::NodeId>{3});
  }
  // Flip one digit inside epoch 2's row payload (the first mantissa digit
  // after epoch 1's commit).  The frame still parses — field counts and the
  // commit line are intact — but the checksum no longer verifies, so
  // recovery must stop at epoch 1 even though epoch 3's frame is whole.
  std::string bytes;
  {
    std::ifstream in(dir_ / "deltas.log", std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const std::size_t victim = bytes.find('.', first_epoch_end) + 1;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] = (bytes[victim] == '1') ? '2' : '1';
  {
    std::ofstream out(dir_ / "deltas.log", std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->epochs, 1u);
  EXPECT_TRUE(recovery->truncated_tail);
  EXPECT_EQ(recovery->store.U(1)[0], 1.0 / 3.0);
  EXPECT_NE(recovery->store.U(2)[0], 2.0 / 3.0);
}

// The on-disk format is a compatibility surface: an older generation must
// recover under newer code and vice versa.  The goldens were taken from
// the %.17g / stod implementation of the text I/O.
TEST_F(SnapshotLogTest, WrittenBytesMatchTheGolden) {
  core::CoordinateStore store = MakeWideStore(300, 5);
  SnapshotLogWriter writer(dir_, store);
  for (std::size_t epoch = 1; epoch <= 3; ++epoch) {
    std::vector<core::NodeId> rows;
    for (core::NodeId id = 0; id < store.NodeCount(); id += 7 * epoch) {
      store.U(id)[epoch] = -store.U(id)[epoch] / 3.0;
      store.V(id)[epoch] = std::ldexp(store.V(id)[epoch], -static_cast<int>(epoch));
      rows.push_back(id);
    }
    writer.AppendDelta(store, rows);
  }
  const std::string base = ReadBytes(dir_ / "base.csv");
  const std::string deltas = ReadBytes(dir_ / "deltas.log");
  EXPECT_EQ(base.size(), 71783u);
  EXPECT_EQ(Fnv1a64(base), 0xf747fa660eac43e9ULL);
  EXPECT_EQ(deltas.size(), 19545u);
  EXPECT_EQ(Fnv1a64(deltas), 0x58bc34d0df0b1d15ULL);
}

// A subnormal is a legal coordinate (a factor decayed by regularization).
// An epoch holding one must commit like any other, not read as a torn tail
// that drops it and every later epoch.
TEST_F(SnapshotLogTest, SubnormalEpochRecoversInFull) {
  core::CoordinateStore store = MakeStore(8, 3);
  {
    SnapshotLogWriter writer(dir_, store);
    store.V(2)[1] = std::numeric_limits<double>::denorm_min();
    store.U(3)[2] = -2.2250738585072009e-308;  // the largest subnormal
    writer.AppendDelta(store, std::vector<core::NodeId>{2, 3});
    store.U(4)[0] = 1.0 / 3.0;
    writer.AppendDelta(store, std::vector<core::NodeId>{4});
  }
  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->epochs, 2u);
  EXPECT_FALSE(recovery->truncated_tail);
  ExpectStoresIdentical(recovery->store, store);
}

// ... and a base image holding one must load, or the service cannot
// restart at all.
TEST_F(SnapshotLogTest, SubnormalBaseImageRecovers) {
  core::CoordinateStore store = MakeStore(8, 3);
  store.U(1)[0] = 1e-310;
  { SnapshotLogWriter writer(dir_, store); }
  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  ExpectStoresIdentical(recovery->store, store);
}

}  // namespace
}  // namespace dmfsgd::svc
