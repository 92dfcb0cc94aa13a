// Differential tests for the InpRR bitmap-add kernels
// (protocols/inp_rr_kernels.h): the scalar kernel against a per-cell bit
// count, every other kernel the host supports against the scalar one,
// bitwise, and the dispatch against the CPU's own feature bits.

#include "protocols/inp_rr_kernels.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "protocols/inp_rr.h"
#include "test_util.h"

namespace ldpm {
namespace {

using inp_rr::Kernel;

enum class Fill { kZeros, kOnes, kRandom };

/// m bitmaps of 2^d cells, each in its own exact-size allocation (so ASan
/// sees any read past a record) and at a different misalignment, as wire
/// records sit behind 4-byte length prefixes. Padding bits past 2^d are set
/// whenever the fill sets bits.
class Bitmaps {
 public:
  Bitmaps(int d, size_t m, Fill fill, Rng& rng) {
    const size_t bytes = ((uint64_t{1} << d) + 7) / 8;
    for (size_t r = 0; r < m; ++r) {
      const size_t offset = r % 8;
      storage_.emplace_back(offset + bytes, uint8_t{0});
      uint8_t* bitmap = storage_.back().data() + offset;
      for (size_t i = 0; i < bytes; ++i) {
        bitmap[i] = fill == Fill::kZeros  ? 0x00
                    : fill == Fill::kOnes ? 0xFF
                                          : static_cast<uint8_t>(rng());
      }
      if (fill == Fill::kRandom) bitmap[bytes - 1] |= 0x80;  // a padding bit for d < 3
      pointers_.push_back(bitmap);
    }
  }

  const uint8_t* const* data() const { return pointers_.data(); }

  /// Number of bitmaps with `cell` set.
  uint8_t Count(uint64_t cell) const {
    uint8_t n = 0;
    for (const uint8_t* b : pointers_) n += (b[cell / 8] >> (cell % 8)) & 1;
    return n;
  }

 private:
  std::vector<std::vector<uint8_t>> storage_;
  std::vector<const uint8_t*> pointers_;
};

/// Counters start nonzero (kernels must add, not overwrite) and carry four
/// guard bytes past the domain that no kernel may touch.
constexpr size_t kGuard = 4;
constexpr uint8_t kGuardByte = 0xA5;

std::vector<uint8_t> StartCounts(int d, Rng& rng) {
  std::vector<uint8_t> counts((uint64_t{1} << d) + kGuard, kGuardByte);
  for (uint64_t cell = 0; cell < (uint64_t{1} << d); ++cell) {
    counts[cell] = static_cast<uint8_t>(rng() % 200);
  }
  return counts;
}

TEST(InpRrKernels, ScalarMatchesPerCellBitCount) {
  Rng rng(11);
  for (int d = 1; d <= 12; ++d) {
    for (size_t m = 1; m <= inp_rr::kMaxGroup; ++m) {
      for (Fill fill : {Fill::kZeros, Fill::kOnes, Fill::kRandom}) {
        const Bitmaps bitmaps(d, m, fill, rng);
        const std::vector<uint8_t> start = StartCounts(d, rng);
        std::vector<uint8_t> counts = start;
        inp_rr::AddGroup(inp_rr::ScalarKernel(), bitmaps.data(), m, d,
                         counts.data());
        for (uint64_t cell = 0; cell < (uint64_t{1} << d); ++cell) {
          ASSERT_EQ(counts[cell], start[cell] + bitmaps.Count(cell))
              << "d=" << d << " m=" << m << " cell=" << cell;
        }
        for (size_t g = 0; g < kGuard; ++g) {
          ASSERT_EQ(counts[(uint64_t{1} << d) + g], kGuardByte) << "d=" << d;
        }
      }
    }
  }
}

class KernelDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelDifferentialTest, MatchesScalarBitwise) {
  const Kernel& kernel = inp_rr::Kernels()[GetParam()];
  if (!kernel.supported()) {
    GTEST_SKIP() << "this CPU cannot run the " << kernel.name << " kernel";
  }
  Rng rng(29);
  for (int d = 1; d <= 12; ++d) {
    for (size_t m = 1; m <= inp_rr::kMaxGroup; ++m) {
      for (Fill fill : {Fill::kZeros, Fill::kOnes, Fill::kRandom}) {
        const Bitmaps bitmaps(d, m, fill, rng);
        std::vector<uint8_t> want = StartCounts(d, rng);
        std::vector<uint8_t> got = want;
        inp_rr::AddGroup(inp_rr::ScalarKernel(), bitmaps.data(), m, d,
                         want.data());
        inp_rr::AddGroup(kernel, bitmaps.data(), m, d, got.data());
        ASSERT_EQ(got, want) << kernel.name << " d=" << d << " m=" << m
                             << " fill=" << static_cast<int>(fill);
      }
    }
  }
}

TEST_P(KernelDifferentialTest, FoldMatchesScalarBitwise) {
  const Kernel& kernel = inp_rr::Kernels()[GetParam()];
  if (!kernel.supported()) {
    GTEST_SKIP() << "this CPU cannot run the " << kernel.name << " kernel";
  }
  Rng rng(31);
  for (int d = 1; d <= 12; ++d) {
    const size_t cells = size_t{1} << d;
    std::vector<uint8_t> bytes = StartCounts(d, rng);
    bytes[cells - 1] = 255;
    std::vector<uint8_t> scalar_bytes = bytes;
    std::vector<double> want(cells);
    for (double& c : want) c = static_cast<double>(rng() % 1000) + 0.5;
    std::vector<double> got = want;
    inp_rr::ScalarKernel().fold(scalar_bytes.data(), want.data(), cells);
    kernel.fold(bytes.data(), got.data(), cells);
    ASSERT_EQ(got, want) << kernel.name << " d=" << d;
    ASSERT_EQ(bytes, scalar_bytes) << kernel.name << " d=" << d;
    for (size_t cell = 0; cell < cells; ++cell) ASSERT_EQ(bytes[cell], 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelDifferentialTest,
    ::testing::Range(size_t{0}, inp_rr::Kernels().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(inp_rr::Kernels()[info.param].name);
    });

/// The kernel the dispatch must pick, read from the CPU directly rather
/// than through the kernel table.
std::string WidestKernelForThisCpu() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")) {
    return "avx512bw";
  }
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return "scalar";
}

TEST(InpRrKernels, SelectsWidestSupportedKernel) {
  const std::string want = WidestKernelForThisCpu();
  EXPECT_EQ(inp_rr::SelectKernel().name, want);
  auto protocol = InpRrProtocol::Create(test::MakeConfig(12, 2));
  ASSERT_TRUE(protocol.ok());
  EXPECT_EQ((*protocol)->absorb_kernel(), want);
  EXPECT_EQ(inp_rr::Kernels().back().name, "scalar");
  EXPECT_EQ(&inp_rr::ScalarKernel(), &inp_rr::Kernels().back());
}

/// A wire batch of n records whose bytes are all 0xFF (padding included).
std::vector<uint8_t> AllOnesBatch(int d, size_t n) {
  const size_t bytes = ((uint64_t{1} << d) + 7) / 8;
  std::vector<uint8_t> batch;
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 4; ++b) {
      batch.push_back(static_cast<uint8_t>(bytes >> (8 * b)));
    }
    batch.insert(batch.end(), bytes, 0xFF);
  }
  return batch;
}

// 255 reports fill every byte counter exactly (17 full groups, folded
// once); 256 is the first count a byte cannot hold before the fold.
TEST(InpRrKernels, ByteCounterFoldBoundary) {
  for (int d : {2, 9, 12}) {
    for (size_t n : {size_t{255}, size_t{256}}) {
      auto protocol = InpRrProtocol::Create(test::MakeConfig(d, 2));
      ASSERT_TRUE(protocol.ok());
      const std::vector<uint8_t> batch = AllOnesBatch(d, n);
      ASSERT_TRUE((*protocol)->AbsorbWireBatch(batch.data(), batch.size()).ok());
      const AggregatorSnapshot snapshot = (*protocol)->Snapshot();
      EXPECT_EQ(snapshot.reports_absorbed, n);
      ASSERT_EQ(snapshot.reals.size(), uint64_t{1} << d);
      for (size_t cell = 0; cell < snapshot.reals.size(); ++cell) {
        ASSERT_EQ(snapshot.reals[cell], static_cast<double>(n))
            << "d=" << d << " n=" << n << " cell=" << cell;
      }
    }
  }
}

}  // namespace
}  // namespace ldpm
