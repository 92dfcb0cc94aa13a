#include "protocols/inp_rr_kernels.h"

#include <algorithm>
#include <bit>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "protocols/wire.h"

namespace ldpm {
namespace inp_rr {

namespace {

/// Carry-save adds bytes [begin, end) of each bitmap into counts, one
/// 64-cell word at a time; bits at or above `cells` (serialization padding,
/// which DeserializeReport ignores) are masked off.
void AddBytesScalar(const uint8_t* const* bitmaps, size_t m, size_t begin,
                    size_t end, uint64_t cells, uint8_t* counts) {
  for (size_t at = begin; at < end; at += 8) {
    const size_t n = std::min<size_t>(8, end - at);
    const uint64_t first = 8 * at;  // the cell of the word's bit 0
    const uint64_t tail_mask = cells - first >= 64
                                   ? ~uint64_t{0}
                                   : (uint64_t{1} << (cells - first)) - 1;
    uint64_t plane[4] = {0, 0, 0, 0};
    for (size_t r = 0; r < m; ++r) {
      // Full words take LoadWireWord's single-load fast path.
      const uint64_t x = LoadWireWord(bitmaps[r] + at, n) & tail_mask;
      // Carry-save add of one bit into a 4-bit vertical counter per cell.
      const uint64_t c1 = plane[0] & x;
      plane[0] ^= x;
      const uint64_t c2 = plane[1] & c1;
      plane[1] ^= c1;
      const uint64_t c3 = plane[2] & c2;
      plane[2] ^= c2;
      plane[3] ^= c3;
    }
    uint8_t* out = counts + first;
    for (int j = 0; j < 4; ++j) {
      const uint8_t weight = static_cast<uint8_t>(1u << j);
      for (uint64_t v = plane[j]; v != 0; v &= v - 1) {
        out[std::countr_zero(v)] += weight;
      }
    }
  }
}

void AddChunksScalar(const uint8_t* const* bitmaps, size_t m, size_t chunks,
                     uint8_t* counts) {
  const size_t bytes = chunks * kChunkBytes;
  AddBytesScalar(bitmaps, m, 0, bytes, 8 * uint64_t{bytes}, counts);
}

void FoldScalar(uint8_t* bytes, double* counts, size_t cells) {
  for (size_t i = 0; i < cells; ++i) {
    counts[i] += static_cast<double>(bytes[i]);
    bytes[i] = 0;
  }
}

bool AlwaysSupported() { return true; }

#if defined(__x86_64__)

bool HasAvx512bw() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw");
}

bool HasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

// One chunk is one zmm register per plane. 64-bit lane w of a plane is the
// mask of cells [64w, 64w + 64), so expanding it is one masked byte add.
__attribute__((target("avx512f,avx512bw"))) void AddChunksAvx512(
    const uint8_t* const* bitmaps, size_t m, size_t chunks, uint8_t* counts) {
  const __m512i one = _mm512_set1_epi8(1), two = _mm512_set1_epi8(2),
                four = _mm512_set1_epi8(4), eight = _mm512_set1_epi8(8);
  for (size_t c = 0; c < chunks; ++c) {
    const size_t at = c * kChunkBytes;
    __m512i p0 = _mm512_setzero_si512(), p1 = p0, p2 = p0, p3 = p0;
    for (size_t r = 0; r < m; ++r) {
      const __m512i x = _mm512_loadu_si512(bitmaps[r] + at);
      const __m512i c1 = _mm512_and_si512(p0, x);
      p0 = _mm512_xor_si512(p0, x);
      const __m512i c2 = _mm512_and_si512(p1, c1);
      p1 = _mm512_xor_si512(p1, c1);
      const __m512i c3 = _mm512_and_si512(p2, c2);
      p2 = _mm512_xor_si512(p2, c2);
      p3 = _mm512_xor_si512(p3, c3);
    }
    alignas(64) __mmask64 lanes[4][8];
    _mm512_store_si512(lanes[0], p0);
    _mm512_store_si512(lanes[1], p1);
    _mm512_store_si512(lanes[2], p2);
    _mm512_store_si512(lanes[3], p3);
    uint8_t* out = counts + 8 * at;
    for (size_t w = 0; w < 8; ++w) {
      uint8_t* cell = out + 64 * w;
      __m512i v = _mm512_loadu_si512(cell);
      v = _mm512_mask_add_epi8(v, _load_mask64(&lanes[0][w]), v, one);
      v = _mm512_mask_add_epi8(v, _load_mask64(&lanes[1][w]), v, two);
      v = _mm512_mask_add_epi8(v, _load_mask64(&lanes[2][w]), v, four);
      v = _mm512_mask_add_epi8(v, _load_mask64(&lanes[3][w]), v, eight);
      _mm512_storeu_si512(cell, v);
    }
  }
}

__attribute__((target("avx512f,avx512bw"))) void FoldAvx512(
    uint8_t* bytes, double* counts, size_t cells) {
  size_t i = 0;
  for (; i + 8 <= cells; i += 8) {
    // The all-lanes maskz form: gcc 12's plain _mm512_cvtepi32_pd trips
    // -Wmaybe-uninitialized on its undefined passthrough operand.
    const __m512d v = _mm512_maskz_cvtepi32_pd(
        0xFF, _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                  reinterpret_cast<const __m128i*>(bytes + i))));
    _mm512_storeu_pd(counts + i, _mm512_add_pd(_mm512_loadu_pd(counts + i), v));
  }
  FoldScalar(bytes + i, counts + i, cells - i);
  std::fill(bytes, bytes + i, uint8_t{0});
}

// One chunk is two ymm registers per plane. Each 32-bit group of a plane
// (32 cells) is broadcast, vpshufb copies byte i / 8 of the group into
// byte i, and comparing against the byte's own bit selects it.
__attribute__((target("avx2"))) void AddChunksAvx2(
    const uint8_t* const* bitmaps, size_t m, size_t chunks, uint8_t* counts) {
  // vpshufb works within 128-bit lanes: the low lane spreads group bytes
  // 0-1, the high lane bytes 2-3 (every dword holds all four).
  const __m256i spread = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,  //
      2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i bit =
      _mm256_set1_epi64x(static_cast<int64_t>(0x8040201008040201));
  const __m256i weight[4] = {_mm256_set1_epi8(1), _mm256_set1_epi8(2),
                             _mm256_set1_epi8(4), _mm256_set1_epi8(8)};
  for (size_t c = 0; c < chunks; ++c) {
    const size_t at = c * kChunkBytes;
    __m256i lo0 = _mm256_setzero_si256(), lo1 = lo0, lo2 = lo0, lo3 = lo0;
    __m256i hi0 = lo0, hi1 = lo0, hi2 = lo0, hi3 = lo0;
    for (size_t r = 0; r < m; ++r) {
      const uint8_t* src = bitmaps[r] + at;
      const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
      const __m256i y =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 32));
      const __m256i cx1 = _mm256_and_si256(lo0, x);
      const __m256i cy1 = _mm256_and_si256(hi0, y);
      lo0 = _mm256_xor_si256(lo0, x);
      hi0 = _mm256_xor_si256(hi0, y);
      const __m256i cx2 = _mm256_and_si256(lo1, cx1);
      const __m256i cy2 = _mm256_and_si256(hi1, cy1);
      lo1 = _mm256_xor_si256(lo1, cx1);
      hi1 = _mm256_xor_si256(hi1, cy1);
      const __m256i cx3 = _mm256_and_si256(lo2, cx2);
      const __m256i cy3 = _mm256_and_si256(hi2, cy2);
      lo2 = _mm256_xor_si256(lo2, cx2);
      hi2 = _mm256_xor_si256(hi2, cy2);
      lo3 = _mm256_xor_si256(lo3, cx3);
      hi3 = _mm256_xor_si256(hi3, cy3);
    }
    alignas(32) uint32_t groups[4][16];
    const __m256i planes[4][2] = {
        {lo0, hi0}, {lo1, hi1}, {lo2, hi2}, {lo3, hi3}};
    for (int j = 0; j < 4; ++j) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(groups[j]), planes[j][0]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(groups[j] + 8),
                         planes[j][1]);
    }
    uint8_t* out = counts + 8 * at;
    for (size_t g = 0; g < 16; ++g) {
      __m256i v = _mm256_setzero_si256();
      for (int j = 0; j < 4; ++j) {
        const __m256i bytes = _mm256_shuffle_epi8(
            _mm256_set1_epi32(static_cast<int>(groups[j][g])), spread);
        const __m256i set =
            _mm256_cmpeq_epi8(_mm256_and_si256(bytes, bit), bit);
        v = _mm256_or_si256(v, _mm256_and_si256(set, weight[j]));
      }
      __m256i* cell = reinterpret_cast<__m256i*>(out + 32 * g);
      _mm256_storeu_si256(cell, _mm256_add_epi8(_mm256_loadu_si256(cell), v));
    }
  }
}

__attribute__((target("avx2"))) void FoldAvx2(uint8_t* bytes, double* counts,
                                               size_t cells) {
  size_t i = 0;
  for (; i + 8 <= cells; i += 8) {
    const __m256i v = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bytes + i)));
    const __m256d lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(v));
    const __m256d hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(v, 1));
    _mm256_storeu_pd(counts + i, _mm256_add_pd(_mm256_loadu_pd(counts + i), lo));
    _mm256_storeu_pd(counts + i + 4,
                     _mm256_add_pd(_mm256_loadu_pd(counts + i + 4), hi));
  }
  FoldScalar(bytes + i, counts + i, cells - i);
  std::fill(bytes, bytes + i, uint8_t{0});
}

#endif  // defined(__x86_64__)

constexpr Kernel kKernels[] = {
#if defined(__x86_64__)
    {"avx512bw", HasAvx512bw, AddChunksAvx512, FoldAvx512},
    {"avx2", HasAvx2, AddChunksAvx2, FoldAvx2},
#endif
    {"scalar", AlwaysSupported, AddChunksScalar, FoldScalar},
};

}  // namespace

std::span<const Kernel> Kernels() { return kKernels; }

const Kernel& ScalarKernel() { return kKernels[std::size(kKernels) - 1]; }

const Kernel& SelectKernel() {
  static const Kernel& chosen = *std::find_if(
      std::begin(kKernels), std::end(kKernels),
      [](const Kernel& k) { return k.supported(); });
  return chosen;
}

void AddGroup(const Kernel& kernel, const uint8_t* const* bitmaps, size_t m,
              int d, uint8_t* counts) {
  const uint64_t cells = uint64_t{1} << d;
  const size_t bytes = (cells + 7) / 8;
  const size_t chunks = bytes / kChunkBytes;
  if (chunks > 0) kernel.add(bitmaps, m, chunks, counts);
  AddBytesScalar(bitmaps, m, chunks * kChunkBytes, bytes, cells, counts);
}

}  // namespace inp_rr
}  // namespace ldpm
