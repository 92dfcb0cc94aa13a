// Internal to InpRrProtocol (protocols/inp_rr.cc): the bitmap-add kernels
// behind AbsorbWireBatch, listed so tests and benches can run every one.
//
// An InpRR wire record is the raw 2^d-bit report bitmap, bit `cell` at
// byte cell / 8, bit cell % 8 (SerializeReport's little-endian order). A
// kernel adds a group of m <= kMaxGroup such bitmaps into one uint8_t
// counter per cell. It walks the bitmaps in 64-byte chunks (512 cells):
// for one chunk it carry-save adds every bitmap of the group into four
// bit planes held in registers (m <= 15 fits 4 bits per cell), then
// expands the planes into the chunk's 512 byte counters. Counts are
// integers, so every kernel must match the scalar one bitwise. Each kernel
// also brings the matching fold of byte counters into double counts.
//
// Kernels only see whole chunks; AddGroup runs the partial last chunk
// (d < 9) and the padding bits past 2^d through the scalar tail. The
// caller folds the byte counters out before any can pass 255.

#ifndef LDPM_PROTOCOLS_INP_RR_KERNELS_H_
#define LDPM_PROTOCOLS_INP_RR_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace ldpm {
namespace inp_rr {

/// Bitmaps per carry-save group: four bit planes count to 15.
constexpr size_t kMaxGroup = 15;

/// Bitmap bytes per kernel chunk (one AVX-512 register; 512 cells).
constexpr size_t kChunkBytes = 64;

/// counts[cell] += number of the m bitmaps with `cell` set, for every cell
/// of the first `chunks` whole 64-byte chunks. Bitmaps need no alignment.
using AddChunksFn = void (*)(const uint8_t* const* bitmaps, size_t m,
                             size_t chunks, uint8_t* counts);

/// counts[cell] += bytes[cell], then bytes[cell] = 0, for cell < cells.
/// Integer counts are exact in doubles, so every kernel folds bitwise alike.
using FoldFn = void (*)(uint8_t* bytes, double* counts, size_t cells);

struct Kernel {
  std::string_view name;
  /// True when this CPU can run `add` and `fold`.
  bool (*supported)();
  AddChunksFn add;
  FoldFn fold;
};

/// Every kernel built into this binary, widest first; the last one is
/// "scalar", the bitwise reference, supported on every CPU.
std::span<const Kernel> Kernels();

/// The scalar reference kernel.
const Kernel& ScalarKernel();

/// The widest kernel this CPU supports, picked on first call.
const Kernel& SelectKernel();

/// Adds a group of m <= kMaxGroup bitmaps of 2^d cells each into
/// counts[0, 2^d): `kernel` over the whole chunks, the scalar tail over
/// the rest. Padding bits past 2^d in the last byte are ignored.
void AddGroup(const Kernel& kernel, const uint8_t* const* bitmaps, size_t m,
              int d, uint8_t* counts);

}  // namespace inp_rr
}  // namespace ldpm

#endif  // LDPM_PROTOCOLS_INP_RR_KERNELS_H_
