// AVX2 backend: the width-generic kernels of kernels_vec.h at W = 8,
// plus the exact-int32 quantized fastscan kernels, which exist only here
// and which the AVX-512 table points at too. Compiled with -mavx2
// -ffp-contract=off (only this file), omitted when PUP_HAVE_AVX2 is off.
#if defined(PUP_HAVE_AVX2)

#include <immintrin.h>

#include <cstdint>

#include "la/simd/backend.h"
#include "la/simd/kernels_vec.h"

namespace pup::la::simd {
namespace {

// First t entries -1 (load), rest 0 (skip): the mask for t live lanes
// starts at offset 8 - t.
alignas(32) constexpr int32_t kMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1,
                                               -1, 0,  0,  0,  0,  0,  0,
                                               0,  0};

template <>
VecKernels<8>::F VecKernels<8>::LoadTail(const float* p, size_t t) {
  return _mm256_maskload_ps(
      p, _mm256_loadu_si256(
             reinterpret_cast<const __m256i*>(kMaskTable + (8 - t))));
}
template <>
VecKernels<8>::F VecKernels<8>::RoundNearest(F x) {
  return _mm256_round_ps(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}
template <>
VecKernels<8>::F VecKernels<8>::Min(F a, F b) {
  return _mm256_min_ps(a, b);
}
template <>
VecKernels<8>::F VecKernels<8>::Max(F a, F b) {
  return _mm256_max_ps(a, b);
}

// Exact int32 horizontal sum; order is irrelevant because integer
// addition is associative (the quantized-path determinism argument).
inline int32_t HSumI32(__m256i v) {
  alignas(32) int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  int32_t s = 0;
  for (size_t l = 0; l < 8; ++l) s += lanes[l];
  return s;
}

// Quantized fastscan: 16 code bytes per step, widened to int16 and
// multiply-accumulated with the 256-bit vpmaddwd. The widening matters:
// vpmaddubsw would saturate (255 * 127 * 2 > INT16_MAX) and silently
// corrupt scores, while the int16 x int16 -> int32 pairwise madd is
// exact for our operand range (|code * query| <= 255 * 127). These are
// also the AVX-512 table's kernels: the build targets AVX-512F only (no
// BW), which has no 512-bit byte/word ops, and the F-level vpmulld
// formulation is slower (multi-uop, and int32 lanes halve the elements
// per instruction).
//
// The query is row-invariant, so it is widened to int16 ONCE per block
// into a stack staging buffer (16 code bytes -> 16 int16 -> one aligned
// 256-bit load per step in the row loop); rows wider than the staging
// cap fall back to widening in the loop. Exact int32 accumulation is
// associative, so the hoist cannot change any result.
constexpr size_t kQueryStageBytes = 1024;

void QdotI8Rows(const uint8_t* codes, size_t stride, size_t bytes,
                const int8_t* query, int32_t* out, size_t lo, size_t hi) {
  alignas(32) int16_t wq[kQueryStageBytes];
  if (bytes <= kQueryStageBytes) {
    for (size_t b = 0; b < bytes; b += 16) {
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(wq + b),
          _mm256_cvtepi8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(query + b))));
    }
    for (size_t i = lo; i < hi; ++i) {
      const uint8_t* crow = codes + i * stride;
      __m256i acc = _mm256_setzero_si256();
      for (size_t b = 0; b < bytes; b += 16) {
        const __m128i c =
            _mm_load_si128(reinterpret_cast<const __m128i*>(crow + b));
        acc = _mm256_add_epi32(
            acc,
            _mm256_madd_epi16(
                _mm256_cvtepu8_epi16(c),
                _mm256_load_si256(reinterpret_cast<const __m256i*>(wq + b))));
      }
      out[i] = HSumI32(acc);
    }
    return;
  }
  for (size_t i = lo; i < hi; ++i) {
    const uint8_t* crow = codes + i * stride;
    __m256i acc = _mm256_setzero_si256();
    for (size_t b = 0; b < bytes; b += 16) {
      const __m128i c =
          _mm_load_si128(reinterpret_cast<const __m128i*>(crow + b));
      const __m128i q =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(query + b));
      acc = _mm256_add_epi32(
          acc, _mm256_madd_epi16(_mm256_cvtepu8_epi16(c),
                                 _mm256_cvtepi8_epi16(q)));
    }
    out[i] = HSumI32(acc);
  }
}

void QdotI4Rows(const uint8_t* codes, size_t stride, size_t bytes,
                const int8_t* query_even, const int8_t* query_odd,
                int32_t* out, size_t lo, size_t hi) {
  const __m128i low_mask = _mm_set1_epi8(0x0f);
  alignas(32) int16_t we[kQueryStageBytes];
  alignas(32) int16_t wo[kQueryStageBytes];
  if (bytes <= kQueryStageBytes) {
    for (size_t b = 0; b < bytes; b += 16) {
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(we + b),
          _mm256_cvtepi8_epi16(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(query_even + b))));
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(wo + b),
          _mm256_cvtepi8_epi16(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(query_odd + b))));
    }
    for (size_t i = lo; i < hi; ++i) {
      const uint8_t* crow = codes + i * stride;
      __m256i acc = _mm256_setzero_si256();
      for (size_t b = 0; b < bytes; b += 16) {
        const __m128i packed =
            _mm_load_si128(reinterpret_cast<const __m128i*>(crow + b));
        const __m128i clo = _mm_and_si128(packed, low_mask);
        const __m128i chi =
            _mm_and_si128(_mm_srli_epi16(packed, 4), low_mask);
        acc = _mm256_add_epi32(
            acc,
            _mm256_madd_epi16(
                _mm256_cvtepu8_epi16(clo),
                _mm256_load_si256(reinterpret_cast<const __m256i*>(we + b))));
        acc = _mm256_add_epi32(
            acc,
            _mm256_madd_epi16(
                _mm256_cvtepu8_epi16(chi),
                _mm256_load_si256(reinterpret_cast<const __m256i*>(wo + b))));
      }
      out[i] = HSumI32(acc);
    }
    return;
  }
  for (size_t i = lo; i < hi; ++i) {
    const uint8_t* crow = codes + i * stride;
    __m256i acc = _mm256_setzero_si256();
    for (size_t b = 0; b < bytes; b += 16) {
      const __m128i packed =
          _mm_load_si128(reinterpret_cast<const __m128i*>(crow + b));
      const __m128i clo = _mm_and_si128(packed, low_mask);
      const __m128i chi = _mm_and_si128(_mm_srli_epi16(packed, 4), low_mask);
      const __m128i qe =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(query_even + b));
      const __m128i qo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(query_odd + b));
      acc = _mm256_add_epi32(
          acc, _mm256_madd_epi16(_mm256_cvtepu8_epi16(clo),
                                 _mm256_cvtepi8_epi16(qe)));
      acc = _mm256_add_epi32(
          acc, _mm256_madd_epi16(_mm256_cvtepu8_epi16(chi),
                                 _mm256_cvtepi8_epi16(qo)));
    }
    out[i] = HSumI32(acc);
  }
}

}  // namespace

const Backend& Avx2Backend() {
  static const Backend table =
      VecBackend<8>(pup::simd::Isa::kAvx2, "avx2", &QdotI8Rows, &QdotI4Rows);
  return table;
}

}  // namespace pup::la::simd

#endif  // PUP_HAVE_AVX2
