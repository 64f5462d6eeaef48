// AVX-512 backend: the width-generic kernels of kernels_vec.h at
// W = 16. The quantized fastscan entries are the AVX2 table's 256-bit
// kernels (AVX2 is implied by -mavx512f). Compiled with -mavx512f
// -ffp-contract=off (only this file), omitted when PUP_HAVE_AVX512 is
// off.
#if defined(PUP_HAVE_AVX512)

#include <immintrin.h>

#include "la/simd/backend.h"
#include "la/simd/kernels_vec.h"

namespace pup::la::simd {
namespace {

template <>
VecKernels<16>::F VecKernels<16>::LoadTail(const float* p, size_t t) {
  return _mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << t) - 1u), p);
}
// The all-lanes mask form: the unmasked intrinsic's undefined
// passthrough operand trips a false -Wmaybe-uninitialized in GCC 12.
template <>
VecKernels<16>::F VecKernels<16>::RoundNearest(F x) {
  return _mm512_mask_roundscale_ps(
      x, 0xffff, x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}

}  // namespace

const Backend& Avx512Backend() {
  static const Backend table = VecBackend<16>(
      pup::simd::Isa::kAvx512, "avx512", Avx2Backend().qdot_i8_rows,
      Avx2Backend().qdot_i4_rows);
  return table;
}

}  // namespace pup::la::simd

#endif  // PUP_HAVE_AVX512
