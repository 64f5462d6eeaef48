// NEON backend: 4-float lanes, aarch64 only (NEON is architecturally
// mandatory there, so no runtime probe beyond the target check). Built
// with -ffp-contract=off; vmul/vadd are kept as separate intrinsics —
// never vfma/vmla — to match the no-FMA contract of the other backends.
// Mirrors kernels_avx2.cc; see docs/simd.md. Tails enter the lane
// accumulators zero-padded via a small copy (NEON has no masked loads),
// preserving the same tail-as-zero-lanes semantics.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "la/simd/backend.h"
#include "la/simd/simd_math.h"

namespace pup::la::simd {
namespace {

constexpr size_t kW = 4;

// Loads t (< 4) floats into lanes 0..t-1, zeros above — the NEON
// equivalent of a zero-masked tail load.
inline float32x4_t TailLoad(const float* p, size_t t) {
  float buf[kW] = {0.0f, 0.0f, 0.0f, 0.0f};
  std::memcpy(buf, p, t * sizeof(float));
  return vld1q_f32(buf);
}

// Pinned-order lane reduction: lanes 0..3 added sequentially (never
// vaddvq_f32, whose pairwise order differs).
inline float LaneSum(float32x4_t acc) {
  float s = vgetq_lane_f32(acc, 0);
  s += vgetq_lane_f32(acc, 1);
  s += vgetq_lane_f32(acc, 2);
  s += vgetq_lane_f32(acc, 3);
  return s;
}

inline float RowDotOne(const float* x, const float* y, size_t k) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  size_t p = 0;
  for (; p + kW <= k; p += kW) {
    acc = vaddq_f32(acc, vmulq_f32(vld1q_f32(x + p), vld1q_f32(y + p)));
  }
  const size_t t = k - p;
  if (t != 0) {
    acc = vaddq_f32(acc, vmulq_f32(TailLoad(x + p, t), TailLoad(y + p, t)));
  }
  return LaneSum(acc);
}

// exp(x) for x <= 0; same polynomial and operation order as the x86
// backends (simd_math.h).
inline float32x4_t ExpNegPs(float32x4_t x) {
  x = vmaxq_f32(x, vdupq_n_f32(kExpLowClamp));
  float32x4_t fx = vmulq_f32(x, vdupq_n_f32(kLog2E));
  fx = vrndnq_f32(fx);  // Round to nearest even, matching _mm*_round_ps.
  x = vsubq_f32(x, vmulq_f32(fx, vdupq_n_f32(kExpC1)));
  x = vsubq_f32(x, vmulq_f32(fx, vdupq_n_f32(kExpC2)));
  const float32x4_t z = vmulq_f32(x, x);
  float32x4_t y = vdupq_n_f32(kExpP0);
  y = vaddq_f32(vmulq_f32(y, x), vdupq_n_f32(kExpP1));
  y = vaddq_f32(vmulq_f32(y, x), vdupq_n_f32(kExpP2));
  y = vaddq_f32(vmulq_f32(y, x), vdupq_n_f32(kExpP3));
  y = vaddq_f32(vmulq_f32(y, x), vdupq_n_f32(kExpP4));
  y = vaddq_f32(vmulq_f32(y, x), vdupq_n_f32(kExpP5));
  y = vaddq_f32(vaddq_f32(vmulq_f32(y, z), x), vdupq_n_f32(1.0f));
  int32x4_t n = vcvtnq_s32_f32(fx);
  n = vshlq_n_s32(vaddq_s32(n, vdupq_n_s32(127)), 23);
  return vmulq_f32(y, vreinterpretq_f32_s32(n));
}

inline float32x4_t SigmoidPs(float32x4_t v) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t e = ExpNegPs(vnegq_f32(vabsq_f32(v)));
  const float32x4_t r = vdivq_f32(one, vaddq_f32(one, e));
  const uint32x4_t ge = vcgeq_f32(v, zero);
  float32x4_t out = vbslq_f32(ge, r, vmulq_f32(e, r));
  const uint32x4_t nan = vmvnq_u32(vceqq_f32(v, v));
  return vbslq_f32(nan, v, out);
}

inline float32x4_t TanhPs(float32x4_t v) {
  const float32x4_t x =
      vmaxq_f32(vdupq_n_f32(-kTanhClamp), vminq_f32(vdupq_n_f32(kTanhClamp), v));
  const float32x4_t x2 = vmulq_f32(x, x);
  float32x4_t p = vdupq_n_f32(kTanhAlpha13);
  p = vaddq_f32(vmulq_f32(p, x2), vdupq_n_f32(kTanhAlpha11));
  p = vaddq_f32(vmulq_f32(p, x2), vdupq_n_f32(kTanhAlpha9));
  p = vaddq_f32(vmulq_f32(p, x2), vdupq_n_f32(kTanhAlpha7));
  p = vaddq_f32(vmulq_f32(p, x2), vdupq_n_f32(kTanhAlpha5));
  p = vaddq_f32(vmulq_f32(p, x2), vdupq_n_f32(kTanhAlpha3));
  p = vaddq_f32(vmulq_f32(p, x2), vdupq_n_f32(kTanhAlpha1));
  p = vmulq_f32(p, x);
  float32x4_t q = vdupq_n_f32(kTanhBeta6);
  q = vaddq_f32(vmulq_f32(q, x2), vdupq_n_f32(kTanhBeta4));
  q = vaddq_f32(vmulq_f32(q, x2), vdupq_n_f32(kTanhBeta2));
  q = vaddq_f32(vmulq_f32(q, x2), vdupq_n_f32(kTanhBeta0));
  float32x4_t out = vdivq_f32(p, q);
  const uint32x4_t tiny = vcltq_f32(vabsq_f32(v), vdupq_n_f32(kTanhTiny));
  out = vbslq_f32(tiny, v, out);
  const uint32x4_t nan = vmvnq_u32(vceqq_f32(v, v));
  return vbslq_f32(nan, v, out);
}

void GemmRows(const float* a, size_t a_stride, const float* b,
              size_t b_stride, float* out, size_t out_stride, size_t lo,
              size_t hi, size_t k, size_t /*n*/, size_t nw) {
  for (size_t i = lo; i < hi; ++i) {
    const float* arow = a + i * a_stride;
    float* orow = out + i * out_stride;
    size_t j = 0;
    for (; j + kW <= nw; j += kW) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (size_t p = 0; p < k; ++p) {
        acc = vaddq_f32(
            acc, vmulq_f32(vdupq_n_f32(arow[p]), vld1q_f32(b + p * b_stride + j)));
      }
      vst1q_f32(orow + j, acc);
    }
    for (; j < nw; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += arow[p] * b[p * b_stride + j];
      orow[j] = acc;
    }
  }
}

void GemmTransARows(const float* a, size_t a_stride, const float* b,
                    size_t b_stride, float* out, size_t out_stride, size_t lo,
                    size_t hi, size_t k, size_t /*n*/, size_t nw) {
  for (size_t i = lo; i < hi; ++i) {
    float* orow = out + i * out_stride;
    size_t j = 0;
    for (; j + kW <= nw; j += kW) {
      float32x4_t acc = vdupq_n_f32(0.0f);
      for (size_t p = 0; p < k; ++p) {
        acc = vaddq_f32(acc, vmulq_f32(vdupq_n_f32(a[p * a_stride + i]),
                                       vld1q_f32(b + p * b_stride + j)));
      }
      vst1q_f32(orow + j, acc);
    }
    for (; j < nw; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) {
        acc += a[p * a_stride + i] * b[p * b_stride + j];
      }
      orow[j] = acc;
    }
  }
}

void GemmTransBRows(const float* a, size_t a_stride, const float* b,
                    size_t b_stride, float* out, size_t out_stride, size_t lo,
                    size_t hi, size_t k, size_t n) {
  for (size_t i = lo; i < hi; ++i) {
    const float* arow = a + i * a_stride;
    float* orow = out + i * out_stride;
    for (size_t j = 0; j < n; ++j) {
      orow[j] = RowDotOne(arow, b + j * b_stride, k);
    }
  }
}

void GemvRows(const float* a, size_t a_stride, const float* x, float* out,
              size_t lo, size_t hi, size_t k) {
  for (size_t i = lo; i < hi; ++i) {
    out[i] = RowDotOne(a + i * a_stride, x, k);
  }
}

void RowDot(const float* x, size_t x_stride, const float* y, size_t y_stride,
            float* out, size_t lo, size_t hi, size_t d) {
  for (size_t i = lo; i < hi; ++i) {
    out[i] = RowDotOne(x + i * x_stride, y + i * y_stride, d);
  }
}

void RowDotDiff(const float* x, size_t x_stride, const float* a,
                size_t a_stride, const float* b, size_t b_stride, float* out,
                size_t lo, size_t hi, size_t d) {
  for (size_t i = lo; i < hi; ++i) {
    const float* xr = x + i * x_stride;
    out[i] = RowDotOne(xr, b + i * b_stride, d) -
             RowDotOne(xr, a + i * a_stride, d);
  }
}

void Axpy(float alpha, const float* x, float* out, size_t lo, size_t hi) {
  const float32x4_t av = vdupq_n_f32(alpha);
  for (size_t i = lo; i + kW <= hi; i += kW) {
    vst1q_f32(out + i,
              vaddq_f32(vld1q_f32(out + i), vmulq_f32(av, vld1q_f32(x + i))));
  }
}

void Sigmoid(const float* x, float* out, size_t lo, size_t hi) {
  for (size_t i = lo; i + kW <= hi; i += kW) {
    vst1q_f32(out + i, SigmoidPs(vld1q_f32(x + i)));
  }
}

void Tanh(const float* x, float* out, size_t lo, size_t hi) {
  for (size_t i = lo; i + kW <= hi; i += kW) {
    vst1q_f32(out + i, TanhPs(vld1q_f32(x + i)));
  }
}

size_t FindNonFinite(const float* x, size_t n) {
  const uint32x4_t exp_mask = vdupq_n_u32(0x7f800000u);
  const uint32x4_t exp_ulp = vdupq_n_u32(0x00800000u);
  constexpr size_t kBlock = 8 * kW;
  size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    uint32x4_t acc = vdupq_n_u32(0);
    for (size_t v = 0; v < kBlock; v += kW) {
      const uint32x4_t bits =
          vreinterpretq_u32_f32(vld1q_f32(x + i + v));
      acc = vorrq_u32(acc, vaddq_u32(vandq_u32(bits, exp_mask), exp_ulp));
    }
    if (vmaxvq_u32(vshrq_n_u32(acc, 31)) == 0) continue;
    for (size_t j = i; j < i + kBlock; ++j) {
      if (!std::isfinite(x[j])) return j;
    }
  }
  for (; i < n; ++i) {
    if (!std::isfinite(x[i])) return i;
  }
  return n;
}

// Accumulates 16 code-byte x query-byte products into `acc` via int16
// widening and vmlal (exact int32 multiply-accumulate, no saturation).
inline int32x4_t QmaddU8S8(int32x4_t acc, uint8x16_t c, int8x16_t q) {
  const int16x8_t clo = vreinterpretq_s16_u16(vmovl_u8(vget_low_u8(c)));
  const int16x8_t chi = vreinterpretq_s16_u16(vmovl_u8(vget_high_u8(c)));
  const int16x8_t qlo = vmovl_s8(vget_low_s8(q));
  const int16x8_t qhi = vmovl_s8(vget_high_s8(q));
  acc = vmlal_s16(acc, vget_low_s16(clo), vget_low_s16(qlo));
  acc = vmlal_s16(acc, vget_high_s16(clo), vget_high_s16(qlo));
  acc = vmlal_s16(acc, vget_low_s16(chi), vget_low_s16(qhi));
  acc = vmlal_s16(acc, vget_high_s16(chi), vget_high_s16(qhi));
  return acc;
}

// Quantized fastscan: exact int32 accumulation, so the reduction order
// is free (vaddvq_s32 is safe here, unlike the f32 reductions above).
void QdotI8Rows(const uint8_t* codes, size_t stride, size_t bytes,
                const int8_t* query, int32_t* out, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    const uint8_t* crow = codes + i * stride;
    int32x4_t acc = vdupq_n_s32(0);
    for (size_t b = 0; b < bytes; b += 16) {
      acc = QmaddU8S8(acc, vld1q_u8(crow + b), vld1q_s8(query + b));
    }
    out[i] = vaddvq_s32(acc);
  }
}

void QdotI4Rows(const uint8_t* codes, size_t stride, size_t bytes,
                const int8_t* query_even, const int8_t* query_odd,
                int32_t* out, size_t lo, size_t hi) {
  const uint8x16_t low_mask = vdupq_n_u8(0x0f);
  for (size_t i = lo; i < hi; ++i) {
    const uint8_t* crow = codes + i * stride;
    int32x4_t acc = vdupq_n_s32(0);
    for (size_t b = 0; b < bytes; b += 16) {
      const uint8x16_t bytes = vld1q_u8(crow + b);
      acc = QmaddU8S8(acc, vandq_u8(bytes, low_mask),
                      vld1q_s8(query_even + b));
      acc = QmaddU8S8(acc, vshrq_n_u8(bytes, 4), vld1q_s8(query_odd + b));
    }
    out[i] = vaddvq_s32(acc);
  }
}

// Pinned-16-virtual-lane dot: four registers act as virtual lanes
// 0..3 / 4..7 / 8..11 / 12..15, tails enter zero-padded via TailLoad-
// style copies, and the reduction walks all 16 lanes sequentially —
// bitwise matching the scalar reference.
void RerankDotRows(const float* items, size_t stride, const float* query,
                   const uint32_t* ids, float* out, size_t lo, size_t hi,
                   size_t d) {
  constexpr size_t kVL = 16;
  for (size_t j = lo; j < hi; ++j) {
    const float* row = items + static_cast<size_t>(ids[j]) * stride;
    float32x4_t acc0 = vdupq_n_f32(0.0f);
    float32x4_t acc1 = vdupq_n_f32(0.0f);
    float32x4_t acc2 = vdupq_n_f32(0.0f);
    float32x4_t acc3 = vdupq_n_f32(0.0f);
    size_t p = 0;
    for (; p + kVL <= d; p += kVL) {
      acc0 = vaddq_f32(acc0,
                       vmulq_f32(vld1q_f32(row + p), vld1q_f32(query + p)));
      acc1 = vaddq_f32(acc1, vmulq_f32(vld1q_f32(row + p + kW),
                                       vld1q_f32(query + p + kW)));
      acc2 = vaddq_f32(acc2, vmulq_f32(vld1q_f32(row + p + 2 * kW),
                                       vld1q_f32(query + p + 2 * kW)));
      acc3 = vaddq_f32(acc3, vmulq_f32(vld1q_f32(row + p + 3 * kW),
                                       vld1q_f32(query + p + 3 * kW)));
    }
    const size_t t = d - p;
    if (t != 0) {
      float xbuf[kVL] = {};
      float ybuf[kVL] = {};
      std::memcpy(xbuf, row + p, t * sizeof(float));
      std::memcpy(ybuf, query + p, t * sizeof(float));
      acc0 = vaddq_f32(acc0, vmulq_f32(vld1q_f32(xbuf), vld1q_f32(ybuf)));
      acc1 = vaddq_f32(acc1,
                       vmulq_f32(vld1q_f32(xbuf + kW), vld1q_f32(ybuf + kW)));
      acc2 = vaddq_f32(acc2, vmulq_f32(vld1q_f32(xbuf + 2 * kW),
                                       vld1q_f32(ybuf + 2 * kW)));
      acc3 = vaddq_f32(acc3, vmulq_f32(vld1q_f32(xbuf + 3 * kW),
                                       vld1q_f32(ybuf + 3 * kW)));
    }
    float lanes[kVL];
    vst1q_f32(lanes, acc0);
    vst1q_f32(lanes + kW, acc1);
    vst1q_f32(lanes + 2 * kW, acc2);
    vst1q_f32(lanes + 3 * kW, acc3);
    float s = 0.0f;
    for (size_t l = 0; l < kVL; ++l) s += lanes[l];
    out[j] = s;
  }
}

}  // namespace

const Backend& NeonBackend() {
  static const Backend table = {
      pup::simd::Isa::kNeon,
      "neon",
      kW,
      obs::Registry::Global().GetCounter("simd/dispatch/neon"),
      &GemmRows,
      &GemmTransARows,
      &GemmTransBRows,
      &GemvRows,
      &RowDot,
      &RowDotDiff,
      &Axpy,
      &Sigmoid,
      &Tanh,
      &FindNonFinite,
      &QdotI8Rows,
      &QdotI4Rows,
      &RerankDotRows,
      // No NEON panel kernel: no CI job compiles this file, so the
      // order-preserving scalar loop serves (bitwise the same scores).
      ScalarBackend().panel_score,
  };
  return table;
}

}  // namespace pup::la::simd

#endif  // __aarch64__
