// Width-generic vector kernels: every f32 loop body of the x86 backends,
// written once over GCC vector extensions and instantiated at a lane
// count W by one small TU per ISA (kernels_avx2.cc at W = 8 under
// -mavx2, kernels_avx512.cc at W = 16 under -mavx512f). Both TUs are
// compiled with -ffp-contract=off, so `acc + a * b` stays a multiply then
// an add and never fuses into an FMA.
//
// Determinism notes (docs/simd.md):
//  * Order-preserving kernels (gemm_rows, gemm_ta_rows, axpy,
//    panel_score) give each output element one accumulator fed in the
//    scalar loop's order — bitwise-identical to scalar at any W.
//  * Lane-reduced dots keep W lane accumulators; a tail enters as one
//    zero-padded masked load (dead lanes add +0.0f) and the lanes are
//    summed 0..W-1 from 0.0f. Reproducible at any --threads for one W;
//    not bitwise-equal across widths.
//  * rerank_dot_rows runs 16 virtual lanes (16 / W vectors) at every W.
//  * Loads and stores go through memcpy: the compiler emits plain
//    unaligned vector moves, which cost the same as aligned ones on the
//    64-byte-aligned Matrix rows and are legal on any caller buffer.
//
// Everything here has internal linkage: each TU compiles its own copy
// under its own -m flag, so no wider instruction can leak into a
// narrower backend through a shared inline definition.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "la/simd/backend.h"
#include "la/simd/simd_math.h"

namespace pup::la::simd {
namespace {

// W-lane vector types. Kept outside VecKernels so that inside it they
// are dependent names, resolved (and subscriptable) at instantiation.
template <size_t W>
struct VecTypes {
  typedef float F __attribute__((vector_size(sizeof(float) * W)));
  typedef int32_t I __attribute__((vector_size(sizeof(float) * W)));
  typedef uint32_t U __attribute__((vector_size(sizeof(float) * W)));
};

template <size_t W>
struct VecKernels {
  using F = typename VecTypes<W>::F;
  using I = typename VecTypes<W>::I;
  using U = typename VecTypes<W>::U;

  // Helpers with no portable vector form; each instantiating TU
  // specialises them with its ISA's instructions:
  //  * RoundNearest: round to nearest, ties to even;
  //  * LoadTail: the first t (<= W) floats at p in lanes 0..t-1, zeros
  //    above, reading nothing past p + t — the zero-padded tail a
  //    lane-reduced dot feeds its accumulator (a masked load).
  static F RoundNearest(F x);
  static F LoadTail(const float* p, size_t t);

  // minps / maxps semantics: b when either operand is NaN. With one
  // operand constant, GCC emits these as a compare and a blend, which
  // costs AVX2 a 2-uop vblendvps; kernels_avx2.cc specialises them.
  static F Min(F a, F b) { return a < b ? a : b; }
  static F Max(F a, F b) { return a > b ? a : b; }

  static F Load(const float* p) {
    F v;
    __builtin_memcpy(&v, p, sizeof(v));
    return v;
  }
  static void Store(float* p, F v) { __builtin_memcpy(p, &v, sizeof(v)); }

  static F Abs(F v) { return (F)((U)v & 0x7fffffffu); }

  // Pinned-order lane reduction: lanes 0..W-1 added sequentially into
  // one scalar — THE accumulation-order contract for this lane width.
  static float LaneSum(F acc) {
    float s = 0.0f;
#pragma GCC unroll 16
    for (size_t l = 0; l < W; ++l) s += acc[l];
    return s;
  }

  // Dot product of two rows of logical length k: full lanes, one
  // zero-padded tail, then the pinned lane reduction.
  static float RowDotOne(const float* x, const float* y, size_t k) {
    F acc = {};
    size_t p = 0;
    for (; p + W <= k; p += W) acc += Load(x + p) * Load(y + p);
    if (p != k) acc += LoadTail(x + p, k - p) * LoadTail(y + p, k - p);
    return LaneSum(acc);
  }

  // Broadcast of a nonzero scalar constant (0.0f + c would turn a -0.0f
  // into +0.0f).
  static F Splat(float c) { return F{} + c; }

  // exp(x) for x <= 0 (see simd_math.h). A NaN lane clamps to the low
  // bound here; callers overwrite NaN lanes via their passthrough blend.
  static F ExpNeg(F x) {
    x = Max(x, Splat(kExpLowClamp));
    const F fx = RoundNearest(x * kLog2E);
    x = x - fx * kExpC1;
    x = x - fx * kExpC2;
    const F z = x * x;
    F y = x * kExpP0 + kExpP1;
    y = y * x + kExpP2;
    y = y * x + kExpP3;
    y = y * x + kExpP4;
    y = y * x + kExpP5;
    y = (y * z + x) + 1.0f;
    // fx is integral, so the truncating conversion is exact.
    const U n = ((U)__builtin_convertvector(fx, I) + 127u) << 23;
    return y * (F)n;
  }

  static F SigmoidVec(F v) {
    const F e = ExpNeg(F{} - Abs(v));
    const F r = 1.0f / (1.0f + e);
    // v >= 0 ? 1/(1+e) : e/(1+e); NaN inputs propagate unchanged so the
    // numeric guard sees them, exactly like libm.
    const F out = v >= 0.0f ? r : e * r;
    return v != v ? v : out;
  }

  static F TanhVec(F v) {
    const F x = Max(Splat(-kTanhClamp), Min(Splat(kTanhClamp), v));
    const F x2 = x * x;
    F p = x2 * kTanhAlpha13 + kTanhAlpha11;
    p = p * x2 + kTanhAlpha9;
    p = p * x2 + kTanhAlpha7;
    p = p * x2 + kTanhAlpha5;
    p = p * x2 + kTanhAlpha3;
    p = p * x2 + kTanhAlpha1;
    p = p * x;
    F q = x2 * kTanhBeta6 + kTanhBeta4;
    q = q * x2 + kTanhBeta2;
    q = q * x2 + kTanhBeta0;
    F out = p / q;
    // Identity window (tanh(x) == x in float) and NaN passthrough.
    out = Abs(v) < kTanhTiny ? v : out;
    return v != v ? v : out;
  }

  static void GemmRows(const float* a, size_t a_stride, const float* b,
                       size_t b_stride, float* out, size_t out_stride,
                       size_t lo, size_t hi, size_t k, size_t /*n*/,
                       size_t nw) {
    // 32 columns per block: the broadcast of a(i,p) amortizes across
    // them while each out(i,j) still sums its products in exact p order
    // (one accumulator per element).
    constexpr size_t kB = 32 / W;
    for (size_t i = lo; i < hi; ++i) {
      const float* arow = a + i * a_stride;
      float* orow = out + i * out_stride;
      size_t j = 0;
      for (; j + kB * W <= nw; j += kB * W) {
        F acc[kB] = {};
        for (size_t p = 0; p < k; ++p) {
          const float* bp = b + p * b_stride + j;
#pragma GCC unroll 4
          for (size_t v = 0; v < kB; ++v) acc[v] += arow[p] * Load(bp + v * W);
        }
#pragma GCC unroll 4
        for (size_t v = 0; v < kB; ++v) Store(orow + j + v * W, acc[v]);
      }
      for (; j + W <= nw; j += W) {
        F acc = {};
        for (size_t p = 0; p < k; ++p) {
          acc += arow[p] * Load(b + p * b_stride + j);
        }
        Store(orow + j, acc);
      }
      // nw < W only for single-column outputs (nw == 1): scalar remainder.
      for (; j < nw; ++j) {
        float acc = 0.0f;
        for (size_t p = 0; p < k; ++p) acc += arow[p] * b[p * b_stride + j];
        orow[j] = acc;
      }
    }
  }

  static void GemmTransARows(const float* a, size_t a_stride, const float* b,
                             size_t b_stride, float* out, size_t out_stride,
                             size_t lo, size_t hi, size_t k, size_t /*n*/,
                             size_t nw) {
    for (size_t i = lo; i < hi; ++i) {
      float* orow = out + i * out_stride;
      size_t j = 0;
      for (; j + W <= nw; j += W) {
        F acc = {};
        for (size_t p = 0; p < k; ++p) {
          acc += a[p * a_stride + i] * Load(b + p * b_stride + j);
        }
        Store(orow + j, acc);
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

  static void GemmTransBRows(const float* a, size_t a_stride, const float* b,
                             size_t b_stride, float* out, size_t out_stride,
                             size_t lo, size_t hi, size_t k, size_t n) {
    for (size_t i = lo; i < hi; ++i) {
      const float* arow = a + i * a_stride;
      float* orow = out + i * out_stride;
      for (size_t j = 0; j < n; ++j) {
        orow[j] = RowDotOne(arow, b + j * b_stride, k);
      }
    }
  }

  static void GemvRows(const float* a, size_t a_stride, const float* x,
                       float* out, size_t lo, size_t hi, size_t k) {
    for (size_t i = lo; i < hi; ++i) out[i] = RowDotOne(a + i * a_stride, x, k);
  }

  static void RowDot(const float* x, size_t x_stride, const float* y,
                     size_t y_stride, float* out, size_t lo, size_t hi,
                     size_t d) {
    for (size_t i = lo; i < hi; ++i) {
      out[i] = RowDotOne(x + i * x_stride, y + i * y_stride, d);
    }
  }

  static void RowDotDiff(const float* x, size_t x_stride, const float* a,
                         size_t a_stride, const float* b, size_t b_stride,
                         float* out, size_t lo, size_t hi, size_t d) {
    for (size_t i = lo; i < hi; ++i) {
      const float* xr = x + i * x_stride;
      out[i] = RowDotOne(xr, b + i * b_stride, d) -
               RowDotOne(xr, a + i * a_stride, d);
    }
  }

  static void Axpy(float alpha, const float* x, float* out, size_t lo,
                   size_t hi) {
    for (size_t i = lo; i + W <= hi; i += W) {
      Store(out + i, Load(out + i) + alpha * Load(x + i));
    }
  }

  static void Sigmoid(const float* x, float* out, size_t lo, size_t hi) {
    for (size_t i = lo; i + W <= hi; i += W) {
      Store(out + i, SigmoidVec(Load(x + i)));
    }
  }

  static void Tanh(const float* x, float* out, size_t lo, size_t hi) {
    for (size_t i = lo; i + W <= hi; i += W) {
      Store(out + i, TanhVec(Load(x + i)));
    }
  }

  // True when any lane of v has its sign bit set: ORs the upper half
  // into the lower one until two 64-bit halves remain.
  template <typename V, size_t... L>
  static bool AnySignBit(V v, std::index_sequence<L...>) {
    if constexpr (sizeof...(L) == 2) {
      uint64_t q[2];
      __builtin_memcpy(q, &v, sizeof(q));
      return ((q[0] | q[1]) & 0x8000000080000000ull) != 0;
    } else {
      const auto lo = __builtin_shufflevector(v, v, L...);
      const auto hi = __builtin_shufflevector(v, v, (L + sizeof...(L))...);
      return AnySignBit(lo | hi, std::make_index_sequence<sizeof...(L) / 2>());
    }
  }

  static size_t FindNonFinite(const float* x, size_t n) {
    // Same exponent-field trick as the scalar scan, on W integer lanes:
    // (bits & exp_mask) + exp_ulp carries into the sign bit iff the float
    // is NaN/Inf, so the OR over a block's lanes gives the verdict; a
    // dirty block is rescanned element-wise for the index.
    constexpr size_t kBlock = 64;
    size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
      U acc = {};
#pragma GCC unroll 8
      for (size_t v = 0; v < kBlock; v += W) {
        acc |= ((U)Load(x + i + v) & 0x7f800000u) + 0x00800000u;
      }
      if (!AnySignBit(acc, std::make_index_sequence<W / 2>())) continue;
      for (size_t j = i; j < i + kBlock; ++j) {
        if (!std::isfinite(x[j])) return j;
      }
    }
    for (; i < n; ++i) {
      if (!std::isfinite(x[i])) return i;
    }
    return n;
  }

  // Pinned-16-virtual-lane dot: 16 / W vectors act as virtual lanes
  // 0..15, the tail enters through masked loads (dead lanes add +0.0f),
  // and the reduction walks all 16 lanes sequentially — bitwise matching
  // the scalar reference on every input and at every W.
  static void RerankDotRows(const float* items, size_t stride,
                            const float* query, const uint32_t* ids,
                            float* out, size_t lo, size_t hi, size_t d) {
    constexpr size_t kVL = 16;
    constexpr size_t kV = kVL / W;
    for (size_t j = lo; j < hi; ++j) {
      const float* row = items + static_cast<size_t>(ids[j]) * stride;
      F acc[kV] = {};
      size_t p = 0;
      for (; p + kVL <= d; p += kVL) {
#pragma GCC unroll 2
        for (size_t v = 0; v < kV; ++v) {
          acc[v] += Load(row + p + v * W) * Load(query + p + v * W);
        }
      }
      if (p != d) {
#pragma GCC unroll 2
        for (size_t v = 0; v < kV; ++v) {
          const size_t t = d - p > v * W ? std::min(d - p - v * W, W) : 0;
          acc[v] +=
              LoadTail(row + p + v * W, t) * LoadTail(query + p + v * W, t);
        }
      }
      float s = 0.0f;
#pragma GCC unroll 2
      for (size_t v = 0; v < kV; ++v) {
#pragma GCC unroll 16
        for (size_t l = 0; l < W; ++l) s += acc[v][l];
      }
      out[j] = s;
    }
  }

  // Item-panel block scoring over 16-item panels ([panel][p][16]). A tile
  // is kU users x kQ vectors (kQ <= 2): at W = 8 the two vectors are one
  // panel's two halves, at W = 16 two consecutive panels. Each hardware
  // lane is one item's accumulator, seeded with its bias and fed
  // mul-then-add in ascending p — the scalar lane sequence, so bitwise
  // equal to it. 4 users x 2 vectors keep 8 independent accumulators in
  // registers (enough to hide the add latency without FMA) and load each
  // panel row once per tile. Lanes past `live` are never stored. The tile
  // and user loops are forced inline: at small d a call per tile costs
  // as much as the tile.
  static constexpr size_t kPanel = 16;

  template <size_t kU, size_t kQ>
  __attribute__((always_inline)) static void PanelTile(
      const float* group, size_t d, const float* bias,
      const float* const* users, float* out, size_t out_stride, size_t live) {
    // Vector q's offset within the group: panel q * W / 16, lane offset
    // q * W % 16 within that panel's rows.
    size_t offset[kQ];
    F acc[kU][kQ];
#pragma GCC unroll 2
    for (size_t q = 0; q < kQ; ++q) {
      offset[q] = q * W / kPanel * d * kPanel + q * W % kPanel;
      const F b = Load(bias + q * W);
#pragma GCC unroll 4
      for (size_t u = 0; u < kU; ++u) acc[u][q] = b;
    }
    for (size_t p = 0; p < d; ++p) {
      F v[kQ];
#pragma GCC unroll 2
      for (size_t q = 0; q < kQ; ++q) {
        v[q] = Load(group + offset[q] + p * kPanel);
      }
#pragma GCC unroll 4
      for (size_t u = 0; u < kU; ++u) {
        const float s = users[u][p];
#pragma GCC unroll 2
        for (size_t q = 0; q < kQ; ++q) acc[u][q] += s * v[q];
      }
    }
    if (live >= kQ * W) {
#pragma GCC unroll 4
      for (size_t u = 0; u < kU; ++u) {
#pragma GCC unroll 2
        for (size_t q = 0; q < kQ; ++q) {
          Store(out + u * out_stride + q * W, acc[u][q]);
        }
      }
      return;
    }
    // The last group: stage the tile, then copy out only the live lanes.
    alignas(sizeof(F)) float buf[kU][kQ * W];
#pragma GCC unroll 4
    for (size_t u = 0; u < kU; ++u) {
#pragma GCC unroll 2
      for (size_t q = 0; q < kQ; ++q) Store(buf[u] + q * W, acc[u][q]);
    }
    for (size_t u = 0; u < kU; ++u) {
      __builtin_memcpy(out + u * out_stride, buf[u], live * sizeof(float));
    }
  }

  // Users of one tile group in tiles of 4, then one tile of the rest.
  template <size_t kQ>
  __attribute__((always_inline)) static void PanelUsers(
      const float* group, size_t d, const float* bias,
      const float* const* users, size_t n, float* out, size_t out_stride,
      size_t live) {
    size_t r = 0;
    for (; r + 4 <= n; r += 4) {
      PanelTile<4, kQ>(group, d, bias, users + r, out + r * out_stride,
                      out_stride, live);
    }
    float* rest = out + r * out_stride;
    switch (n - r) {
      case 3:
        PanelTile<3, kQ>(group, d, bias, users + r, rest, out_stride, live);
        break;
      case 2:
        PanelTile<2, kQ>(group, d, bias, users + r, rest, out_stride, live);
        break;
      case 1:
        PanelTile<1, kQ>(group, d, bias, users + r, rest, out_stride, live);
        break;
      default:
        break;
    }
  }

  // Tile groups outer, users inner: one group (8 KiB at W = 16, d = 64)
  // stays in L1 while every user of the block streams past it.
  static void PanelScore(const float* panels, const float* bias,
                         size_t num_panels, size_t d, size_t num_items,
                         const float* const* users, size_t n, float* out,
                         size_t out_stride) {
    constexpr size_t kGroup = 2 * W / kPanel;  // panels per 2-vector tile
    size_t b = 0;
    for (; b + kGroup <= num_panels; b += kGroup) {
      PanelUsers<2>(panels + b * d * kPanel, d, bias + b * kPanel, users, n,
                    out + b * kPanel, out_stride, num_items - b * kPanel);
    }
    if constexpr (kGroup > 1) {
      if (b < num_panels) {
        PanelUsers<1>(panels + b * d * kPanel, d, bias + b * kPanel, users,
                      n, out + b * kPanel, out_stride, num_items - b * kPanel);
      }
    }
  }
};

// The Backend table of one instantiation. The exact-int32 fastscan
// entries are not width-generic (they are one 256-bit kernel shared by
// every x86 table), so the caller passes them in.
template <size_t W>
Backend VecBackend(pup::simd::Isa isa, const char* name,
                   decltype(Backend::qdot_i8_rows) qdot_i8_rows,
                   decltype(Backend::qdot_i4_rows) qdot_i4_rows) {
  using K = VecKernels<W>;
  return Backend{
      isa,
      name,
      W,
      obs::Registry::Global().GetCounter(std::string("simd/dispatch/") + name),
      &K::GemmRows,
      &K::GemmTransARows,
      &K::GemmTransBRows,
      &K::GemvRows,
      &K::RowDot,
      &K::RowDotDiff,
      &K::Axpy,
      &K::Sigmoid,
      &K::Tanh,
      &K::FindNonFinite,
      qdot_i8_rows,
      qdot_i4_rows,
      &K::RerankDotRows,
      &K::PanelScore,
  };
}

}  // namespace
}  // namespace pup::la::simd
