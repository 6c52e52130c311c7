#include "tensor/chop_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/kernel_detail.hpp"

namespace aic::tensor {
namespace {

// (plane × strip) items per pool task; one strip is small.
constexpr std::size_t kBandGrain = 16;
// Blocks per tile: both stages run 16 blocks at a time, so the input, mid
// and output tiles (≤ 4 KiB each at block 8) stay in L1 together. Whole
// 1024-wide strips ran ~20% slower (6 planes of 1024², 1 worker, Xeon).
constexpr std::size_t kTileBlocks = 16;
// Mid-tile slack: the AVX2 forward stage stores whole 4-lane groups,
// which may run up to 4 floats past a row's last block.
constexpr std::size_t kSlackFloats = 8;

// The per-block map both stages apply, kin values to kout values with
// coefficient (j, o) at m[j·sj + o·so]: D for the forward transform
// (kin = block, kout = cf), Dᵀ for the inverse.
struct BlockMap {
  const float* m;
  std::size_t kin, kout, sj, so;
  float operator()(std::size_t j, std::size_t o) const {
    return m[j * sj + o * so];
  }
};

// One tile of nb blocks: `in` holds kin rows of nb·kin values (row stride
// in_ld), `mid` kin rows of nb·kout values, and `out` receives kout rows
// of nb·kout values (row stride out_ld).
//   horizontal: mid[i][b·kout + o] = Σ_j in[i][b·kin + j] · M(j, o)
//   vertical:   out[o][x] = Σ_j M(j, o) · mid[j][x], skipping M(j, o) = 0
// Every sum is one ascending-j chain starting at +0, the order the dense
// sandwich's gemm issues for the same product.

template <bool kFused>
float mac(float a, float b, float acc) {
  if constexpr (kFused) {
    return std::fma(a, b, acc);
  } else {
    return acc + a * b;
  }
}

// Any block size; kFused keeps the AVX2 backend's rounding at block != 8.
template <bool kFused>
void tile_portable(const BlockMap& map, const float* in, std::size_t in_ld,
                   float* mid, float* out, std::size_t out_ld,
                   std::size_t nb) {
  const std::size_t n = nb * map.kout;
  for (std::size_t i = 0; i < map.kin; ++i) {
    const float* x = in + i * in_ld;
    float* y = mid + i * n;
    for (std::size_t b = 0; b < nb; ++b, x += map.kin, y += map.kout) {
      for (std::size_t o = 0; o < map.kout; ++o) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < map.kin; ++j) {
          acc = mac<kFused>(x[j], map(j, o), acc);
        }
        y[o] = acc;
      }
    }
  }
  for (std::size_t o = 0; o < map.kout; ++o) {
    float* dst = out + o * out_ld;
    std::fill_n(dst, n, 0.0f);
    for (std::size_t j = 0; j < map.kin; ++j) {
      const float c = map(j, o);
      if (c == 0.0f) continue;
      const float* src = mid + j * n;
      for (std::size_t x = 0; x < n; ++x) dst[x] = mac<kFused>(c, src[x], dst[x]);
    }
  }
}

#if AIC_TENSOR_X86

#define AIC_AVX2 __attribute__((target("avx2,fma")))

// A block = 8 map: row j holds M(j, 0..kout), zero-padded to 8 lanes.
struct Table {
  alignas(32) float t[8][8];
};

template <bool kWide>
AIC_AVX2 inline void mac_pair(__m256 s, __m256 lo, __m256 hi, __m256& a0,
                              __m256& a1) {
  a0 = _mm256_fmadd_ps(s, lo, a0);
  if constexpr (kWide) a1 = _mm256_fmadd_ps(s, hi, a1);
}

// Horizontal stage with kin = 8, two blocks per register (lane group 0:
// block b, group 1: block b+1). permute2f128 pairs the blocks' halves,
// permute_ps broadcasts x[j] within each group, and lo/hi repeat
// M(j, 0..3)/M(j, 4..7) in both groups. Outputs leave as whole 4-lane
// groups in ascending order: a spill past kout is overwritten by the next
// block or lands in the slack.
template <bool kWide>
AIC_AVX2 void rows_from8(const Table& t, std::size_t kout, const float* in,
                         std::size_t in_ld, float* mid, std::size_t nb) {
  __m256 lo[8], hi[8];
  for (std::size_t j = 0; j < 8; ++j) {
    lo[j] = _mm256_broadcast_ps(reinterpret_cast<const __m128*>(t.t[j]));
    hi[j] = _mm256_broadcast_ps(reinterpret_cast<const __m128*>(t.t[j] + 4));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    const float* x = in + i * in_ld;
    float* y = mid + i * nb * kout;
    for (std::size_t b = 0; b < nb; b += 2) {
      const bool pair = b + 1 < nb;
      const __m256 v0 = _mm256_loadu_ps(x + 8 * b);
      const __m256 v1 = pair ? _mm256_loadu_ps(x + 8 * b + 8)
                             : _mm256_setzero_ps();
      const __m256 p0 = _mm256_permute2f128_ps(v0, v1, 0x20);
      const __m256 p1 = _mm256_permute2f128_ps(v0, v1, 0x31);
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      mac_pair<kWide>(_mm256_permute_ps(p0, 0x00), lo[0], hi[0], a0, a1);
      mac_pair<kWide>(_mm256_permute_ps(p0, 0x55), lo[1], hi[1], a0, a1);
      mac_pair<kWide>(_mm256_permute_ps(p0, 0xAA), lo[2], hi[2], a0, a1);
      mac_pair<kWide>(_mm256_permute_ps(p0, 0xFF), lo[3], hi[3], a0, a1);
      mac_pair<kWide>(_mm256_permute_ps(p1, 0x00), lo[4], hi[4], a0, a1);
      mac_pair<kWide>(_mm256_permute_ps(p1, 0x55), lo[5], hi[5], a0, a1);
      mac_pair<kWide>(_mm256_permute_ps(p1, 0xAA), lo[6], hi[6], a0, a1);
      mac_pair<kWide>(_mm256_permute_ps(p1, 0xFF), lo[7], hi[7], a0, a1);
      float* yb = y + b * kout;
      _mm_storeu_ps(yb, _mm256_castps256_ps128(a0));
      if (kWide) _mm_storeu_ps(yb + 4, _mm256_castps256_ps128(a1));
      if (!pair) continue;
      _mm_storeu_ps(yb + kout, _mm256_extractf128_ps(a0, 1));
      if (kWide) _mm_storeu_ps(yb + kout + 4, _mm256_extractf128_ps(a1, 1));
    }
  }
}

// Horizontal stage with kout = 8: one block per register, x[j] broadcast
// against coefficient row j, four blocks in flight.
AIC_AVX2 void rows_to8(const Table& t, std::size_t kin, const float* in,
                       std::size_t in_ld, float* mid, std::size_t nb) {
  __m256 r[8];
  for (std::size_t j = 0; j < kin; ++j) r[j] = _mm256_load_ps(t.t[j]);
  for (std::size_t i = 0; i < kin; ++i) {
    const float* x = in + i * in_ld;
    float* y = mid + i * nb * 8;
    std::size_t b = 0;
    for (; b + 4 <= nb; b += 4) {
      const float* xb = x + b * kin;
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      for (std::size_t j = 0; j < kin; ++j) {
        a0 = _mm256_fmadd_ps(_mm256_broadcast_ss(xb + j), r[j], a0);
        a1 = _mm256_fmadd_ps(_mm256_broadcast_ss(xb + kin + j), r[j], a1);
        a2 = _mm256_fmadd_ps(_mm256_broadcast_ss(xb + 2 * kin + j), r[j], a2);
        a3 = _mm256_fmadd_ps(_mm256_broadcast_ss(xb + 3 * kin + j), r[j], a3);
      }
      _mm256_storeu_ps(y + 8 * b, a0);
      _mm256_storeu_ps(y + 8 * b + 8, a1);
      _mm256_storeu_ps(y + 8 * b + 16, a2);
      _mm256_storeu_ps(y + 8 * b + 24, a3);
    }
    for (; b < nb; ++b) {
      __m256 a = _mm256_setzero_ps();
      for (std::size_t j = 0; j < kin; ++j) {
        a = _mm256_fmadd_ps(_mm256_broadcast_ss(x + b * kin + j), r[j], a);
      }
      _mm256_storeu_ps(y + 8 * b, a);
    }
  }
}

// Vertical stage over n-wide rows, four vectors in flight.
AIC_AVX2 void columns(const Table& t, std::size_t kin, std::size_t kout,
                      const float* mid, float* out, std::size_t out_ld,
                      std::size_t n) {
  for (std::size_t o = 0; o < kout; ++o) {
    float* dst = out + o * out_ld;
    std::size_t x = 0;
    for (; x + 32 <= n; x += 32) {
      __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
      for (std::size_t j = 0; j < kin; ++j) {
        if (t.t[j][o] == 0.0f) continue;
        const __m256 c = _mm256_set1_ps(t.t[j][o]);
        const float* m = mid + j * n + x;
        a0 = _mm256_fmadd_ps(c, _mm256_loadu_ps(m), a0);
        a1 = _mm256_fmadd_ps(c, _mm256_loadu_ps(m + 8), a1);
        a2 = _mm256_fmadd_ps(c, _mm256_loadu_ps(m + 16), a2);
        a3 = _mm256_fmadd_ps(c, _mm256_loadu_ps(m + 24), a3);
      }
      _mm256_storeu_ps(dst + x, a0);
      _mm256_storeu_ps(dst + x + 8, a1);
      _mm256_storeu_ps(dst + x + 16, a2);
      _mm256_storeu_ps(dst + x + 24, a3);
    }
    for (; x < n; x += 8) {
      const __m256i mask = detail::tail_mask(std::min<std::size_t>(8, n - x));
      __m256 a = _mm256_setzero_ps();
      for (std::size_t j = 0; j < kin; ++j) {
        if (t.t[j][o] == 0.0f) continue;
        a = _mm256_fmadd_ps(_mm256_set1_ps(t.t[j][o]),
                            _mm256_maskload_ps(mid + j * n + x, mask), a);
      }
      _mm256_maskstore_ps(dst + x, mask, a);
    }
  }
}

// block = 8, so kin = 8 (forward, and the cf = 8 inverse) or kout = 8.
AIC_AVX2 void tile_avx2(const Table& t, std::size_t kin, std::size_t kout,
                        const float* in, std::size_t in_ld, float* mid,
                        float* out, std::size_t out_ld, std::size_t nb) {
  if (kin == 8 && kout > 4) {
    rows_from8<true>(t, kout, in, in_ld, mid, nb);
  } else if (kin == 8) {
    rows_from8<false>(t, kout, in, in_ld, mid, nb);
  } else {
    rows_to8(t, kin, in, in_ld, mid, nb);
  }
  columns(t, kin, kout, mid, out, out_ld, nb * kout);
}

#endif  // AIC_TENSOR_X86

// Runs `items` strips of nb blocks, back to back in `in` and `out`.
void run_strips(const BlockMap& map, const float* in, float* out,
                std::size_t items, std::size_t nb) {
  const std::size_t in_ld = nb * map.kin;
  const std::size_t out_ld = nb * map.kout;
  const bool avx2 = detail::avx2_active();
#if AIC_TENSOR_X86
  const bool block8 = std::max(map.kin, map.kout) == 8;
  Table table{};
  for (std::size_t j = 0; block8 && j < map.kin; ++j) {
    for (std::size_t o = 0; o < map.kout; ++o) table.t[j][o] = map(j, o);
  }
#endif
  const detail::MidScratch scratch(
      map.kin * std::min(nb, kTileBlocks) * map.kout + kSlackFloats);
  runtime::parallel_for_chunks(
      0, items,
      [&](std::size_t lo, std::size_t hi) {
        AIC_TRACE_SCOPE("chop.strips");
        float* mid = scratch.slab();
        for (std::size_t item = lo; item < hi; ++item) {
          for (std::size_t b0 = 0; b0 < nb; b0 += kTileBlocks) {
            const std::size_t tb = std::min(kTileBlocks, nb - b0);
            const float* src = in + item * map.kin * in_ld + b0 * map.kin;
            float* dst = out + item * map.kout * out_ld + b0 * map.kout;
#if AIC_TENSOR_X86
            if (avx2 && block8) {
              tile_avx2(table, map.kin, map.kout, src, in_ld, mid, dst,
                        out_ld, tb);
              continue;
            }
#endif
            if (avx2) {
              tile_portable<true>(map, src, in_ld, mid, dst, out_ld, tb);
            } else {
              tile_portable<false>(map, src, in_ld, mid, dst, out_ld, tb);
            }
          }
        }
      },
      {.grain = kBandGrain});
}

struct Geometry {
  std::size_t cf, block, items, nb;
};

// Checks D (cf × block), a [B, C, h, w] tensor and its packed
// [B, C, cf·h/block, cf·w/block] counterpart.
Geometry check(const char* who, const Tensor& d, const Tensor& full,
               const Tensor& packed) {
  const auto fail = [who](const std::string& what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  for (const Tensor* t : {&d, &full, &packed}) {
    if (t->dtype() != DType::kFloat32) {
      fail(std::string("tensors must be float32, got ") +
           dtype_name(t->dtype()));
    }
  }
  const Shape& ds = d.shape();
  if (ds.rank() != 2 || ds[0] == 0 || ds[0] > ds[1]) {
    fail("D must be cf x block with 1 <= cf <= block");
  }
  const std::size_t cf = ds[0], block = ds[1];
  const Shape& s = full.shape();
  if (s.rank() != 4 || s[2] % block != 0 || s[3] % block != 0) {
    fail("planes must be whole blocks, got " + s.to_string());
  }
  if (packed.shape() !=
      Shape::bchw(s[0], s[1], cf * s[2] / block, cf * s[3] / block)) {
    fail("packed shape " + packed.shape().to_string() + " does not fit " +
         s.to_string());
  }
  return {cf, block, s[0] * s[1] * (s[2] / block), s[3] / block};
}

}  // namespace

std::size_t chop_scratch_bytes(std::size_t cf, std::size_t block,
                               std::size_t width) {
  return (cf * block * std::min(width / block, kTileBlocks) + kSlackFloats) *
         sizeof(float);
}

void chop_forward_into(const Tensor& d, const Tensor& in, Tensor& out) {
  const Geometry g = check("chop_forward_into", d, in, out);
  run_strips({d.raw(), g.block, g.cf, 1, g.block}, in.raw(), out.raw(),
             g.items, g.nb);
}

void chop_inverse_into(const Tensor& d, const Tensor& packed, Tensor& out) {
  const Geometry g = check("chop_inverse_into", d, out, packed);
  run_strips({d.raw(), g.cf, g.block, g.block, 1}, packed.raw(), out.raw(),
             g.items, g.nb);
}

}  // namespace aic::tensor
