#include "tensor/gemm_kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "runtime/cpu_features.hpp"
#include "runtime/rng.hpp"
#include "tensor/chop_kernel.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace aic::tensor {
namespace {

using runtime::KernelBackend;

bool simd_supported() {
  return runtime::cpu_features().avx2 && runtime::cpu_features().fma;
}

/// Restores the process-default backend when the test scope exits.
class BackendGuard {
 public:
  BackendGuard() : saved_(runtime::kernel_backend()) {}
  ~BackendGuard() { runtime::set_kernel_backend(saved_); }

 private:
  KernelBackend saved_;
};

/// |x−y| ≤ tol·max(1, |x|, |y|) everywhere.
void expect_rel_close(const Tensor& x, const Tensor& y, double tol,
                      const std::string& label) {
  ASSERT_EQ(x.shape(), y.shape()) << label;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const double a = x.at(i), b = y.at(i);
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    ASSERT_LE(std::abs(a - b), tol * scale)
        << label << " flat index " << i << ": " << a << " vs " << b;
  }
}

// Naive double-accumulated ground truth honoring transpose flags.
Tensor matmul_naive(const Tensor& a, const Tensor& b, Trans ta, Trans tb) {
  const std::size_t m = ta == Trans::kNo ? a.shape()[0] : a.shape()[1];
  const std::size_t k = ta == Trans::kNo ? a.shape()[1] : a.shape()[0];
  const std::size_t n = tb == Trans::kNo ? b.shape()[1] : b.shape()[0];
  Tensor c(Shape::matrix(m, n));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta == Trans::kNo ? a.at(i, p) : a.at(p, i);
        const float bv = tb == Trans::kNo ? b.at(p, j) : b.at(j, p);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(CpuFeatures, BackendNamesAreStable) {
  EXPECT_STREQ(runtime::kernel_backend_name(KernelBackend::kScalar),
               "scalar");
  EXPECT_STREQ(runtime::kernel_backend_name(KernelBackend::kAvx2), "avx2");
  // The active backend must be one of the two names.
  const std::string active = runtime::kernel_backend_name();
  EXPECT_TRUE(active == "scalar" || active == "avx2") << active;
}

TEST(CpuFeatures, BackendOverrideRoundTrips) {
  BackendGuard guard;
  runtime::set_kernel_backend(KernelBackend::kScalar);
  EXPECT_EQ(runtime::kernel_backend(), KernelBackend::kScalar);
  EXPECT_STREQ(runtime::kernel_backend_name(), "scalar");
  if (simd_supported()) {
    runtime::set_kernel_backend(KernelBackend::kAvx2);
    EXPECT_EQ(runtime::kernel_backend(), KernelBackend::kAvx2);
  } else {
    EXPECT_THROW(runtime::set_kernel_backend(KernelBackend::kAvx2),
                 std::invalid_argument);
  }
}

// SIMD-vs-scalar parity fuzz over shapes that exercise every tail path:
// partial MR panels, partial NR panels (both halves of the 16-wide tile),
// k=1, and the 7×13×5 shape from the issue.
TEST(GemmParity, SimdMatchesScalarOnRandomShapes) {
  if (!simd_supported()) GTEST_SKIP() << "host lacks AVX2+FMA";
  BackendGuard guard;
  runtime::Rng rng(21);
  const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>
      shapes = {{1, 1, 1},    {7, 13, 5},   {6, 16, 32},  {17, 1, 9},
                {5, 300, 3},  {33, 47, 29}, {64, 64, 64}, {129, 63, 65},
                {2, 200, 11}, {61, 7, 123}};
  for (const auto& [m, k, n] : shapes) {
    const Tensor a = Tensor::uniform(Shape::matrix(m, k), rng, -1.0f, 1.0f);
    const Tensor b = Tensor::uniform(Shape::matrix(k, n), rng, -1.0f, 1.0f);
    Tensor scalar_out(Shape::matrix(m, n));
    Tensor simd_out(Shape::matrix(m, n));
    runtime::set_kernel_backend(KernelBackend::kScalar);
    matmul_into(a, b, scalar_out);
    runtime::set_kernel_backend(KernelBackend::kAvx2);
    matmul_into(a, b, simd_out);
    expect_rel_close(scalar_out, simd_out, 1e-5,
                     std::to_string(m) + "x" + std::to_string(k) + "x" +
                         std::to_string(n));
  }
}

// Transpose flags must match an explicit transposed() copy bit-for-bit on
// every backend (same kernel, same packing-normalized operand order).
TEST(GemmTranspose, FlagsMatchExplicitTransposeCopies) {
  runtime::Rng rng(22);
  const std::size_t m = 23, k = 31, n = 19;
  for (const KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (backend == KernelBackend::kAvx2 && !simd_supported()) continue;
    BackendGuard guard;
    runtime::set_kernel_backend(backend);
    const Tensor a = Tensor::uniform(Shape::matrix(m, k), rng, -1.0f, 1.0f);
    const Tensor b = Tensor::uniform(Shape::matrix(k, n), rng, -1.0f, 1.0f);
    const Tensor at = a.transposed();  // k×m storage of the same logical A
    const Tensor bt = b.transposed();  // n×k storage of the same logical B
    Tensor reference(Shape::matrix(m, n));
    matmul_into(a, b, reference);

    Tensor nt(Shape::matrix(m, n));
    matmul_into(a, bt, nt, Trans::kNo, Trans::kYes);
    Tensor tn(Shape::matrix(m, n));
    matmul_into(at, b, tn, Trans::kYes, Trans::kNo);
    Tensor tt(Shape::matrix(m, n));
    matmul_into(at, bt, tt, Trans::kYes, Trans::kYes);
    for (std::size_t i = 0; i < reference.numel(); ++i) {
      ASSERT_EQ(nt.at(i), reference.at(i)) << "NT flat " << i;
      ASSERT_EQ(tn.at(i), reference.at(i)) << "TN flat " << i;
      ASSERT_EQ(tt.at(i), reference.at(i)) << "TT flat " << i;
    }
  }
}

TEST(GemmTranspose, FlagsMatchNaiveReference) {
  runtime::Rng rng(23);
  const std::size_t m = 14, k = 40, n = 27;
  const Tensor at = Tensor::uniform(Shape::matrix(k, m), rng, -1.0f, 1.0f);
  const Tensor bt = Tensor::uniform(Shape::matrix(n, k), rng, -1.0f, 1.0f);
  Tensor out(Shape::matrix(m, n));
  matmul_into(at, bt, out, Trans::kYes, Trans::kYes);
  expect_rel_close(out, matmul_naive(at, bt, Trans::kYes, Trans::kYes), 1e-4,
                   "TT vs naive");
}

TEST(GemmTranspose, DimensionValidationHonorsFlags) {
  const Tensor a(Shape::matrix(4, 6));
  const Tensor b(Shape::matrix(4, 5));
  Tensor out(Shape::matrix(6, 5));
  // aᵀ (6×4) · b (4×5) fits; a · b does not.
  matmul_into(a, b, out, Trans::kYes, Trans::kNo);
  EXPECT_THROW(matmul_into(a, b, out, Trans::kNo, Trans::kNo),
               std::invalid_argument);
  Tensor wrong(Shape::matrix(4, 5));
  EXPECT_THROW(matmul_into(a, b, wrong, Trans::kYes, Trans::kNo),
               std::invalid_argument);
}

TEST(GemmAccumulate, AddsOntoExistingOutput) {
  runtime::Rng rng(24);
  for (const KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kAvx2}) {
    if (backend == KernelBackend::kAvx2 && !simd_supported()) continue;
    BackendGuard guard;
    runtime::set_kernel_backend(backend);
    const std::size_t m = 9, k = 33, n = 21;  // tails on every axis
    const Tensor a = Tensor::uniform(Shape::matrix(m, k), rng, -1.0f, 1.0f);
    const Tensor b = Tensor::uniform(Shape::matrix(k, n), rng, -1.0f, 1.0f);
    const Tensor seed = Tensor::uniform(Shape::matrix(m, n), rng, -1.0f, 1.0f);
    Tensor product(Shape::matrix(m, n));
    matmul_into(a, b, product);
    Tensor accumulated = seed;
    matmul_into(a, b, accumulated, /*accumulate=*/true);
    // accumulate must be exactly seed + product: the kernel performs one
    // add of the same register tile the non-accumulating path stores.
    for (std::size_t i = 0; i < accumulated.numel(); ++i) {
      ASSERT_EQ(accumulated.at(i), seed.at(i) + product.at(i)) << i;
    }
  }
}

// Builds a block-banded matrix with random non-zero entries in each band.
Tensor make_banded(std::size_t bands, std::size_t row_block,
                   std::size_t col_block, runtime::Rng& rng) {
  Tensor m(Shape::matrix(bands * row_block, bands * col_block));
  for (std::size_t band = 0; band < bands; ++band) {
    for (std::size_t r = 0; r < row_block; ++r) {
      for (std::size_t c = 0; c < col_block; ++c) {
        m.at(band * row_block + r, band * col_block + c) =
            static_cast<float>(rng.uniform(0.1, 1.0));
      }
    }
  }
  return m;
}

TEST(GemmSandwich, SimdAndScalarSandwichAgreeWithinTolerance) {
  if (!simd_supported()) GTEST_SKIP() << "host lacks AVX2+FMA";
  BackendGuard guard;
  runtime::Rng rng(26);
  const std::size_t bands = 3, cf = 2, block = 8;
  const Tensor lhs = make_banded(bands, cf, block, rng);
  const Tensor rhs = make_banded(bands, block, cf, rng);
  const std::size_t edge = bands * block;
  const Tensor in =
      Tensor::uniform(Shape::bchw(2, 2, edge, edge), rng, -1.0f, 1.0f);
  Tensor scalar_out(Shape::bchw(2, 2, bands * cf, bands * cf));
  Tensor simd_out(Shape::bchw(2, 2, bands * cf, bands * cf));
  runtime::set_kernel_backend(KernelBackend::kScalar);
  sandwich_planes_into(lhs, in, rhs, scalar_out);
  runtime::set_kernel_backend(KernelBackend::kAvx2);
  sandwich_planes_into(lhs, in, rhs, simd_out);
  expect_rel_close(scalar_out, simd_out, 1e-5, "sandwich parity");
}

TEST(GemmCounters, AdvanceAcrossCallsAndCountTails) {
  const GemmCounters before = gemm_counters();
  runtime::Rng rng(28);
  // 13×17: partial MR panels (13 = 2·6+1) and partial NR panels (17 = 16+1).
  const Tensor a = Tensor::uniform(Shape::matrix(13, 9), rng, -1.0f, 1.0f);
  const Tensor b = Tensor::uniform(Shape::matrix(9, 17), rng, -1.0f, 1.0f);
  Tensor c(Shape::matrix(13, 17));
  matmul_into(a, b, c);
  const GemmCounters after = gemm_counters();
  EXPECT_EQ(after.gemm_calls, before.gemm_calls + 1);
  EXPECT_EQ(after.flops, before.flops + 2ull * 13 * 9 * 17);
  // ceil(13/6)=3 A panels (6,6,1 rows), ceil(17/16)=2 B panels (16,1
  // cols), 6 tiles of which only the two 6×16 ones are full.
  EXPECT_EQ(after.a_panels_packed, before.a_panels_packed + 3);
  EXPECT_EQ(after.b_panels_packed, before.b_panels_packed + 2);
  EXPECT_EQ(after.microkernel_calls, before.microkernel_calls + 6);
  EXPECT_EQ(after.tail_tiles, before.tail_tiles + 4);
}

// The counters describe the gemm layer only: the dense sandwich is two
// gemm calls per plane, and the block chop kernel issues none.
TEST(GemmCounters, SandwichRecordsOnlyGemmCalls) {
  runtime::Rng rng(29);
  const std::size_t bands = 4, cf = 4, block = 8;
  const Tensor lhs = make_banded(bands, cf, block, rng);
  const Tensor rhs = make_banded(bands, block, cf, rng);
  const std::size_t edge = bands * block, packed = bands * cf;
  const Tensor in = Tensor::uniform(Shape::bchw(1, 2, edge, edge), rng);
  Tensor out(Shape::bchw(1, 2, packed, packed));
  const GemmCounters before = gemm_counters();
  sandwich_planes_into(lhs, in, rhs, out);
  const GemmCounters after = gemm_counters();
  EXPECT_EQ(after.gemm_calls, before.gemm_calls + 2 * 2);
  EXPECT_EQ(after.flops, before.flops + 2 * (2ull * edge * packed * edge +
                                             2ull * packed * packed * edge));

  const Tensor d = Tensor::uniform(Shape::matrix(cf, block), rng);
  chop_forward_into(d, in, out);
  const GemmCounters untouched = gemm_counters();
  EXPECT_EQ(untouched.gemm_calls, after.gemm_calls);
  EXPECT_EQ(untouched.flops, after.flops);
  EXPECT_EQ(untouched.microkernel_calls, after.microkernel_calls);
}

}  // namespace
}  // namespace aic::tensor
