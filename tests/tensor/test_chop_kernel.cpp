#include "tensor/chop_kernel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/cpu_features.hpp"
#include "runtime/rng.hpp"
#include "tensor/matmul.hpp"

namespace aic::tensor {
namespace {

using runtime::KernelBackend;

/// Restores the process-default backend when the test scope exits.
class BackendGuard {
 public:
  BackendGuard() : saved_(runtime::kernel_backend()) {}
  ~BackendGuard() { runtime::set_kernel_backend(saved_); }

 private:
  KernelBackend saved_;
};

std::vector<KernelBackend> backends() {
  std::vector<KernelBackend> out{KernelBackend::kScalar};
  if (runtime::cpu_features().avx2 && runtime::cpu_features().fma) {
    out.push_back(KernelBackend::kAvx2);
  }
  return out;
}

// blockdiag(D) with `blocks` copies: (cf·blocks) × (block·blocks).
Tensor block_diagonal(const Tensor& d, std::size_t blocks) {
  const std::size_t cf = d.shape()[0], block = d.shape()[1];
  Tensor m(Shape::matrix(cf * blocks, block * blocks));
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t c = 0; c < cf; ++c) {
      for (std::size_t p = 0; p < block; ++p) {
        m.at(b * cf + c, b * block + p) = d.at(c, p);
      }
    }
  }
  return m;
}

void expect_equal(const Tensor& want, const Tensor& got,
                  const std::string& label) {
  ASSERT_EQ(want.shape(), got.shape()) << label;
  for (std::size_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(want.at(i), got.at(i)) << label << " flat " << i;
  }
}

// The kernel against the dense sandwich with LHS = blockdiag(D) and
// RHS = LHSᵀ, both directions: the same ascending chains, so the same
// bits on each backend. D carries one zero entry, which the kernel's
// vertical stage skips and the dense gemm multiplies through.
void check_against_dense(std::size_t cf, std::size_t block, std::size_t h,
                         std::size_t w, runtime::Rng& rng) {
  Tensor d = Tensor::uniform(Shape::matrix(cf, block), rng, -1.0f, 1.0f);
  d.at(cf - 1, block / 2) = 0.0f;
  const Tensor lhs_h = block_diagonal(d, h / block);
  const Tensor lhs_w = block_diagonal(d, w / block);
  const Tensor rhs_w = lhs_w.transposed();
  const Tensor rhs_h = lhs_h.transposed();
  const std::size_t ch = cf * h / block, cw = cf * w / block;
  const std::string label = "cf=" + std::to_string(cf) +
                            " block=" + std::to_string(block) + " " +
                            std::to_string(h) + "x" + std::to_string(w) +
                            " " + runtime::kernel_backend_name();

  const Tensor in = Tensor::uniform(Shape::bchw(2, 3, h, w), rng, -1.0f, 1.0f);
  Tensor dense(Shape::bchw(2, 3, ch, cw));
  Tensor fused(Shape::bchw(2, 3, ch, cw));
  sandwich_planes_into(lhs_h, in, rhs_w, dense);
  chop_forward_into(d, in, fused);
  expect_equal(dense, fused, "forward " + label);

  const Tensor packed =
      Tensor::uniform(Shape::bchw(2, 3, ch, cw), rng, -1.0f, 1.0f);
  Tensor dense_back(Shape::bchw(2, 3, h, w));
  Tensor fused_back(Shape::bchw(2, 3, h, w));
  sandwich_planes_into(rhs_h, packed, lhs_w, dense_back);
  chop_inverse_into(d, packed, fused_back);
  expect_equal(dense_back, fused_back, "inverse " + label);
}

TEST(ChopKernel, MatchesDenseSandwichOnEveryBackend) {
  runtime::Rng rng(31);
  for (const KernelBackend backend : backends()) {
    BackendGuard guard;
    runtime::set_kernel_backend(backend);
    for (std::size_t cf = 1; cf <= 8; ++cf) {
      check_against_dense(cf, 8, 32, 32, rng);
    }
  }
}

TEST(ChopKernel, RectangularPlanesMatchDenseSandwichExactly) {
  runtime::Rng rng(32);
  for (const KernelBackend backend : backends()) {
    BackendGuard guard;
    runtime::set_kernel_backend(backend);
    // An odd block count (a lone last block), and a row wide enough for
    // the kernel's 32-lane column loop plus a masked tail.
    for (std::size_t cf = 1; cf <= 8; ++cf) {
      check_against_dense(cf, 8, 24, 40, rng);
      check_against_dense(cf, 8, 16, 136, rng);
    }
    // block != 8 runs the portable loop on every backend.
    for (std::size_t cf = 1; cf <= 4; ++cf) {
      check_against_dense(cf, 4, 12, 20, rng);
    }
  }
}

TEST(ChopKernel, SteadyStateReallocatesNoScratch) {
  runtime::Rng rng(14);
  const std::size_t cf = 4, block = 8, edge = 32;
  const Tensor d = Tensor::uniform(Shape::matrix(cf, block), rng);
  const Tensor in = Tensor::uniform(Shape::bchw(3, 2, edge, edge), rng);
  Tensor packed(Shape::bchw(3, 2, cf * edge / block, cf * edge / block));
  Tensor back(in.shape());
  // Warm-up sizes every thread's scratch buffer...
  chop_forward_into(d, in, packed);
  chop_inverse_into(d, packed, back);
  const std::uint64_t warm = sandwich_scratch_reallocs();
  // ...after which repeated calls must not allocate scratch again.
  for (int i = 0; i < 5; ++i) {
    chop_forward_into(d, in, packed);
    chop_inverse_into(d, packed, back);
  }
  EXPECT_EQ(sandwich_scratch_reallocs(), warm);
}

TEST(ChopKernel, IllFittingShapesThrow) {
  const Tensor d(Shape::matrix(4, 8));
  const Tensor in(Shape::bchw(1, 1, 16, 16));
  Tensor packed(Shape::bchw(1, 1, 8, 8));
  Tensor back(Shape::bchw(1, 1, 16, 16));
  // D must be cf × block with 1 <= cf <= block.
  EXPECT_THROW(chop_forward_into(Tensor(Shape::vector(8)), in, packed),
               std::invalid_argument);
  EXPECT_THROW(chop_forward_into(Tensor(Shape::matrix(9, 8)), in, packed),
               std::invalid_argument);
  // Planes that are not whole blocks, and packed shapes that do not fit.
  Tensor ragged_packed(Shape::bchw(1, 1, 6, 8));
  EXPECT_THROW(chop_forward_into(d, Tensor(Shape::bchw(1, 1, 12, 16)),
                                 ragged_packed),
               std::invalid_argument);
  Tensor wrong(Shape::bchw(1, 1, 8, 4));
  EXPECT_THROW(chop_forward_into(d, in, wrong), std::invalid_argument);
  EXPECT_THROW(chop_inverse_into(d, wrong, back), std::invalid_argument);
  // float32 only.
  Tensor half = d;
  half.set_dtype(DType::kFloat16);
  EXPECT_THROW(chop_forward_into(half, in, packed), std::invalid_argument);
  EXPECT_THROW(chop_inverse_into(half, packed, back), std::invalid_argument);
}

}  // namespace
}  // namespace aic::tensor
