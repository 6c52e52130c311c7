#include "tensor/matmul.hpp"

#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/kernel_detail.hpp"

namespace aic::tensor {
namespace {

void require_float32(const Tensor& t, const char* kernel, const char* what) {
  if (t.dtype() != DType::kFloat32) {
    throw std::invalid_argument(std::string(kernel) + ": " + what +
                                " must be float32, got " +
                                dtype_name(t.dtype()));
  }
}

// One plane of the dense sandwich: out_plane = lhs · (plane · rhs), both
// stages through the shared gemm (which degrades to inline execution on
// pool workers — the caller owns the plane-level parallelism).
void sandwich_plane_dense(const float* lhs, const float* plane,
                          const float* rhs, float* out_plane, float* mid,
                          std::size_t h, std::size_t w, std::size_t out_h,
                          std::size_t out_w) {
  {
    AIC_TRACE_SCOPE("sandwich.rhs_mm");
    gemm(Trans::kNo, Trans::kNo, h, out_w, w, plane, w, rhs, out_w, mid,
         out_w, /*accumulate=*/false);
  }
  {
    AIC_TRACE_SCOPE("sandwich.lhs_mm");
    gemm(Trans::kNo, Trans::kNo, out_h, out_w, h, lhs, h, mid, out_w,
         out_plane, out_w, /*accumulate=*/false);
  }
}

struct SandwichDims {
  std::size_t planes, h, w, out_h, out_w;
};

void sandwich_dense(const float* lhs, const float* in, const float* rhs,
                    float* out, const SandwichDims& d) {
  const detail::MidScratch scratch(d.h * d.out_w);
  runtime::parallel_for_chunks(
      0, d.planes,
      [&](std::size_t lo, std::size_t hi) {
        AIC_TRACE_SCOPE("sandwich.dense_chunk");
        float* mid = scratch.slab();
        for (std::size_t plane = lo; plane < hi; ++plane) {
          sandwich_plane_dense(lhs, in + plane * d.h * d.w, rhs,
                               out + plane * d.out_h * d.out_w, mid, d.h,
                               d.w, d.out_h, d.out_w);
        }
      },
      {.grain = 1});
}

}  // namespace

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out, Trans trans_a,
                 Trans trans_b, bool accumulate) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2) {
    throw std::invalid_argument("matmul: operands must be rank 2");
  }
  require_float32(a, "matmul", "LHS");
  require_float32(b, "matmul", "RHS");
  require_float32(out, "matmul", "output");
  const std::size_t m =
      trans_a == Trans::kNo ? a.shape()[0] : a.shape()[1];
  const std::size_t k =
      trans_a == Trans::kNo ? a.shape()[1] : a.shape()[0];
  const std::size_t k_b =
      trans_b == Trans::kNo ? b.shape()[0] : b.shape()[1];
  const std::size_t n =
      trans_b == Trans::kNo ? b.shape()[1] : b.shape()[0];
  if (k_b != k) {
    throw std::invalid_argument("matmul: inner dimensions differ: " +
                                a.shape().to_string() + " x " +
                                b.shape().to_string());
  }
  if (out.shape() != Shape::matrix(m, n)) {
    throw std::invalid_argument("matmul_into: output shape mismatch");
  }
  gemm(trans_a, trans_b, m, n, k, a.raw(), a.shape()[1], b.raw(),
       b.shape()[1], out.raw(), n, accumulate);
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                 bool accumulate) {
  matmul_into(a, b, out, Trans::kNo, Trans::kNo, accumulate);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor out(Shape::matrix(a.shape()[0], b.shape()[1]));
  matmul_into(a, b, out, /*accumulate=*/false);
  return out;
}

void sandwich_planes_into(const Tensor& lhs, const Tensor& in,
                          const Tensor& rhs, Tensor& out) {
  if (in.shape().rank() != 4 || out.shape().rank() != 4) {
    throw std::invalid_argument("sandwich_planes: tensors must be rank 4");
  }
  if (lhs.shape().rank() != 2 || rhs.shape().rank() != 2) {
    throw std::invalid_argument("sandwich_planes: operators must be rank 2");
  }
  require_float32(lhs, "sandwich_planes", "LHS");
  require_float32(rhs, "sandwich_planes", "RHS");
  require_float32(in, "sandwich_planes", "input");
  require_float32(out, "sandwich_planes", "output");
  const std::size_t batch = in.shape()[0];
  const std::size_t channels = in.shape()[1];
  const std::size_t h = in.shape()[2];
  const std::size_t w = in.shape()[3];
  const std::size_t out_h = lhs.shape()[0];
  const std::size_t out_w = rhs.shape()[1];
  if (lhs.shape()[1] != h || rhs.shape()[0] != w) {
    throw std::invalid_argument("sandwich_planes: LHS/RHS do not fit input");
  }
  if (out.shape() != Shape::bchw(batch, channels, out_h, out_w)) {
    throw std::invalid_argument("sandwich_planes: output shape mismatch");
  }
  const SandwichDims dims{batch * channels, h, w, out_h, out_w};
  if (dims.planes == 0) return;
  sandwich_dense(lhs.raw(), in.raw(), rhs.raw(), out.raw(), dims);
}

std::uint64_t sandwich_scratch_reallocs() noexcept {
  return detail::g_scratch_reallocs.load(std::memory_order_relaxed);
}

std::size_t matmul_flops(const Tensor& a, const Tensor& b) {
  return 2 * a.shape()[0] * a.shape()[1] * b.shape()[1];
}

}  // namespace aic::tensor
