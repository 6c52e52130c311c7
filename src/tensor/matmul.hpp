#pragma once

#include <cstdint>

#include "tensor/gemm_kernels.hpp"
#include "tensor/tensor.hpp"

namespace aic::tensor {

/// C = A · B for rank-2 tensors; packed, register-blocked, runtime
/// ISA-dispatched (see gemm_kernels.hpp), parallel over row panels.
///
/// In the paper's formulation DCT+Chop compression and decompression are
/// each exactly two calls to this kernel (Eq. 4 / Eq. 6); the CPU codec
/// runs the block chop kernel instead (chop_kernel.hpp).
Tensor matmul(const Tensor& a, const Tensor& b);

/// C (+)= op(A) · op(B) into a preallocated output. The transpose flags
/// are honored by the kernel's packing stage, so passing Trans::kYes is
/// free compared to materializing `transposed()` copies — the Linear and
/// conv2d backward passes rely on this.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out, Trans trans_a,
                 Trans trans_b, bool accumulate = false);

/// C (+)= A · B (both operands taken as stored).
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                 bool accumulate = false);

/// Applies `out[b,c] = lhs · in[b,c] · rhs` over every (batch, channel)
/// plane of a rank-4 tensor with dense operators. `out` must be preshaped
/// to [B, C, lhs.rows, rhs.cols].
///
/// This is Eq. 4/6 as the paper writes them, one framework-level matmul
/// pair per plane (the graph builders issue the same pair as matmul
/// nodes), and the reference the block chop kernel (chop_kernel.hpp) is
/// tested against. Parallel over planes; each plane is two gemm calls.
/// The mid-product scratch is owned by the calling thread and reused
/// across calls: one aligned slab per pool worker plus one for the
/// caller, sized before any work item is submitted.
void sandwich_planes_into(const Tensor& lhs, const Tensor& in,
                          const Tensor& rhs, Tensor& out);

/// Number of times any caller's sandwich or chop-kernel scratch buffer
/// has grown since process start. The first call of a shape sizes a slab
/// for every worker of the pool, so the count stays constant across
/// repeated calls of the same shapes from the same thread — the steady
/// state allocates nothing.
std::uint64_t sandwich_scratch_reallocs() noexcept;

/// Floating-point-operation count of `matmul(a, b)` (2·m·n·k).
std::size_t matmul_flops(const Tensor& a, const Tensor& b);

}  // namespace aic::tensor
