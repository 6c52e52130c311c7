#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace aic::tensor {

/// The CPU executor of the chop transform (Eq. 4/6). Every chop operator
/// is blockdiag(D), D the cf × block chop of the block transform, so each
/// block tile maps as Y_blk = D·A_blk·Dᵀ and back as A'_blk = Dᵀ·Y_blk·D.
/// The kernel applies D directly, parallel over (plane × block-row strip)
/// items; its per-worker scratch is caller-owned and counted by
/// sandwich_scratch_reallocs(), so repeated calls of a shape allocate
/// nothing.
///
/// Each output element is one ascending chain from +0 — FMAs on the AVX2
/// backend, multiply-then-add on the scalar one — the per-element order
/// of sandwich_planes_into with LHS = blockdiag(D), RHS = LHSᵀ, so the
/// two agree bitwise per backend on finite input. D's zero entries are
/// skipped, so a non-finite input stays inside its own block, where the
/// dense product spreads it along the rows and columns it touches.

/// out[b,c] = blockdiag(D) · in[b,c] · blockdiag(D)ᵀ. `in` is
/// [B, C, h, w] with h and w multiples of block; `out` must be preshaped
/// to [B, C, cf·h/block, cf·w/block]. Throws std::invalid_argument on a
/// shape or dtype mismatch.
void chop_forward_into(const Tensor& d, const Tensor& in, Tensor& out);

/// out[b,c] = blockdiag(D)ᵀ · packed[b,c] · blockdiag(D), the inverse of
/// chop_forward_into: `packed` is [B, C, cf·h/block, cf·w/block] and
/// `out` must be preshaped to [B, C, h, w].
void chop_inverse_into(const Tensor& d, const Tensor& packed, Tensor& out);

/// Mid-product scratch, in bytes, that one worker of either call holds
/// for planes `width` wide: cf·block floats per block of one tile, plus
/// a few floats of slack.
std::size_t chop_scratch_bytes(std::size_t cf, std::size_t block,
                               std::size_t width);

}  // namespace aic::tensor
