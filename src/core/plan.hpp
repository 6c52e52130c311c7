#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/transforms.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace aic::core {

/// Codec families addressable through the plan cache and the factory.
enum class CodecKind : std::uint8_t {
  kDctChop = 0,
  kPartialSerial = 1,
  kTriangle = 2,
  kZfp = 3,
  kSz = 4,
  kJpeg = 5,
  kColorQuant = 6,
};

const char* codec_kind_name(CodecKind kind);

/// Identity of one compiled plan: everything the paper's "compile time"
/// step depends on (§3.1). Two resolutions with the same key share one
/// plan; anything that changes an operand changes the key.
struct PlanKey {
  CodecKind kind = CodecKind::kDctChop;
  TransformKind transform = TransformKind::kDct2;
  std::uint32_t block = 0;
  std::uint32_t cf = 0;
  /// Partial-serialization factor s (1 when not applicable).
  std::uint32_t subdivision = 1;
  std::uint64_t height = 0;
  std::uint64_t width = 0;
  /// Fixed-point codec parameter for the baseline comparators (zfp rate,
  /// sz error bound, jpeg quality — scaled by 1000 so the key stays
  /// integral and hashable without float equality).
  std::uint64_t param_milli = 0;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
  std::string to_string() const;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const noexcept;
};

/// An immutable compiled artifact: operands, index tables, the block
/// operator D and an exact byte plan for one (codec kind, shape) pair. Plans are
/// built once, shared via shared_ptr through the PlanCache, and executed
/// by stateless `*_into` methods — executing a plan never mutates it and
/// never constructs an operand.
class CodecPlan {
 public:
  explicit CodecPlan(const PlanKey& key) : key_(key) {}
  virtual ~CodecPlan() = default;
  CodecPlan(const CodecPlan&) = delete;
  CodecPlan& operator=(const CodecPlan&) = delete;

  const PlanKey& key() const noexcept { return key_; }

  /// Bytes held resident by the plan (operands + index tables). This is
  /// the unit the PlanCache's LRU byte budget accounts in.
  virtual std::size_t resident_bytes() const = 0;

  /// Exact executor working set beyond the input and output buffers for
  /// one batch×channels call: per-worker sandwich scratch plus any
  /// staging tensors the executor allocates. This is the quantity accel
  /// memory-capacity checks must add to activation bytes.
  virtual std::size_t workspace_bytes(std::size_t batch,
                                      std::size_t channels) const = 0;

 private:
  PlanKey key_;
};

/// One (LHS, RHS) operand pair for dimension n. Eq. 4/6 give RHS = LHSᵀ,
/// so the pair is built from a single make_lhs() product; the transpose
/// is a cheap copy, and square plans share one pair for both axes.
struct ChopOperand {
  std::shared_ptr<const tensor::Tensor> lhs;  // (CF·n/block) × n
  std::shared_ptr<const tensor::Tensor> rhs;  // n × (CF·n/block), = lhsᵀ
};

/// Compiled plan for the paper's two-matmul codec (§3.2–3.4): the dense
/// operands for both axes (Eq. 4/6 as written; the graph builders and the
/// accelerator simulators consume them) and the block operator D they are
/// built from, which the CPU executors run through the block chop kernel.
class DctChopPlan final : public CodecPlan {
 public:
  explicit DctChopPlan(const PlanKey& key);

  // Operand views in the roles of Eq. 4 (compress) and Eq. 6 (decompress).
  const tensor::Tensor& lhs_h() const { return *op_h_.lhs; }
  const tensor::Tensor& rhs_w() const { return *op_w_.rhs; }
  const tensor::Tensor& rhs_h() const { return *op_h_.rhs; }
  const tensor::Tensor& lhs_w() const { return *op_w_.lhs; }
  /// True when H == W and both axes share one operand pair's storage.
  bool shares_square_operands() const {
    return op_h_.lhs.get() == op_w_.lhs.get();
  }

  tensor::Shape packed_shape(const tensor::Shape& input) const;

  /// Eq. 4: out[b,c] = LHS_H · in[b,c] · RHS_W, i.e. D·A_blk·Dᵀ for every
  /// block. `out` must be preshaped.
  void compress_into(const tensor::Tensor& input, tensor::Tensor& out) const;
  /// Eq. 6: out[b,c] = RHS_H · packed[b,c] · LHS_W, i.e. Dᵀ·Y_blk·D.
  void decompress_into(const tensor::Tensor& packed,
                       tensor::Tensor& out) const;

  std::size_t resident_bytes() const override;
  std::size_t workspace_bytes(std::size_t batch,
                              std::size_t channels) const override;

 private:
  ChopOperand op_h_;  // operands for the height axis
  ChopOperand op_w_;  // aliases op_h_ when the plan is square
  tensor::Tensor d_;  // cf × block, the first block of LHS
};

/// Compiled plan for partial serialization (§3.5.1): geometry of the s×s
/// chunk grid plus the shared chunk-resolution DctChopPlan. The chunk
/// plan is resolved through the PlanCache, so a 2× subdivided 32×32 plan
/// and a plain 16×16 plan share the same operand storage.
class PartialSerialPlan final : public CodecPlan {
 public:
  PartialSerialPlan(const PlanKey& key,
                    std::shared_ptr<const DctChopPlan> chunk_plan);

  const DctChopPlan& chunk_plan() const { return *chunk_plan_; }
  std::shared_ptr<const DctChopPlan> chunk_plan_ptr() const {
    return chunk_plan_;
  }
  std::size_t chunk_h() const { return chunk_h_; }
  std::size_t chunk_w() const { return chunk_w_; }

  tensor::Shape packed_shape(const tensor::Shape& input) const;

  std::size_t resident_bytes() const override;
  std::size_t workspace_bytes(std::size_t batch,
                              std::size_t channels) const override;

 private:
  std::shared_ptr<const DctChopPlan> chunk_plan_;
  std::size_t chunk_h_ = 0;
  std::size_t chunk_w_ = 0;
};

/// Compiled plan for the scatter/gather triangle variant (§3.5.2): the
/// inner chop plan plus the compile-time gather index table.
class TrianglePlan final : public CodecPlan {
 public:
  TrianglePlan(const PlanKey& key,
               std::shared_ptr<const DctChopPlan> inner_plan);

  const DctChopPlan& inner_plan() const { return *inner_plan_; }
  std::shared_ptr<const DctChopPlan> inner_plan_ptr() const {
    return inner_plan_;
  }
  std::size_t values_per_block() const { return per_block_; }
  std::size_t blocks_per_plane() const { return blocks_; }
  const std::vector<std::size_t>& plane_indices() const { return indices_; }

  tensor::Shape packed_shape(const tensor::Shape& input) const;

  /// Inner chop (Eq. 4) followed by the compile-time gather.
  void compress_into(const tensor::Tensor& input, tensor::Tensor& out) const;
  /// Scatter back into the chopped layout, then inner Eq. 6.
  void decompress_into(const tensor::Tensor& packed,
                       tensor::Tensor& out) const;

  std::size_t resident_bytes() const override;
  std::size_t workspace_bytes(std::size_t batch,
                              std::size_t channels) const override;

 private:
  std::shared_ptr<const DctChopPlan> inner_plan_;
  std::size_t per_block_ = 0;
  std::size_t blocks_ = 0;
  std::size_t chopped_h_ = 0;
  std::size_t chopped_w_ = 0;
  std::vector<std::size_t> indices_;
};

/// Key constructors. Each validates the geometry the way the original
/// codec constructors did and throws std::invalid_argument on misuse.
PlanKey dct_chop_plan_key(std::size_t height, std::size_t width,
                          std::size_t cf, std::size_t block,
                          TransformKind transform);
PlanKey partial_serial_plan_key(std::size_t height, std::size_t width,
                                std::size_t cf, std::size_t block,
                                TransformKind transform,
                                std::size_t subdivision);
PlanKey triangle_plan_key(std::size_t height, std::size_t width,
                          std::size_t cf, std::size_t block,
                          TransformKind transform);

class PlanCache;

/// Builds the plan for a core codec key (kDctChop / kPartialSerial /
/// kTriangle), resolving nested chunk/inner plans through `cache` — the
/// cache that requested the build, so composites stay within one
/// context's budget. Baseline kinds must supply their own builder.
std::shared_ptr<const CodecPlan> build_core_plan(const PlanKey& key,
                                                 PlanCache& cache);

}  // namespace aic::core
