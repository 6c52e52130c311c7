#pragma once

// Internal to aic_tensor: backend dispatch, AVX2 tail masks and the
// per-worker mid-product scratch the gemm and block chop kernels share.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define AIC_TENSOR_X86 1
#else
#define AIC_TENSOR_X86 0
#endif

#include "runtime/aligned_buffer.hpp"
#include "runtime/context.hpp"
#include "runtime/cpu_features.hpp"
#include "runtime/thread_pool.hpp"

namespace aic::tensor::detail {

inline bool avx2_active() noexcept {
  return AIC_TENSOR_X86 &&
         runtime::kernel_backend() == runtime::KernelBackend::kAvx2;
}

#if AIC_TENSOR_X86
// -1 lane mask prefix: tail_mask(l) enables the first l of 8 lanes.
alignas(32) inline const std::int32_t kMaskSrc[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};

__attribute__((target("avx2,fma"))) inline __m256i tail_mask(
    std::size_t lanes) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskSrc + 8 - lanes));
}
#endif

/// Growth events of any caller's scratch buffer (sandwich_scratch_reallocs).
inline std::atomic<std::uint64_t> g_scratch_reallocs{0};

/// Scratch owned by the call that fans out, not by whichever pool worker
/// runs a chunk: before submitting, the caller sizes pool.size() + 1 slabs
/// (the last for its own inline run) and each chunk takes slab
/// pool.worker_index(), so the first call of a shape sizes every slab a
/// later call can touch.
class MidScratch {
 public:
  // Holding the pool pins the one parallel_for_chunks resolves on this
  // thread (a process-pool swap is rejected while it is held), so the
  // slab count and the workers that run the chunks are the same pool's.
  explicit MidScratch(std::size_t count)
      : pool_(runtime::current_pool()),
        stride_((count + kLineFloats - 1) / kLineFloats * kLineFloats +
                kGuardFloats) {
    thread_local runtime::AlignedBuffer<float> buffer;
    const std::size_t floats = (pool_->size() + 1) * stride_;
    if (buffer.size() < floats) {
      buffer = runtime::AlignedBuffer<float>(floats);
      g_scratch_reallocs.fetch_add(1, std::memory_order_relaxed);
    }
    base_ = buffer.data();
  }

  // The slab of the thread running the current chunk.
  float* slab() const noexcept {
    return base_ + pool_->worker_index() * stride_;
  }

 private:
  // Slabs start on their own cache line and are a page apart, so the
  // prefetcher of one worker's sweep does not pull the next worker's
  // lines (adjacent slabs cost ~10% of a 2-worker transform, 4-vCPU AMD
  // EPYC).
  static constexpr std::size_t kLineFloats = 64 / sizeof(float);
  static constexpr std::size_t kGuardFloats = 4096 / sizeof(float);

  const std::shared_ptr<runtime::ThreadPool> pool_;
  const std::size_t stride_;
  float* base_ = nullptr;
};

}  // namespace aic::tensor::detail
