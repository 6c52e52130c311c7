// Golden output of the DCT+Chop executor: every packed coefficient and
// every reconstruction over a grid of chop factors, transforms and shapes
// folds into one CRC32C per kernel backend. The constants were recorded
// from the banded sandwich executor this kernel replaced, so any change
// to the per-element accumulation order (and with it the archive bytes)
// shows up here, on each backend separately.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/dct_chop.hpp"
#include "io/checksum.hpp"
#include "runtime/cpu_features.hpp"
#include "runtime/rng.hpp"

namespace aic::core {
namespace {

using runtime::KernelBackend;
using tensor::Shape;
using tensor::Tensor;

// IEEE single-precision results of the recorded runs on x86-64: one
// ascending multiply-then-add chain per element (scalar) or one fused
// chain (AVX2+FMA).
constexpr std::uint32_t kScalarCrc = 0x490db990u;
constexpr std::uint32_t kAvx2Crc = 0x6aa6cd12u;

std::uint32_t fold(std::uint32_t crc, const Tensor& t) {
  return io::crc32c(t.raw(), t.size_bytes(), crc);
}

std::uint32_t round_trip(std::uint32_t crc, std::size_t h, std::size_t w,
                         std::size_t cf, std::size_t block,
                         TransformKind transform, std::uint64_t seed) {
  runtime::Rng rng(seed);
  const Tensor input =
      Tensor::uniform(Shape::bchw(2, 3, h, w), rng, -1.0f, 1.0f);
  const DctChopCodec codec({.height = h,
                            .width = w,
                            .cf = cf,
                            .block = block,
                            .transform = transform});
  const Tensor packed = codec.compress(input);
  const Tensor restored = codec.decompress(packed, input.shape());
  return fold(fold(crc, packed), restored);
}

// CF 1-8 x {DCT-II, WHT, DST-II} x {64x64, 64x96} at block 8, plus one
// block-4 case with a rectangular plane.
std::uint32_t golden_crc() {
  std::uint32_t crc = 0;
  std::uint64_t seed = 100;
  for (const TransformKind transform :
       {TransformKind::kDct2, TransformKind::kWalshHadamard,
        TransformKind::kDst2}) {
    for (std::size_t cf = 1; cf <= 8; ++cf) {
      crc = round_trip(crc, 64, 64, cf, 8, transform, ++seed);
      crc = round_trip(crc, 64, 96, cf, 8, transform, ++seed);
    }
  }
  return round_trip(crc, 32, 48, 3, 4, TransformKind::kDct2, ++seed);
}

void expect_golden(KernelBackend backend) {
  const std::uint32_t crc = golden_crc();
  const std::uint32_t expected =
      backend == KernelBackend::kAvx2 ? kAvx2Crc : kScalarCrc;
  EXPECT_EQ(crc, expected) << runtime::kernel_backend_name(backend)
                           << " crc 0x" << std::hex << crc;
}

#if defined(__x86_64__)

// Whatever backend the process runs (AIC_FORCE_SCALAR=1 pins scalar).
TEST(ChopGolden, ActiveBackendMatchesRecordedCrc) {
  expect_golden(runtime::kernel_backend());
}

TEST(ChopGolden, ScalarBackendMatchesRecordedCrc) {
  const KernelBackend saved = runtime::kernel_backend();
  runtime::set_kernel_backend(KernelBackend::kScalar);
  expect_golden(KernelBackend::kScalar);
  runtime::set_kernel_backend(saved);
}

#endif  // The constants are x86-64 results; other ISAs may contract.

}  // namespace
}  // namespace aic::core
