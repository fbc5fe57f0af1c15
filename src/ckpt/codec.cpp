#include "ckpt/codec.hpp"

#include "simd/kernels.hpp"

namespace prs::ckpt {

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  return simd::active_kernels().fnv_span(
      reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(),
      seed);
}

}  // namespace prs::ckpt
