// Scalar kernel table: every entry (including the fma-tier ones) points
// at the reference implementation, so PRS_SIMD=scalar runs exactly the
// arithmetic of the pre-simd code paths and PRS_SIMD_FMA is a no-op at
// this level.
#include "simd/kernels.hpp"
#include "simd/scalar_ref.hpp"

namespace prs::simd {

const Kernels& scalar_kernels() {
  static const Kernels table = {
      ref::dist2_block, ref::quad_block,  ref::axpy_acc,
      ref::add_acc,     ref::moments_acc, ref::row_dots,
      ref::stencil_row, ref::gemm_block,
      // fma tier: deterministic references at the scalar level.
      ref::dot,         ref::nrm2,
  };
  return table;
}

}  // namespace prs::simd
