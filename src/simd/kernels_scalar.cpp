// Scalar kernel table: every entry points at the reference
// implementation, so PRS_SIMD=scalar runs exactly the arithmetic of the
// pre-simd code paths.
#include "simd/kernels.hpp"
#include "simd/scalar_ref.hpp"

namespace prs::simd {

const Kernels& scalar_kernels() {
  static const Kernels table = {
      ref::dist2_block, ref::quad_block,  ref::axpy_acc,
      ref::add_acc,     ref::moments_acc, ref::row_dots,
      ref::stencil_row, ref::gemm_block,  ref::fnv_bytes,
  };
  return table;
}

}  // namespace prs::simd
