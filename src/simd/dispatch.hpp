// Runtime ISA dispatch for the prs::simd kernel layer.
//
// Three implementation tiers of the hot inner kernels are compiled into
// every binary: a scalar reference, AVX2 and AVX-512 (each in its own TU
// with the matching -m flags). Which tier runs is decided at runtime:
//
//   programmatic override (set_level / --simd)
//     > PRS_SIMD environment variable (scalar | avx2 | avx512 | auto)
//       > CPUID detection (best level this build AND this CPU support)
//
// Requesting a level the CPU (or the compiler that built this binary)
// cannot execute is an error, never a silent fallback — a mis-set
// PRS_SIMD on a heterogeneous fleet should fail loudly.
//
// Determinism contract (DESIGN.md §4j): every kernel produces
// bit-identical results at all three levels — the vector forms keep the
// scalar accumulation order per output element and are compiled with
// -ffp-contract=off.
#pragma once

#include <string>

namespace prs::simd {

/// ISA tiers, ordered: a CPU supporting level L supports every L' < L.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,    // AVX2
  kAvx512 = 2,  // AVX-512 F+DQ+BW
};

/// "scalar" | "avx2" | "avx512".
const char* level_name(Level level);

/// Best level this build and this CPU both support (CPUID, cached).
Level detected_level();

/// True when `level` can execute here: compiled in AND CPU-supported.
bool level_supported(Level level);

/// Parses "scalar" | "avx2" | "avx512" | "auto" ("auto" resolves to
/// detected_level()). Throws prs::InvalidArgument on unknown names.
Level parse_level(const std::string& name);

/// The level kernels dispatch to right now (override > env > detected).
/// Throws prs::InvalidArgument the first time it runs if PRS_SIMD names
/// an unknown or unsupported level.
Level active_level();

/// Forces a level; throws prs::InvalidArgument when unsupported here.
/// The string overload accepts "auto" to clear the override. Not
/// thread-safe against concurrently running kernels — set it up front
/// (CLI parse time, test SetUp), as prs_run and the tests do.
void set_level(Level level);
void set_level(const std::string& name);
void clear_level_override();

/// Wall-clock micro-benchmark of the active level against the scalar
/// reference on the distance / row-update kernels. Returns the speedup
/// ratio clamped to [1, 16] (1.0 when the active level IS scalar). Feeds
/// Eq (8) through JobConfig::host_simd_scale (--simd-calibrate).
double measure_host_speedup();

// Build probes, defined in the per-ISA kernel TUs: whether that TU was
// actually compiled with its vector instruction set (false when the
// compiler lacked the flags — the table then falls back to scalar).
bool avx2_compiled();
bool avx512_compiled();

}  // namespace prs::simd
