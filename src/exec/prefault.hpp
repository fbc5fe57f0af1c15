// First-touch prefaulting of job inputs (NUMA mode's placement tool).
//
// Linux places an anonymous page on the socket of the CPU that first
// *writes* it. The pool's NUMA mode therefore wants each input extent
// touched by the lane that will process it — numa::plan_prefault computes
// the extents, and this module executes the plan as a *no-steal* pool job
// (chunks == lanes, stealing off), so extent i really is walked on lane i
// and, with pinning, on lane i's socket.
//
// Honesty about what a read-through achieves: inputs handed to a job are
// typically already written by the caller, so their pages already live
// wherever the writing thread ran — walking them from the owning lane
// then warms that socket's caches and TLBs, it does not migrate pages.
// True first-touch applies only to memory whose pages are still unmapped
// when the plan runs. The plan itself (which lane touches which extent, on
// which socket) is pure data and is what tests/numa_test.cpp asserts.
//
// Determinism: touching memory computes nothing — PRS_NUMA on/off and any
// topology produce byte-identical job results (swept in tests).
#pragma once

#include <cstddef>

namespace prs::exec {

/// Walks [data, data + bytes) page-by-page from the lanes assigned by
/// numa::plan_prefault, via a no-steal pool job. Volatile reads only —
/// safe on const inputs, never alters contents. No-op when NUMA mode is
/// off, when `bytes == 0`, or when called inside a parallel region.
void prefault_first_touch(const void* data, std::size_t bytes);

}  // namespace prs::exec
