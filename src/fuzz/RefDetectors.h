//===-- fuzz/RefDetectors.h - Reference race detectors ----------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Independent single-threaded reimplementations of the Eraser lockset
/// algorithm and the vector-clock happens-before algorithm, replayed
/// directly over an interpreter schedule trace. The differential oracle
/// compares the production detectors (driven by the same kind of loop
/// over the same trace) against these: any divergence on the
/// racy-granule set is a bug in one side.
///
/// This is deliberately a *production-vs-reference* comparison, not a
/// naive "Eraser must report everything vector clocks report": Eraser
/// has inherent, algorithmic false negatives (a cell written once and
/// then read by another thread stays in the read-Shared state; the
/// candidate lockset is initialized, not intersected, at the
/// Exclusive->Shared transition), so cross-algorithm set inclusion does
/// not hold even for correct implementations. The cross-algorithm gap
/// is still computed and reported as a diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_FUZZ_REFDETECTORS_H
#define SHARC_FUZZ_REFDETECTORS_H

#include "interp/Interp.h"

#include <cstdint>
#include <vector>

namespace sharc {
namespace fuzz {

/// Racy cells (interpreter cell addresses / spawn tokens) each reference
/// algorithm reports for a trace, sorted ascending.
struct RefRaceResult {
  std::vector<uint64_t> EraserRacy;
  std::vector<uint64_t> HbRacy;
};

/// Replays \p Trace through both reference algorithms.
RefRaceResult referenceRaces(const std::vector<interp::TraceEvent> &Trace);

} // namespace fuzz
} // namespace sharc

#endif // SHARC_FUZZ_REFDETECTORS_H
