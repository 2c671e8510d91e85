// Run-emitting demand streams: a workload as (beat, count, direction) runs
// instead of stored records.
//
// The paper's AXI traffic generators compute Algorithm 1's addresses in
// hardware; they replay nothing.  A streaming sweep is the same kind of
// arithmetic -- record k touches beat k mod F and writes iff k < F -- so
// a sweep stream stores two integers and answers every run query in O(1),
// whatever its length.  Every other shape (uniform, zipfian, pointer
// chase, a parsed trace file) is trace-backed and answers the same query
// by coalescing its stored records.  Both are one type behind one call,
// and the record index is the stream position, so a consumer's cursor and
// checkpoint count records either way.

#pragma once

#include <cstdint>

#include "workload/trace.hpp"

namespace hbmvolt::workload {

/// `count` records touching beats [beat, beat + count) in one direction.
struct DemandRun {
  std::uint64_t beat = 0;
  std::uint64_t count = 0;
  bool write = false;
};

class DemandStream {
 public:
  /// `passes` sweeps over [0, footprint): record k touches beat
  /// k mod footprint and writes iff k < footprint.  Stores no records.
  [[nodiscard]] static DemandStream sweep(std::uint64_t footprint,
                                          std::uint64_t passes);
  /// Replays `trace` in record order.
  [[nodiscard]] static DemandStream replay(AccessTrace trace);

  /// Records in the stream.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// The maximal raw run starting at `record` (< size()): the records from
  /// there on that touch consecutive beats in one direction, at most
  /// `limit` (>= 1) of them.  O(1) for a sweep, O(count) for a trace.
  [[nodiscard]] DemandRun run(std::uint64_t record,
                              std::uint64_t limit) const;

 private:
  AccessTrace trace_;            // replayed records (empty for a sweep)
  std::uint64_t footprint_ = 0;  // sweep footprint; 0 = trace-backed
  std::uint64_t size_ = 0;
};

}  // namespace hbmvolt::workload
