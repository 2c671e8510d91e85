#include "workload/demand.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace hbmvolt::workload {

DemandStream DemandStream::sweep(std::uint64_t footprint,
                                 std::uint64_t passes) {
  HBMVOLT_REQUIRE(
      footprint == 0 ||
          passes <= std::numeric_limits<std::uint64_t>::max() / footprint,
      "sweep length overflows 64 bits");
  DemandStream stream;
  stream.footprint_ = footprint;
  stream.size_ = footprint * passes;
  return stream;
}

DemandStream DemandStream::replay(AccessTrace trace) {
  DemandStream stream;
  stream.size_ = trace.size();
  stream.trace_ = std::move(trace);
  return stream;
}

DemandRun DemandStream::run(std::uint64_t record, std::uint64_t limit) const {
  limit = std::min(limit, size_ - record);
  if (footprint_ > 0) {
    // A pass ends at the footprint's last beat; the next one restarts at
    // beat 0, so no run crosses a pass boundary.
    const std::uint64_t beat = record % footprint_;
    return {beat, std::min(limit, footprint_ - beat), record < footprint_};
  }
  const TraceRecord& first = trace_[record];
  std::uint64_t count = 1;
  while (count < limit) {
    const TraceRecord& next = trace_[record + count];
    if (next.write != first.write || next.beat != first.beat + count) break;
    ++count;
  }
  return {first.beat, count, first.write};
}

}  // namespace hbmvolt::workload
