#include "workload/trace.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hpp"
#include "workload/demand.hpp"

namespace hbmvolt::workload {

void AccessTrace::append(bool write, std::uint64_t beat) {
  HBMVOLT_REQUIRE(beat <= 0xFFFFFFFFull, "trace beat exceeds 32 bits");
  records_.push_back({write, static_cast<std::uint32_t>(beat)});
}

void AccessTrace::wrap_beats(std::uint64_t capacity) {
  HBMVOLT_REQUIRE(capacity > 0, "cannot wrap a trace to zero beats");
  for (TraceRecord& record : records_) {
    if (record.beat >= capacity) {
      record.beat = static_cast<std::uint32_t>(record.beat % capacity);
    }
  }
}

std::string AccessTrace::to_text() const {
  std::string out;
  out.reserve(records_.size() * 12);
  for (const auto& record : records_) {
    out += record.write ? 'W' : 'R';
    out += ' ';
    out += std::to_string(record.beat);
    out += '\n';
  }
  return out;
}

Result<AccessTrace> AccessTrace::from_text(std::string_view text) {
  AccessTrace trace;
  std::size_t line_number = 0;
  std::size_t position = 0;
  while (position < text.size()) {
    std::size_t end = text.find('\n', position);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(position, end - position);
    position = end + 1;
    ++line_number;

    if (line.size() > kMaxLineLength) {
      return invalid_argument(
          "trace line " + std::to_string(line_number) + ": overlong line (" +
          std::to_string(line.size()) + " chars, max " +
          std::to_string(kMaxLineLength) + ")");
    }

    // Trim and skip blanks/comments.
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') continue;

    if (line.size() < 3 || (line[0] != 'R' && line[0] != 'W') ||
        line[1] != ' ') {
      return invalid_argument("trace line " + std::to_string(line_number) +
                              ": expected 'R <beat>' or 'W <beat>'");
    }
    std::uint64_t beat = 0;
    std::size_t i = 2;
    while (i < line.size() && line[i] == ' ') ++i;  // "R  5" is fine
    const std::size_t digits_start = i;
    for (; i < line.size(); ++i) {
      const char c = line[i];
      if (c < '0' || c > '9') break;
      beat = beat * 10 + static_cast<std::uint64_t>(c - '0');
      if (beat > 0xFFFFFFFFull) {
        return invalid_argument("trace line " + std::to_string(line_number) +
                                ": beat does not fit in 32 bits");
      }
    }
    if (i == digits_start) {
      return invalid_argument("trace line " + std::to_string(line_number) +
                              ": bad beat number");
    }
    // Anything after the beat is a malformed record, not padding: the old
    // parser silently dropped it, turning "R 5 W 6" into "R 5".
    if (i < line.size()) {
      const bool duplicate_direction =
          line[i] == ' ' &&
          line.find_first_not_of(' ', i) != std::string_view::npos &&
          (line[line.find_first_not_of(' ', i)] == 'R' ||
           line[line.find_first_not_of(' ', i)] == 'W');
      return invalid_argument(
          "trace line " + std::to_string(line_number) +
          (duplicate_direction ? ": duplicate direction token after beat"
                               : ": trailing garbage after beat"));
    }
    trace.append(line[0] == 'W', beat);
  }
  return trace;
}

AccessTrace make_streaming(std::uint64_t beats, unsigned passes) {
  const DemandStream sweep = DemandStream::sweep(beats, passes);
  AccessTrace trace;
  trace.reserve(sweep.size());
  for (std::uint64_t k = 0; k < sweep.size();) {
    const DemandRun run = sweep.run(k, sweep.size() - k);
    for (std::uint64_t i = 0; i < run.count; ++i) {
      trace.append(run.write, run.beat + i);
    }
    k += run.count;
  }
  return trace;
}

AccessTrace make_uniform_random(std::uint64_t beats, std::uint64_t accesses,
                                double write_fraction, std::uint64_t seed) {
  AccessTrace trace;
  Xoshiro256 rng(seed);
  for (std::uint64_t i = 0; i < accesses; ++i) {
    trace.append(rng.bernoulli(write_fraction), rng.bounded(beats));
  }
  return trace;
}

AccessTrace make_hot_set(std::uint64_t beats, std::uint64_t accesses,
                         double hot_fraction, double hot_access_fraction,
                         std::uint64_t seed) {
  HBMVOLT_REQUIRE(hot_fraction > 0.0 && hot_fraction <= 1.0,
                  "hot fraction must be in (0,1]");
  AccessTrace trace;
  Xoshiro256 rng(seed);
  const auto hot_beats = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(hot_fraction *
                                    static_cast<double>(beats)));
  // The hot set starts at a seeded offset, wrapping around.
  const std::uint64_t hot_base = rng.bounded(beats);
  for (std::uint64_t i = 0; i < accesses; ++i) {
    std::uint64_t beat;
    if (rng.bernoulli(hot_access_fraction)) {
      beat = (hot_base + rng.bounded(hot_beats)) % beats;
    } else {
      beat = rng.bounded(beats);
    }
    trace.append(rng.bernoulli(0.3), beat);
  }
  return trace;
}

AccessTrace make_strided(std::uint64_t beats, std::uint64_t accesses,
                         std::uint64_t stride) {
  HBMVOLT_REQUIRE(stride > 0, "stride must be positive");
  AccessTrace trace;
  // First touch of each position writes (initialization), revisits read.
  std::vector<bool> seen(beats, false);
  std::uint64_t beat = 0;
  for (std::uint64_t i = 0; i < accesses; ++i) {
    trace.append(!seen[beat], beat);
    seen[beat] = true;
    beat = (beat + stride) % beats;
  }
  return trace;
}

AccessTrace make_zipfian(std::uint64_t beats, std::uint64_t accesses,
                         double theta, double write_fraction,
                         std::uint64_t seed) {
  HBMVOLT_REQUIRE(beats > 0, "zipfian footprint must be non-empty");
  HBMVOLT_REQUIRE(theta >= 0.0, "zipfian exponent must be non-negative");
  AccessTrace trace;
  Xoshiro256 rng(seed);

  // Inverse-CDF sampling over the rank distribution: cumulative 1/r^theta
  // weights, binary-searched per access.  Footprints here are PC-sized
  // (thousands of beats), so the O(beats) table is cheap and exact.
  std::vector<double> cumulative(beats);
  double total = 0.0;
  for (std::uint64_t r = 0; r < beats; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cumulative[r] = total;
  }

  // Seeded rank -> beat shuffle so rank 0 is not always beat 0.
  std::vector<std::uint32_t> rank_to_beat(beats);
  for (std::uint64_t b = 0; b < beats; ++b) {
    rank_to_beat[b] = static_cast<std::uint32_t>(b);
  }
  for (std::uint64_t b = beats; b > 1; --b) {
    std::swap(rank_to_beat[b - 1], rank_to_beat[rng.bounded(b)]);
  }

  std::vector<bool> touched(beats, false);
  for (std::uint64_t i = 0; i < accesses; ++i) {
    const double u = rng.uniform() * total;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), u);
    const std::uint64_t rank =
        static_cast<std::uint64_t>(it - cumulative.begin());
    const std::uint32_t beat = rank_to_beat[rank < beats ? rank : beats - 1];
    const bool write = !touched[beat] || rng.bernoulli(write_fraction);
    touched[beat] = true;
    trace.append(write, beat);
  }
  return trace;
}

AccessTrace make_pointer_chase(std::uint64_t beats, std::uint64_t accesses,
                               std::uint64_t seed) {
  HBMVOLT_REQUIRE(beats > 0, "pointer-chase footprint must be non-empty");
  AccessTrace trace;
  Xoshiro256 rng(seed);

  // One random cycle over the footprint (Sattolo's algorithm): next[b] is
  // the beat the chase visits after b, and every beat is on the cycle.
  std::vector<std::uint32_t> next(beats);
  for (std::uint64_t b = 0; b < beats; ++b) {
    next[b] = static_cast<std::uint32_t>(b);
  }
  for (std::uint64_t b = beats - 1; b > 0; --b) {
    std::swap(next[b], next[rng.bounded(b)]);
  }

  // Write pass stores the "pointers", then the chase reads them back in
  // dependence order.
  std::uint64_t emitted = 0;
  for (std::uint64_t b = 0; b < beats && emitted < accesses; ++b, ++emitted) {
    trace.append(true, b);
  }
  std::uint32_t cursor = 0;
  for (; emitted < accesses; ++emitted) {
    trace.append(false, cursor);
    cursor = next[cursor];
  }
  return trace;
}

Result<ExposureResult> replay_exposure(hbm::HbmStack& stack,
                                       unsigned pc_local,
                                       const AccessTrace& trace,
                                       std::uint64_t data_seed) {
  const std::uint64_t beats = stack.geometry().beats_per_pc();
  ExposureResult result;

  // Written-data journal (beat -> generation), so reads verify against
  // what the workload last stored there.
  std::unordered_map<std::uint32_t, std::uint64_t> generation;
  std::unordered_set<std::uint64_t> stuck_touched;
  std::unordered_set<std::uint32_t> footprint;

  const auto data_for = [&](std::uint32_t beat, std::uint64_t gen) {
    hbm::Beat data;
    for (unsigned w = 0; w < 4; ++w) {
      data[w] = splitmix64(data_seed ^ (static_cast<std::uint64_t>(beat) *
                                            4 + w) ^ (gen << 40));
    }
    return data;
  };

  for (const auto& record : trace) {
    if (record.beat >= beats) {
      return out_of_range("trace beat beyond PC capacity");
    }
    footprint.insert(record.beat);
    ++result.accesses;
    if (record.write) {
      const std::uint64_t gen = ++generation[record.beat];
      HBMVOLT_RETURN_IF_ERROR(
          stack.write_beat(pc_local, record.beat, data_for(record.beat, gen)));
      ++result.writes;
    } else {
      auto data = stack.read_beat(pc_local, record.beat);
      if (!data.is_ok()) return data.status();
      ++result.reads;
      const auto it = generation.find(record.beat);
      if (it == generation.end()) continue;  // never written: skip check
      const hbm::Beat expected = data_for(record.beat, it->second);
      bool corrupted = false;
      for (unsigned w = 0; w < 4; ++w) {
        std::uint64_t diff = data.value()[w] ^ expected[w];
        if (diff == 0) continue;
        corrupted = true;
        result.flipped_bits +=
            static_cast<unsigned>(__builtin_popcountll(diff));
        while (diff != 0) {
          const int bit = __builtin_ctzll(diff);
          diff &= diff - 1;
          stuck_touched.insert(static_cast<std::uint64_t>(record.beat) * 256 +
                               w * 64 + static_cast<unsigned>(bit));
        }
      }
      result.corrupted_reads += corrupted ? 1 : 0;
    }
  }
  result.distinct_stuck_cells_touched = stuck_touched.size();
  result.footprint_beats = footprint.size();
  return result;
}

}  // namespace hbmvolt::workload
