#include "runtime/reliable_channel.hpp"

#include <algorithm>
#include <numeric>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::runtime {
namespace {

/// RAII per-op latency probe for the public serve entry points.  With no
/// active Telemetry instance the whole object is one relaxed load and a
/// branch (no clock reads); otherwise it times the call through the
/// instance's Clock seam (ManualClock in tests) and folds `ops` samples
/// of duration/ops into the channel-local histogram -- merged into the
/// shared latency.* families only at flush_telemetry() sync points, so
/// recording never perturbs the parallel soak's fingerprint.
class OpTimer {
 public:
  OpTimer(telemetry::HdrHistogram& sink, std::uint64_t ops) noexcept
      : tel_(telemetry::Telemetry::active()), sink_(sink), ops_(ops) {
    if (tel_ != nullptr) start_ns_ = tel_->clock().now_ns();
  }
  ~OpTimer() {
    if (tel_ == nullptr || ops_ == 0) return;
    const std::uint64_t end = tel_->clock().now_ns();
    const std::uint64_t dur = end >= start_ns_ ? end - start_ns_ : 0;
    sink_.record_n(dur / ops_, ops_);
  }

  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  telemetry::Telemetry* tel_;
  telemetry::HdrHistogram& sink_;
  std::uint64_t ops_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace

const char* to_string(LadderRung rung) noexcept {
  switch (rung) {
    case LadderRung::kCorrect:
      return "correct";
    case LadderRung::kRetire:
      return "retire";
    case LadderRung::kRaiseVoltage:
      return "raise_voltage";
    case LadderRung::kPowerCycle:
      return "power_cycle";
    case LadderRung::kStripeRebuild:
      return "stripe_rebuild";
  }
  return "unknown";
}

ReliableChannel::ReliableChannel(board::Vcu128Board& board, unsigned pc_global,
                                 ReliableChannelConfig config)
    : board_(board),
      pc_(hbm::PcId::from_global(board.geometry(), pc_global)),
      config_(config),
      ecc_(std::make_unique<ecc::EccChannel>(board.stack(pc_.stack),
                                             pc_.index, config.codec)),
      budget_(config.budget) {
  HBMVOLT_REQUIRE(pc_global < board.geometry().total_pcs(),
                  "PC index out of range");
  HBMVOLT_REQUIRE(config_.spare_fraction >= 0.0 &&
                      config_.spare_fraction < 1.0,
                  "spare fraction must be in [0, 1)");
  HBMVOLT_REQUIRE(config_.raise_step_mv > 0, "raise step must be positive");

  state_.pc_global = pc_global;
  const std::uint64_t data = ecc_->data_beats();
  std::uint64_t spare_count = static_cast<std::uint64_t>(
      static_cast<double>(data) * config_.spare_fraction);
  if (spare_count >= data) spare_count = data - 1;
  const std::uint64_t exposed = data - spare_count;

  reset_mapping(exposed);
  state_.journal.assign(exposed, hbm::Beat{});
  state_.live.assign(exposed, false);
  state_.clean_blocks.assign(block_count(), false);
}

void ReliableChannel::reset_mapping(std::uint64_t exposed) {
  state_.remap.resize(exposed);
  std::iota(state_.remap.begin(), state_.remap.end(), std::uint32_t{0});
  state_.spares.resize(ecc_->data_beats() - exposed);
  std::iota(state_.spares.begin(), state_.spares.end(),
            static_cast<std::uint32_t>(exposed));
  state_.spare_cursor = 0;
  state_.parked.clear();
  state_.special.clear();
}

std::uint64_t ReliableChannel::spares_free() const noexcept {
  return state_.spares.size() - state_.spare_cursor;
}

std::uint64_t ReliableChannel::row_key(std::uint64_t physical_beat) const {
  const hbm::HbmGeometry& g = board_.geometry();
  const hbm::BeatLocation loc = hbm::decompose_beat(g, physical_beat);
  return loc.row * g.banks_per_pc + loc.bank;
}

void ReliableChannel::note_row_events(std::uint64_t physical_beat,
                                      unsigned events) {
  if (events == 0) return;
  state_.row_events.add(row_key(physical_beat), events);
}

void ReliableChannel::record_ladder(LadderRung rung) {
  state_.ladder_trace.push_back(
      LadderEvent{rung, board_.hbm_voltage(), state_.ops});
  HBMVOLT_LOG_INFO("runtime: PC %u ladder %s at %d mV (op %llu)",
                   state_.pc_global, to_string(rung),
                   board_.hbm_voltage().value,
                   static_cast<unsigned long long>(state_.ops));
  if (auto* tel = telemetry::Telemetry::active()) {
    switch (rung) {
      case LadderRung::kCorrect:
        break;
      case LadderRung::kRetire:
        tel->count("runtime.ladder.retire");
        break;
      case LadderRung::kRaiseVoltage:
        tel->count("runtime.ladder.raise");
        break;
      case LadderRung::kPowerCycle:
        tel->count("runtime.ladder.power_cycle");
        break;
      case LadderRung::kStripeRebuild:
        tel->count("runtime.ladder.stripe_rebuild");
        break;
    }
  }
}

// ---- Clean-block bookkeeping ----

void ReliableChannel::invalidate_block(std::uint64_t logical) {
  const std::uint64_t block = logical / kScrubBlockBeats;
  state_.clean_blocks.clear(block);
  // A write landing in the block the patrol is mid-scan through makes the
  // scan's verdict stale.
  if (state_.scan_block == block) state_.scan_clean = false;
}

void ReliableChannel::invalidate_all_blocks() {
  state_.clean_blocks.clear_all();
  state_.scan_block = kNoBlock;
  state_.scan_clean = false;
}

void ReliableChannel::mark_clean_blocks(std::uint64_t logical,
                                        std::uint64_t count) {
  const std::uint64_t end = logical + count;
  // Only blocks wholly inside [logical, end) were proven clean.
  std::uint64_t block = (logical + kScrubBlockBeats - 1) / kScrubBlockBeats;
  for (;; ++block) {
    const std::uint64_t block_start = block * kScrubBlockBeats;
    if (block_start >= capacity()) break;
    const std::uint64_t block_end =
        std::min(block_start + kScrubBlockBeats, capacity());
    if (block_end > end) break;
    state_.clean_blocks.set(block);
  }
}

// ---- Per-beat accounting bodies (shared by the per-op and bulk paths) ----

bool ReliableChannel::account_read(std::uint64_t physical, unsigned corrected,
                                   unsigned corrected_check,
                                   unsigned uncorrectable) {
  ++state_.stats.reads;
  ++state_.ops;
  state_.stats.corrected_words += corrected;
  state_.stats.corrected_check_words += corrected_check;
  note_row_events(physical, corrected);
  budget_.record(4, corrected + corrected_check, uncorrectable);
  if (uncorrectable > 0) {
    // Never deliver a word the code could not vouch for: record the
    // offender and hand the decision to the ladder.
    ++state_.stats.uncorrectable_blocked;
    state_.offender_rows.insert(row_key(physical));
    state_.escalation_pending = true;
    return false;
  }
  return true;
}

void ReliableChannel::account_verify(std::uint64_t physical, unsigned corrected,
                                     unsigned corrected_check,
                                     unsigned uncorrectable) {
  budget_.record(4, corrected + corrected_check, uncorrectable);
  account_rewrite(physical, corrected, uncorrectable);
}

void ReliableChannel::account_rewrite(std::uint64_t physical,
                                      unsigned corrected,
                                      unsigned uncorrectable) {
  note_row_events(physical, corrected);
  if (uncorrectable > 0) {
    ++state_.stats.verify_caught;
    state_.offender_rows.insert(row_key(physical));
    state_.escalation_pending = true;
  }
}

Status ReliableChannel::read_device_beat(std::uint64_t physical,
                                         hbm::Beat* out) {
  auto outcome = ecc_->read_beat(physical);
  if (!outcome.is_ok()) return outcome.status();
  const auto& got = outcome.value();
  *out = got.data;
  if (!account_read(physical, got.corrected, got.corrected_check,
                    got.uncorrectable)) {
    return data_loss("uncorrectable word on read; escalation required");
  }
  return Status::ok();
}

Status ReliableChannel::write_device_beat(std::uint64_t physical,
                                          const hbm::Beat& data) {
  HBMVOLT_RETURN_IF_ERROR(ecc_->write_beat(physical, data));
  if (!config_.verify_writes) return Status::ok();
  // Read-back: a word that cannot hold the data just written (stuck cells
  // already pair up in it) must be caught NOW -- left armed, it is one
  // soft upset away from a SECDED miscorrection.
  auto back = ecc_->read_beat(physical);
  if (!back.is_ok()) return back.status();
  account_verify(physical, back.value().corrected,
                 back.value().corrected_check, back.value().uncorrectable);
  return Status::ok();
}

void ReliableChannel::account_scrub(std::uint64_t physical,
                                    unsigned corrected_data,
                                    unsigned corrected_check,
                                    unsigned uncorrectable, bool wrote_back) {
  ++state_.stats.scrub_beats;
  state_.stats.scrub_corrected += corrected_data + corrected_check;
  state_.stats.scrub_uncorrectable += uncorrectable;
  if (wrote_back) ++state_.stats.scrub_writebacks;
  note_row_events(physical, corrected_data);
  budget_.record(4, corrected_data + corrected_check, uncorrectable);
  if (uncorrectable > 0) {
    // The patrol found a word demand reads would refuse: escalate
    // before a caller trips over it.
    state_.offender_rows.insert(row_key(physical));
    state_.escalation_pending = true;
  }
  if (corrected_data + corrected_check + uncorrectable > 0 || wrote_back) {
    state_.scan_clean = false;
  }
}

Status ReliableChannel::settle_scrub_debt(std::uint64_t ops_before) {
  if (config_.scrub_interval_ops == 0) return Status::ok();
  return scrub_slices(state_.ops / config_.scrub_interval_ops -
                      ops_before / config_.scrub_interval_ops);
}

const hbm::Beat& ReliableChannel::read_journal(std::uint64_t logical) {
  ++state_.stats.reads;
  ++state_.ops;
  ++state_.stats.journal_served_reads;
  return state_.journal[logical];
}

// ---- The range walks ----

template <class OnPlain, class OnException>
Status ReliableChannel::split_at_exceptions(std::uint64_t logical,
                                            std::uint64_t end,
                                            OnPlain&& on_plain,
                                            OnException&& on_exception) {
  std::uint64_t cur = logical;
  while (cur < end) {
    const std::uint64_t special = state_.special.first_in_range(cur, end);
    if (special == SortedKeySet::kNone) return on_plain(cur, end - cur);
    if (cur < special) HBMVOLT_RETURN_IF_ERROR(on_plain(cur, special - cur));
    HBMVOLT_RETURN_IF_ERROR(on_exception(special));
    cur = special + 1;
  }
  return Status::ok();
}

template <class OnRun, class OnException>
Status ReliableChannel::for_each_live(std::uint64_t logical, std::uint64_t end,
                                      OnRun&& on_run,
                                      OnException&& on_exception) {
  return split_at_exceptions(
      logical, end,
      [&](std::uint64_t lo, std::uint64_t n) -> Status {
        // Dead stretches cost a word scan; live runs go out in bulk.
        for (std::uint64_t i = 0; i < n;) {
          const bool live = state_.live.get(lo + i);
          const std::uint64_t run = state_.live.run(lo + i, live, n - i);
          if (live) HBMVOLT_RETURN_IF_ERROR(on_run(lo + i, run));
          i += run;
        }
        return Status::ok();
      },
      [&](std::uint64_t beat) -> Status {
        if (!state_.live.get(beat) || state_.parked.contains(beat)) {
          return Status::ok();
        }
        return on_exception(beat);
      });
}

template <class OnClean, class OnEvent>
bool ReliableChannel::account_events(std::uint64_t logical, std::uint64_t end,
                                     OnClean&& on_clean, OnEvent&& on_event) {
  std::uint64_t clean_from = logical;
  for (const auto& ev : scratch_events_) {
    if (ev.beat > clean_from) on_clean(ev.beat - clean_from);
    if (!on_event(ev)) return false;
    clean_from = ev.beat + 1;
  }
  if (end > clean_from) on_clean(end - clean_from);
  return true;
}

Status ReliableChannel::read_back(std::uint64_t logical, std::uint64_t count) {
  scratch_beats_.resize(count);
  scratch_events_.clear();
  return ecc_->decode_range(logical, count, scratch_beats_.data(),
                            scratch_events_);
}

// ---- Single-beat demand path ----

Status ReliableChannel::write(std::uint64_t logical, const hbm::Beat& data) {
  if (logical >= capacity()) {
    return out_of_range("logical beat out of range");
  }
  OpTimer timer(write_latency_, 1);
  const std::uint64_t ops_before = state_.ops;
  // With the device lost the journal is the only copy; the stripe fleet
  // (or a rebuild step) propagates the write to parity/spare silicon.
  if (!state_.device_lost && !state_.parked.contains(logical)) {
    HBMVOLT_RETURN_IF_ERROR(write_device_beat(state_.remap[logical], data));
  }
  state_.journal[logical] = data;
  state_.live.set(logical);
  ++state_.stats.writes;
  ++state_.ops;
  invalidate_block(logical);
  return settle_scrub_debt(ops_before);
}

Result<hbm::Beat> ReliableChannel::read(std::uint64_t logical) {
  if (logical >= capacity()) {
    return out_of_range("logical beat out of range");
  }
  OpTimer timer(read_latency_, 1);
  const std::uint64_t ops_before = state_.ops;
  hbm::Beat data{};
  if (state_.device_lost || state_.parked.contains(logical)) {
    // Journal-backed: the device copy is unservable (whole-PC death, or
    // stuck cells paired up with the spare pool exhausted), the host
    // copy is the truth.
    data = read_journal(logical);
  } else {
    HBMVOLT_RETURN_IF_ERROR(read_device_beat(state_.remap[logical], &data));
  }
  HBMVOLT_RETURN_IF_ERROR(settle_scrub_debt(ops_before));
  return data;
}

// ---- Bulk demand path ----

Status ReliableChannel::read_range(std::uint64_t logical, std::uint64_t count,
                                   hbm::Beat* out) {
  if (count == 0) return Status::ok();
  if (logical >= capacity() || count > capacity() - logical) {
    return out_of_range("logical beat range out of range");
  }
  OpTimer timer(read_latency_, count);
  const std::uint64_t end = logical + count;
  const std::uint64_t ops_before = state_.ops;
  if (state_.device_lost) {
    for (std::uint64_t cur = logical; cur < end; ++cur) {
      out[cur - logical] = read_journal(cur);
    }
    return settle_scrub_debt(ops_before);
  }
  bool all_clean = true;  // no exception beat and no decode event
  HBMVOLT_RETURN_IF_ERROR(split_at_exceptions(
      logical, end,
      [&](std::uint64_t lo, std::uint64_t n) -> Status {
        // Plain run: identity-mapped, not parked (specials capture both).
        scratch_events_.clear();
        HBMVOLT_RETURN_IF_ERROR(
            ecc_->decode_range(lo, n, out + (lo - logical), scratch_events_));
        const bool served = account_events(
            lo, lo + n,
            [&](std::uint64_t k) {
              state_.stats.reads += k;
              state_.ops += k;
              budget_.record_clean(4 * k);
            },
            [&](const RangeBeatEvent& ev) {
              all_clean = false;
              return account_read(ev.beat, ev.corrected, ev.corrected_check,
                                  ev.uncorrectable);
            });
        // Beats past a failing one were decoded but are not accounted --
        // exactly where per-op read() calls would stop.
        if (served) return Status::ok();
        return data_loss("uncorrectable word on read; escalation required");
      },
      [&](std::uint64_t beat) -> Status {
        all_clean = false;
        if (!state_.parked.contains(beat)) {
          return read_device_beat(state_.remap[beat], out + (beat - logical));
        }
        out[beat - logical] = read_journal(beat);
        return Status::ok();
      }));
  // A clean pass over identity-mapped beats is exactly what the patrol
  // would have established: let the scrub cursor skip these blocks once.
  if (all_clean) mark_clean_blocks(logical, count);
  return settle_scrub_debt(ops_before);
}

Status ReliableChannel::write_range(std::uint64_t logical, std::uint64_t count,
                                    const hbm::Beat* data) {
  if (count == 0) return Status::ok();
  if (logical >= capacity() || count > capacity() - logical) {
    return out_of_range("logical beat range out of range");
  }
  OpTimer timer(write_latency_, count);
  const std::uint64_t end = logical + count;
  const std::uint64_t ops_before = state_.ops;
  if (state_.device_lost) {
    std::copy(data, data + count,
              state_.journal.begin() + static_cast<long>(logical));
    state_.live.set_range(logical, count);
    state_.stats.writes += count;
    state_.ops += count;
    return settle_scrub_debt(ops_before);
  }
  HBMVOLT_RETURN_IF_ERROR(split_at_exceptions(
      logical, end,
      [&](std::uint64_t lo, std::uint64_t n) -> Status {
        const hbm::Beat* src = data + (lo - logical);
        HBMVOLT_RETURN_IF_ERROR(ecc_->encode_range(lo, n, src));
        if (config_.verify_writes) {
          HBMVOLT_RETURN_IF_ERROR(read_back(lo, n));
          account_events(
              lo, lo + n, [&](std::uint64_t k) { budget_.record_clean(4 * k); },
              [&](const RangeBeatEvent& ev) {
                account_verify(ev.beat, ev.corrected, ev.corrected_check,
                               ev.uncorrectable);
                return true;
              });
        }
        std::copy(src, src + n, state_.journal.begin() + static_cast<long>(lo));
        state_.live.set_range(lo, n);
        state_.stats.writes += n;
        state_.ops += n;
        return Status::ok();
      },
      [&](std::uint64_t beat) -> Status {
        const hbm::Beat& beat_data = data[beat - logical];
        if (!state_.parked.contains(beat)) {
          HBMVOLT_RETURN_IF_ERROR(
              write_device_beat(state_.remap[beat], beat_data));
        }
        state_.journal[beat] = beat_data;
        state_.live.set(beat);
        ++state_.stats.writes;
        ++state_.ops;
        return Status::ok();
      }));
  for (std::uint64_t block = logical / kScrubBlockBeats;
       block * kScrubBlockBeats < end; ++block) {
    invalidate_block(block * kScrubBlockBeats);
  }
  return settle_scrub_debt(ops_before);
}

// ---- Patrol scrub ----

Status ReliableChannel::scrub_chunk(std::uint64_t logical,
                                    std::uint64_t count) {
  return for_each_live(
      logical, logical + count,
      [this](std::uint64_t lo, std::uint64_t n) -> Status {
        scratch_events_.clear();
        HBMVOLT_RETURN_IF_ERROR(ecc_->scrub_range(lo, n, scratch_events_));
        account_events(
            lo, lo + n,
            [this](std::uint64_t k) {
              state_.stats.scrub_beats += k;
              budget_.record_clean(4 * k);
            },
            [this](const RangeBeatEvent& ev) {
              account_scrub(ev.beat, ev.corrected, ev.corrected_check,
                            ev.uncorrectable, ev.wrote_back);
              return true;
            });
        return Status::ok();
      },
      [this](std::uint64_t beat) -> Status {
        const std::uint64_t physical = state_.remap[beat];
        auto outcome = ecc_->scrub_beat(physical);
        if (!outcome.is_ok()) return outcome.status();
        const ecc::ScrubOutcome& got = outcome.value();
        account_scrub(physical, got.corrected_data, got.corrected_check,
                      got.uncorrectable, got.wrote_back);
        return Status::ok();
      });
}

Status ReliableChannel::scrub_slices(std::uint64_t slices) {
  if (state_.device_lost || slices == 0) return Status::ok();  // no silicon
  const std::uint64_t cap = capacity();
  const std::uint64_t per_slice =
      std::min<std::uint64_t>(config_.scrub_batch_beats, cap);
  // Beats [pending, state_.scrub_cursor) are walked but not yet scrubbed.  A
  // slice that stops mid-block leaves its chunk pending so the next slice
  // extends it; the merged chunk is scrubbed at the block's end (before
  // state_.scan_clean is read) or when the walk ends, so it never crosses a
  // block and every beat is scrubbed exactly as its own slice would.
  std::uint64_t pending = kNoBlock;
  const auto flush = [&](std::uint64_t end) -> Status {
    if (pending == kNoBlock) return Status::ok();
    const std::uint64_t lo = pending;
    pending = kNoBlock;
    const Status scrubbed = scrub_chunk(lo, end - lo);
    // A failed scrub rewinds the cursor to the merged chunk's start.
    if (!scrubbed.is_ok()) state_.scrub_cursor = lo;
    return scrubbed;
  };
  for (std::uint64_t slice = 0; slice < slices; ++slice) {
    // Each skip consumes a mark and only a full block scan (which spends
    // `remaining`) sets one, so the skips between scans are bounded.
    std::uint64_t remaining = per_slice;
    while (remaining > 0) {
      const std::uint64_t block = state_.scrub_cursor / kScrubBlockBeats;
      const std::uint64_t block_start = block * kScrubBlockBeats;
      const std::uint64_t block_end =
          std::min(block_start + kScrubBlockBeats, cap);
      if (state_.scrub_cursor == block_start &&
          state_.clean_blocks.get(block)) {
        // One skip consumes the mark, so staleness is bounded to a round.
        state_.clean_blocks.clear(block);
        ++state_.stats.scrub_blocks_skipped;
        state_.scrub_cursor = block_end % cap;
        state_.scan_block = kNoBlock;
        continue;
      }
      const std::uint64_t chunk =
          std::min(block_end - state_.scrub_cursor, remaining);
      if (state_.scrub_cursor == block_start) {
        state_.scan_block = block;
        state_.scan_clean = true;
      } else if (state_.scan_block != block) {
        // Mid-block entry with no scan in flight: this pass cannot prove
        // the block clean.
        state_.scan_block = kNoBlock;
      }
      const std::uint64_t lo = state_.scrub_cursor;
      if (pending == kNoBlock) pending = lo;
      state_.scrub_cursor = (lo + chunk) % cap;
      remaining -= chunk;
      if (lo + chunk == block_end) {
        HBMVOLT_RETURN_IF_ERROR(flush(block_end));
        if (state_.scan_block == block) {
          if (state_.scan_clean) state_.clean_blocks.set(block);
          state_.scan_block = kNoBlock;
        }
      }
    }
  }
  return flush(state_.scrub_cursor);
}

Status ReliableChannel::patrol_all() {
  if (state_.device_lost) return Status::ok();  // no silicon to patrol
  // Emergency sweep: trust nothing, re-prove every block.
  invalidate_all_blocks();
  const std::uint64_t cap = capacity();
  for (std::uint64_t start = 0; start < cap; start += kScrubBlockBeats) {
    const std::uint64_t end = std::min(start + kScrubBlockBeats, cap);
    state_.scan_block = start / kScrubBlockBeats;
    state_.scan_clean = true;
    HBMVOLT_RETURN_IF_ERROR(scrub_chunk(start, end - start));
    if (state_.scan_clean) state_.clean_blocks.set(state_.scan_block);
    state_.scan_block = kNoBlock;
  }
  return Status::ok();
}


// ---- Journal rewrite (refresh / post-power-cycle restore / rebuild) ----

Status ReliableChannel::rewrite_live(std::uint64_t logical, std::uint64_t end,
                                     bool verify, std::uint64_t* rewritten) {
  return for_each_live(
      logical, end,
      [&](std::uint64_t lo, std::uint64_t n) -> Status {
        // Plain live run: the journal is contiguous over it, feed it in.
        HBMVOLT_RETURN_IF_ERROR(ecc_->encode_range(lo, n, &state_.journal[lo]));
        if (verify) {
          HBMVOLT_RETURN_IF_ERROR(read_back(lo, n));
          account_events(
              lo, lo + n, [](std::uint64_t) {},
              [this](const RangeBeatEvent& ev) {
                account_rewrite(ev.beat, ev.corrected, ev.uncorrectable);
                return true;
              });
        }
        *rewritten += n;
        return Status::ok();
      },
      [&](std::uint64_t beat) -> Status {
        const std::uint64_t physical = state_.remap[beat];
        HBMVOLT_RETURN_IF_ERROR(
            ecc_->write_beat(physical, state_.journal[beat]));
        if (verify) {
          auto back = ecc_->read_beat(physical);
          if (!back.is_ok()) return back.status();
          account_rewrite(physical, back.value().corrected,
                          back.value().uncorrectable);
        }
        ++*rewritten;
        return Status::ok();
      });
}

Status ReliableChannel::rewrite_live_runs(bool verify) {
  std::uint64_t rewritten = 0;
  HBMVOLT_RETURN_IF_ERROR(rewrite_live(0, capacity(), verify, &rewritten));
  // The device contents just changed wholesale; every mark is stale.
  invalidate_all_blocks();
  return Status::ok();
}

Status ReliableChannel::refresh_from_journal() {
  if (state_.device_lost) return Status::ok();  // journal already IS the copy
  HBMVOLT_RETURN_IF_ERROR(rewrite_live_runs(/*verify=*/true));
  ++state_.stats.journal_refreshes;
  return Status::ok();
}

Status ReliableChannel::restore_after_power_cycle() {
  // A killed PC does not come back with the power cycle (another PC may
  // have requested it before this channel noticed the death): flip into
  // device-lost mode instead of writing into a dead device.
  if (!state_.device_lost &&
      board_.stack(pc_.stack).pc_killed(pc_.index)) {
    set_device_lost();
  }
  if (!state_.device_lost) {
    HBMVOLT_RETURN_IF_ERROR(rewrite_live_runs(/*verify=*/false));
  }
  ++state_.stats.power_cycles;
  record_ladder(LadderRung::kPowerCycle);
  budget_.reset();
  state_.escalation_pending = false;
  return Status::ok();
}


// ---- Whole-device loss (see header) ----

void ReliableChannel::adopt_device(unsigned new_pc_global) {
  HBMVOLT_REQUIRE(state_.device_lost, "adopt_device requires device-lost mode");
  const hbm::PcId new_pc =
      hbm::PcId::from_global(board_.geometry(), new_pc_global);
  auto fresh = std::make_unique<ecc::EccChannel>(board_.stack(new_pc.stack),
                                                 new_pc.index, config_.codec);
  HBMVOLT_REQUIRE(fresh->data_beats() == ecc_->data_beats(),
                  "spare PC capacity mismatch");
  ecc_ = std::move(fresh);
  state_.pc_global = new_pc_global;
  pc_ = new_pc;
  // Device-keyed state resets to the fresh silicon; the logical channel
  // (journal, liveness, stats, budget, ladder trace) carries over.
  reset_mapping(capacity());
  state_.row_events.clear();
  state_.offender_rows.clear();
  state_.retired_rows.clear();
  state_.scrub_cursor = 0;
  invalidate_all_blocks();
}


Status ReliableChannel::rebuild_device_range(std::uint64_t logical,
                                             std::uint64_t count) {
  if (count == 0) return Status::ok();
  if (logical >= capacity() || count > capacity() - logical) {
    return out_of_range("rebuild range out of range");
  }
  // Post-adopt the mapping is identity with no exceptions, so live runs
  // go straight through the journal-rewrite path with write-verify --
  // a rebuilt beat the spare silicon cannot hold is caught immediately.
  return rewrite_live(logical, logical + count, /*verify=*/true,
                      &state_.stats.rebuilt_beats);
}

void ReliableChannel::capture(ChannelCheckpoint* out) const {
  static_cast<ChannelState&>(*out) = state_;
  out->budget = budget_.state();
  out->ecc_shadow = ecc_->shadow_checks();
  out->ecc_stats = ecc_->stats();
}

Status ReliableChannel::check_restorable(const ChannelCheckpoint& ck) const {
  if (ck.pc_global >= board_.geometry().total_pcs()) {
    return invalid_argument("channel checkpoint PC out of range");
  }
  if (ck.journal.size() != capacity() || ck.live.size() != capacity() ||
      ck.remap.size() != capacity() ||
      ck.clean_blocks.size() != block_count() ||
      ck.ecc_shadow.size() != ecc_->shadow_checks().size()) {
    return invalid_argument("channel checkpoint size mismatch");
  }
  if (ck.scrub_cursor >= capacity() || ck.spare_cursor > ck.spares.size()) {
    return invalid_argument("channel checkpoint cursor out of range");
  }
  return Status::ok();
}

void ReliableChannel::restore(const ChannelCheckpoint& ck) {
  const Status restorable = check_restorable(ck);
  HBMVOLT_REQUIRE(restorable.is_ok(), restorable.message().c_str());
  // Re-point at the checkpointed silicon (an adopted spare keeps serving
  // through the restore) and lay the shadow/stats back over it.
  pc_ = hbm::PcId::from_global(board_.geometry(), ck.pc_global);
  ecc_ = std::make_unique<ecc::EccChannel>(board_.stack(pc_.stack), pc_.index,
                                           config_.codec);
  ecc_->restore_state(ck.ecc_shadow, ck.ecc_stats);
  budget_.restore(ck.budget);
  state_ = static_cast<const ChannelState&>(ck);
}

// ---- Retirement ladder ----

Result<std::uint64_t> ReliableChannel::allocate_spare() {
  while (state_.spare_cursor < state_.spares.size()) {
    const std::uint64_t beat = state_.spares[state_.spare_cursor];
    const std::uint64_t key = row_key(beat);
    // Never migrate onto a retired row, nor onto a row currently being
    // evacuated.  Skipped spares are permanently consumed (cheap, and
    // keeps the cursor deterministic).
    if (state_.retired_rows.contains(key) ||
        state_.offender_rows.contains(key)) {
      ++state_.spare_cursor;
      continue;
    }
    return beat;
  }
  return unavailable("spare pool exhausted");
}

void ReliableChannel::park_beat(std::uint64_t logical) {
  state_.parked.insert(logical);
  state_.special.insert(logical);
  ++state_.stats.beats_parked;
}

void ReliableChannel::remap_beat(std::uint64_t logical, std::uint64_t spare) {
  state_.remap[logical] = static_cast<std::uint32_t>(spare);
  // Remapped beats stay exceptions forever: remap never reverts.
  state_.special.insert(logical);
}

Status ReliableChannel::retire_offenders(bool* retired_any, bool* parked_any,
                                         bool* blocked) {
  *retired_any = false;
  *parked_any = false;
  *blocked = false;
  const Millivolts nominal = board_.config().regulator_config.vout_default;
  // Ascending row order (SortedKeySet iterates sorted); copied because the
  // loop erases absorbed rows.
  const std::vector<std::uint64_t> rows = state_.offender_rows.keys();
  for (const std::uint64_t row : rows) {
    bool row_blocked = false;
    bool spares_ran_out = false;
    for (std::uint64_t logical = 0; logical < capacity(); ++logical) {
      if (row_key(state_.remap[logical]) != row ||
          state_.parked.contains(logical)) {
        continue;
      }
      auto spare = allocate_spare();
      if (!spare.is_ok()) {
        // Spares exhausted: the row cannot move.  A beat that still
        // decodes is left in place (SECDED keeps serving it); an
        // uncorrectable one is rewritten in place from the journal --
        // which clears soft upsets like bit rot -- and parked on the
        // journal if stuck cells keep it uncorrectable even then.
        spares_ran_out = true;
        if (!state_.live.get(logical)) continue;
        auto got = ecc_->read_beat(state_.remap[logical]);
        if (!got.is_ok()) return got.status();
        if (got.value().uncorrectable == 0) continue;
        if (board_.hbm_voltage() < nominal) {
          // A raise can still shrink the stuck set; climb first.
          row_blocked = true;
          break;
        }
        HBMVOLT_RETURN_IF_ERROR(
            ecc_->write_beat(state_.remap[logical], state_.journal[logical]));
        auto again = ecc_->read_beat(state_.remap[logical]);
        if (!again.is_ok()) return again.status();
        if (again.value().uncorrectable > 0) {
          park_beat(logical);
        }
        *parked_any = true;
        continue;
      }
      hbm::Beat data{};
      if (state_.live.get(logical)) {
        // Migrate through ECC, as real row-repair would: the journal is
        // reserved for last-resort recovery, not steady-state reads.
        auto got = ecc_->read_beat(state_.remap[logical]);
        if (!got.is_ok()) return got.status();
        if (got.value().uncorrectable > 0) {
          if (board_.hbm_voltage() < nominal) {
            // A voltage raise can still recover the stored word (stuck
            // sets are voltage-keyed); leave the row an offender and let
            // the ladder climb.
            row_blocked = true;
            break;
          }
          // Uncorrectable even at nominal (e.g. a weak-cell burst put two
          // stuck bits in one codeword): no voltage recovers it and a
          // power cycle would just rewrite-and-re-corrupt forever, so
          // fall back to the journal -- the last-written truth.
          data = state_.journal[logical];
          ++state_.stats.journal_migrations;
        } else {
          data = got.value().data;
        }
      }
      HBMVOLT_RETURN_IF_ERROR(ecc_->write_beat(spare.value(), data));
      remap_beat(logical, spare.value());
      ++state_.spare_cursor;  // commit the allocation
      ++state_.stats.beats_migrated;
    }
    if (row_blocked) {
      *blocked = true;
      continue;
    }
    if (spares_ran_out) {
      // Handled in place (repairs/parks), not migrated: the row is not
      // retired, but it no longer owes the ladder anything either.
      state_.offender_rows.erase(row);
      state_.row_events.erase(row);
      continue;
    }
    state_.retired_rows.insert(row);
    state_.offender_rows.erase(row);
    state_.row_events.erase(row);
    ++state_.stats.rows_retired;
    *retired_any = true;
  }
  if (*retired_any) ++state_.stats.retires;
  return Status::ok();
}

Result<LadderRung> ReliableChannel::escalate() {
  if (state_.device_lost) {
    // Whole-PC loss is beyond every PC-local rung and no global rung
    // recovers it either; the journal (and, in stripe mode, the fleet's
    // reconstruction/rebuild) is already serving.  Absorb the escalation.
    budget_.reset();
    state_.escalation_pending = false;
    return LadderRung::kCorrect;
  }
  if (state_.escalation_pending) {
    // An uncorrectable word was seen: something (a fault storm, a deep
    // undervolt) is arming codewords faster than the rotating patrol
    // covers them.  Sweep every live beat NOW, so the retirement below
    // handles the whole blast radius in one ladder action -- an armed
    // word left undiscovered is one soft upset away from a SECDED
    // miscorrection.
    HBMVOLT_RETURN_IF_ERROR(patrol_all());
  }
  // Promote rows that crossed the event threshold to offenders.
  for (const auto& [key, events] : state_.row_events) {
    if (events >= config_.retire_threshold &&
        !state_.retired_rows.contains(key)) {
      state_.offender_rows.insert(key);
    }
  }
  if (!state_.escalation_pending && !budget_.burned() &&
      state_.offender_rows.empty()) {
    return LadderRung::kCorrect;
  }

  bool retired_any = false;
  bool parked_any = false;
  bool blocked = false;
  HBMVOLT_RETURN_IF_ERROR(
      retire_offenders(&retired_any, &parked_any, &blocked));
  const bool absorbed = retired_any || parked_any;
  if (absorbed) record_ladder(LadderRung::kRetire);
  if (absorbed && !blocked) {
    // Rung 1 fully absorbed the escalation (migrations, in-place
    // repairs, and/or parks).
    budget_.reset();
    state_.escalation_pending = false;
    return LadderRung::kCorrect;
  }

  const Millivolts nominal = board_.config().regulator_config.vout_default;
  if (blocked || state_.escalation_pending) {
    // A stored word only a global rung can recover.
    if (board_.hbm_voltage() < nominal) return LadderRung::kRaiseVoltage;
    return LadderRung::kPowerCycle;
  }
  if (budget_.burned() && board_.hbm_voltage() < nominal) {
    // A corrected-rate burn with nothing retirable: shrink the stuck set.
    return LadderRung::kRaiseVoltage;
  }
  // A corrected-rate burn at nominal with nothing left to retire: the
  // SLO is unmeetable at this capacity.  Consume the burn and serve on.
  budget_.reset();
  return LadderRung::kCorrect;
}

void ReliableChannel::on_global_action(LadderRung rung) {
  if (rung == LadderRung::kRaiseVoltage) {
    ++state_.stats.raises;
    record_ladder(LadderRung::kRaiseVoltage);
  }
  budget_.reset();
  state_.escalation_pending = false;
  // The fault regime just changed; clean verdicts predate it.
  invalidate_all_blocks();
}

hbm::Beat make_payload(std::uint64_t seed, unsigned pc, std::uint64_t op) {
  hbm::Beat data;
  for (unsigned w = 0; w < 4; ++w) {
    data[w] = splitmix64(stream_seed(seed, pc, op, w));
  }
  return data;
}

void ReliableChannel::flush_telemetry() {
  auto* tel = telemetry::Telemetry::active();
  if (tel == nullptr) {
    state_.flushed = state_.stats;
    // Nothing records latency without an active instance, but clear
    // anyway so a mid-run disable cannot leak stale samples later.
    read_latency_.clear();
    write_latency_.clear();
    return;
  }
  auto& metrics = tel->metrics();
  const ChannelStats& stats = state_.stats;
  const ChannelStats& flushed = state_.flushed;
  const std::size_t pcs = board_.geometry().total_pcs();
  // The per-PC hot counters export as `{pc=N}` families (the bare name
  // stays the cross-PC total in every sink); low-rate ladder bookkeeping
  // stays un-labeled.
  const auto emit_pc = [&](const char* name, std::uint64_t now,
                           std::uint64_t before) {
    if (now > before) {
      metrics.counter_family(name, "pc", pcs).at(pc_global()).add(now - before);
    }
  };
  const auto emit = [tel](const char* name, std::uint64_t now,
                          std::uint64_t before) {
    if (now > before) tel->count(name, now - before);
  };
  emit_pc("runtime.reads", stats.reads, flushed.reads);
  emit_pc("runtime.writes", stats.writes, flushed.writes);
  emit_pc("runtime.corrected_words", stats.corrected_words,
          flushed.corrected_words);
  emit_pc("runtime.corrected_check_words", stats.corrected_check_words,
          flushed.corrected_check_words);
  emit_pc("runtime.uncorrectable_blocked", stats.uncorrectable_blocked,
          flushed.uncorrectable_blocked);
  emit("runtime.rows_retired", stats.rows_retired, flushed.rows_retired);
  emit("runtime.beats_migrated", stats.beats_migrated,
       flushed.beats_migrated);
  emit_pc("runtime.beats_parked", stats.beats_parked, flushed.beats_parked);
  emit_pc("runtime.journal_served_reads", stats.journal_served_reads,
          flushed.journal_served_reads);
  emit("runtime.verify_caught", stats.verify_caught, flushed.verify_caught);
  emit("runtime.journal_refreshes", stats.journal_refreshes,
       flushed.journal_refreshes);
  emit_pc("runtime.reconstructed_reads", stats.reconstructed_reads,
          flushed.reconstructed_reads);
  emit_pc("runtime.rebuilt_beats", stats.rebuilt_beats,
          flushed.rebuilt_beats);
  emit_pc("scrub.beats", stats.scrub_beats, flushed.scrub_beats);
  emit("scrub.corrected", stats.scrub_corrected, flushed.scrub_corrected);
  emit("scrub.uncorrectable", stats.scrub_uncorrectable,
       flushed.scrub_uncorrectable);
  emit("scrub.writebacks", stats.scrub_writebacks,
       flushed.scrub_writebacks);
  emit("scrub.blocks_skipped", stats.scrub_blocks_skipped,
       flushed.scrub_blocks_skipped);
  metrics.gauge_family("runtime.spares_free", "pc", pcs)
      .at(pc_global())
      .set(static_cast<std::int64_t>(spares_free()));
  metrics.gauge_family("runtime.parked_beats", "pc", pcs)
      .at(pc_global())
      .set(static_cast<std::int64_t>(parked_count()));
  if (read_latency_.count() > 0) {
    metrics.hdr_family("latency.read", "pc", pcs)
        .merge_into(pc_global(), read_latency_);
  }
  if (write_latency_.count() > 0) {
    metrics.hdr_family("latency.write", "pc", pcs)
        .merge_into(pc_global(), write_latency_);
  }
  read_latency_.clear();
  write_latency_.clear();
  state_.flushed = state_.stats;
}

}  // namespace hbmvolt::runtime
