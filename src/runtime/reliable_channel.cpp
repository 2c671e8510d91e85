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
      pc_global_(pc_global),
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

  const std::uint64_t data = ecc_->data_beats();
  std::uint64_t spare_count = static_cast<std::uint64_t>(
      static_cast<double>(data) * config_.spare_fraction);
  if (spare_count >= data) spare_count = data - 1;
  const std::uint64_t exposed = data - spare_count;

  reset_mapping(exposed);
  journal_.assign(exposed, hbm::Beat{});
  live_.assign(exposed, false);
  clean_blocks_.assign(block_count(), false);
}

void ReliableChannel::reset_mapping(std::uint64_t exposed) {
  remap_.resize(exposed);
  std::iota(remap_.begin(), remap_.end(), std::uint32_t{0});
  spares_.resize(ecc_->data_beats() - exposed);
  std::iota(spares_.begin(), spares_.end(),
            static_cast<std::uint32_t>(exposed));
  spare_cursor_ = 0;
  parked_.clear();
  special_.clear();
}

std::uint64_t ReliableChannel::spares_free() const noexcept {
  return spares_.size() - spare_cursor_;
}

std::uint64_t ReliableChannel::row_key(std::uint64_t physical_beat) const {
  const hbm::HbmGeometry& g = board_.geometry();
  const hbm::BeatLocation loc = hbm::decompose_beat(g, physical_beat);
  return loc.row * g.banks_per_pc + loc.bank;
}

void ReliableChannel::note_row_events(std::uint64_t physical_beat,
                                      unsigned events) {
  if (events == 0) return;
  row_events_.add(row_key(physical_beat), events);
}

void ReliableChannel::record_ladder(LadderRung rung) {
  ladder_trace_.push_back(LadderEvent{rung, board_.hbm_voltage(), ops_});
  HBMVOLT_LOG_INFO("runtime: PC %u ladder %s at %d mV (op %llu)", pc_global_,
                   to_string(rung), board_.hbm_voltage().value,
                   static_cast<unsigned long long>(ops_));
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
  clean_blocks_.clear(block);
  // A write landing in the block the patrol is mid-scan through makes the
  // scan's verdict stale.
  if (scan_block_ == block) scan_clean_ = false;
}

void ReliableChannel::invalidate_all_blocks() {
  clean_blocks_.clear_all();
  scan_block_ = kNoBlock;
  scan_clean_ = false;
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
    clean_blocks_.set(block);
  }
}

// ---- Per-beat accounting bodies (shared by the per-op and bulk paths) ----

bool ReliableChannel::account_read(std::uint64_t physical, unsigned corrected,
                                   unsigned corrected_check,
                                   unsigned uncorrectable) {
  ++stats_.reads;
  ++ops_;
  stats_.corrected_words += corrected;
  stats_.corrected_check_words += corrected_check;
  note_row_events(physical, corrected);
  budget_.record(4, corrected + corrected_check, uncorrectable);
  if (uncorrectable > 0) {
    // Never deliver a word the code could not vouch for: record the
    // offender and hand the decision to the ladder.
    ++stats_.uncorrectable_blocked;
    offender_rows_.insert(row_key(physical));
    escalation_pending_ = true;
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
    ++stats_.verify_caught;
    offender_rows_.insert(row_key(physical));
    escalation_pending_ = true;
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
  ++stats_.scrub_beats;
  stats_.scrub_corrected += corrected_data + corrected_check;
  stats_.scrub_uncorrectable += uncorrectable;
  if (wrote_back) ++stats_.scrub_writebacks;
  note_row_events(physical, corrected_data);
  budget_.record(4, corrected_data + corrected_check, uncorrectable);
  if (uncorrectable > 0) {
    // The patrol found a word demand reads would refuse: escalate
    // before a caller trips over it.
    offender_rows_.insert(row_key(physical));
    escalation_pending_ = true;
  }
  if (corrected_data + corrected_check + uncorrectable > 0 || wrote_back) {
    scan_clean_ = false;
  }
}

Status ReliableChannel::settle_scrub_debt(std::uint64_t ops_before) {
  if (config_.scrub_interval_ops == 0) return Status::ok();
  return scrub_slices(ops_ / config_.scrub_interval_ops -
                      ops_before / config_.scrub_interval_ops);
}

const hbm::Beat& ReliableChannel::read_journal(std::uint64_t logical) {
  ++stats_.reads;
  ++ops_;
  ++stats_.journal_served_reads;
  return journal_[logical];
}

// ---- The range walks ----

template <class OnPlain, class OnException>
Status ReliableChannel::split_at_exceptions(std::uint64_t logical,
                                            std::uint64_t end,
                                            OnPlain&& on_plain,
                                            OnException&& on_exception) {
  std::uint64_t cur = logical;
  while (cur < end) {
    const std::uint64_t special = special_.first_in_range(cur, end);
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
          const bool live = live_.get(lo + i);
          const std::uint64_t run = live_.run(lo + i, live, n - i);
          if (live) HBMVOLT_RETURN_IF_ERROR(on_run(lo + i, run));
          i += run;
        }
        return Status::ok();
      },
      [&](std::uint64_t beat) -> Status {
        if (!live_.get(beat) || parked_.contains(beat)) return Status::ok();
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
  const std::uint64_t ops_before = ops_;
  // With the device lost the journal is the only copy; the stripe fleet
  // (or a rebuild step) propagates the write to parity/spare silicon.
  if (!device_lost_ && !parked_.contains(logical)) {
    HBMVOLT_RETURN_IF_ERROR(write_device_beat(remap_[logical], data));
  }
  journal_[logical] = data;
  live_.set(logical);
  ++stats_.writes;
  ++ops_;
  invalidate_block(logical);
  return settle_scrub_debt(ops_before);
}

Result<hbm::Beat> ReliableChannel::read(std::uint64_t logical) {
  if (logical >= capacity()) {
    return out_of_range("logical beat out of range");
  }
  OpTimer timer(read_latency_, 1);
  const std::uint64_t ops_before = ops_;
  hbm::Beat data{};
  if (device_lost_ || parked_.contains(logical)) {
    // Journal-backed: the device copy is unservable (whole-PC death, or
    // stuck cells paired up with the spare pool exhausted), the host
    // copy is the truth.
    data = read_journal(logical);
  } else {
    HBMVOLT_RETURN_IF_ERROR(read_device_beat(remap_[logical], &data));
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
  const std::uint64_t ops_before = ops_;
  if (device_lost_) {
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
              stats_.reads += k;
              ops_ += k;
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
        if (!parked_.contains(beat)) {
          return read_device_beat(remap_[beat], out + (beat - logical));
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
  const std::uint64_t ops_before = ops_;
  if (device_lost_) {
    std::copy(data, data + count,
              journal_.begin() + static_cast<long>(logical));
    live_.set_range(logical, count);
    stats_.writes += count;
    ops_ += count;
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
        std::copy(src, src + n, journal_.begin() + static_cast<long>(lo));
        live_.set_range(lo, n);
        stats_.writes += n;
        ops_ += n;
        return Status::ok();
      },
      [&](std::uint64_t beat) -> Status {
        const hbm::Beat& beat_data = data[beat - logical];
        if (!parked_.contains(beat)) {
          HBMVOLT_RETURN_IF_ERROR(write_device_beat(remap_[beat], beat_data));
        }
        journal_[beat] = beat_data;
        live_.set(beat);
        ++stats_.writes;
        ++ops_;
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
              stats_.scrub_beats += k;
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
        const std::uint64_t physical = remap_[beat];
        auto outcome = ecc_->scrub_beat(physical);
        if (!outcome.is_ok()) return outcome.status();
        const ecc::ScrubOutcome& got = outcome.value();
        account_scrub(physical, got.corrected_data, got.corrected_check,
                      got.uncorrectable, got.wrote_back);
        return Status::ok();
      });
}

Status ReliableChannel::scrub_slices(std::uint64_t slices) {
  if (device_lost_ || slices == 0) return Status::ok();  // no silicon
  const std::uint64_t cap = capacity();
  const std::uint64_t per_slice =
      std::min<std::uint64_t>(config_.scrub_batch_beats, cap);
  // Beats [pending, scrub_cursor_) are walked but not yet scrubbed.  A
  // slice that stops mid-block leaves its chunk pending so the next slice
  // extends it; the merged chunk is scrubbed at the block's end (before
  // scan_clean_ is read) or when the walk ends, so it never crosses a
  // block and every beat is scrubbed exactly as its own slice would.
  std::uint64_t pending = kNoBlock;
  const auto flush = [&](std::uint64_t end) -> Status {
    if (pending == kNoBlock) return Status::ok();
    const std::uint64_t lo = pending;
    pending = kNoBlock;
    const Status scrubbed = scrub_chunk(lo, end - lo);
    // A failed scrub rewinds the cursor to the merged chunk's start.
    if (!scrubbed.is_ok()) scrub_cursor_ = lo;
    return scrubbed;
  };
  for (std::uint64_t slice = 0; slice < slices; ++slice) {
    // Each skip consumes a mark and only a full block scan (which spends
    // `remaining`) sets one, so the skips between scans are bounded.
    std::uint64_t remaining = per_slice;
    while (remaining > 0) {
      const std::uint64_t block = scrub_cursor_ / kScrubBlockBeats;
      const std::uint64_t block_start = block * kScrubBlockBeats;
      const std::uint64_t block_end =
          std::min(block_start + kScrubBlockBeats, cap);
      if (scrub_cursor_ == block_start && clean_blocks_.get(block)) {
        // One skip consumes the mark, so staleness is bounded to a round.
        clean_blocks_.clear(block);
        ++stats_.scrub_blocks_skipped;
        scrub_cursor_ = block_end % cap;
        scan_block_ = kNoBlock;
        continue;
      }
      const std::uint64_t chunk =
          std::min(block_end - scrub_cursor_, remaining);
      if (scrub_cursor_ == block_start) {
        scan_block_ = block;
        scan_clean_ = true;
      } else if (scan_block_ != block) {
        // Mid-block entry with no scan in flight: this pass cannot prove
        // the block clean.
        scan_block_ = kNoBlock;
      }
      const std::uint64_t lo = scrub_cursor_;
      if (pending == kNoBlock) pending = lo;
      scrub_cursor_ = (lo + chunk) % cap;
      remaining -= chunk;
      if (lo + chunk == block_end) {
        HBMVOLT_RETURN_IF_ERROR(flush(block_end));
        if (scan_block_ == block) {
          if (scan_clean_) clean_blocks_.set(block);
          scan_block_ = kNoBlock;
        }
      }
    }
  }
  return flush(scrub_cursor_);
}

Status ReliableChannel::patrol_all() {
  if (device_lost_) return Status::ok();  // no silicon to patrol
  // Emergency sweep: trust nothing, re-prove every block.
  invalidate_all_blocks();
  const std::uint64_t cap = capacity();
  for (std::uint64_t start = 0; start < cap; start += kScrubBlockBeats) {
    const std::uint64_t end = std::min(start + kScrubBlockBeats, cap);
    scan_block_ = start / kScrubBlockBeats;
    scan_clean_ = true;
    HBMVOLT_RETURN_IF_ERROR(scrub_chunk(start, end - start));
    if (scan_clean_) clean_blocks_.set(scan_block_);
    scan_block_ = kNoBlock;
  }
  return Status::ok();
}


// ---- Journal rewrite (refresh / post-power-cycle restore / rebuild) ----

Status ReliableChannel::rewrite_live(std::uint64_t logical, std::uint64_t end,
                                     bool verify, std::uint64_t* rewritten) {
  return for_each_live(
      logical, end,
      [&](std::uint64_t lo, std::uint64_t n) -> Status {
        // Plain live run: journal_ is contiguous over it, feed it straight in.
        HBMVOLT_RETURN_IF_ERROR(ecc_->encode_range(lo, n, &journal_[lo]));
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
        const std::uint64_t physical = remap_[beat];
        HBMVOLT_RETURN_IF_ERROR(ecc_->write_beat(physical, journal_[beat]));
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
  if (device_lost_) return Status::ok();  // journal already IS the copy
  HBMVOLT_RETURN_IF_ERROR(rewrite_live_runs(/*verify=*/true));
  ++stats_.journal_refreshes;
  return Status::ok();
}

Status ReliableChannel::restore_after_power_cycle() {
  // A killed PC does not come back with the power cycle (another PC may
  // have requested it before this channel noticed the death): flip into
  // device-lost mode instead of writing into a dead device.
  if (!device_lost_ &&
      board_.stack(pc_.stack).pc_killed(pc_.index)) {
    set_device_lost();
  }
  if (!device_lost_) {
    HBMVOLT_RETURN_IF_ERROR(rewrite_live_runs(/*verify=*/false));
  }
  ++stats_.power_cycles;
  record_ladder(LadderRung::kPowerCycle);
  budget_.reset();
  escalation_pending_ = false;
  return Status::ok();
}


// ---- Whole-device loss (see header) ----

void ReliableChannel::adopt_device(unsigned new_pc_global) {
  HBMVOLT_REQUIRE(device_lost_, "adopt_device requires device-lost mode");
  const hbm::PcId new_pc =
      hbm::PcId::from_global(board_.geometry(), new_pc_global);
  auto fresh = std::make_unique<ecc::EccChannel>(board_.stack(new_pc.stack),
                                                 new_pc.index, config_.codec);
  HBMVOLT_REQUIRE(fresh->data_beats() == ecc_->data_beats(),
                  "spare PC capacity mismatch");
  ecc_ = std::move(fresh);
  pc_global_ = new_pc_global;
  pc_ = new_pc;
  // Device-keyed state resets to the fresh silicon; the logical channel
  // (journal, liveness, stats, budget, ladder trace) carries over.
  reset_mapping(capacity());
  row_events_.clear();
  offender_rows_.clear();
  retired_rows_.clear();
  scrub_cursor_ = 0;
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
                      &stats_.rebuilt_beats);
}

void ReliableChannel::capture(ChannelCheckpoint* out) const {
  ChannelCheckpoint& ck = *out;
  ck.pc_global = pc_global_;
  ck.device_lost = device_lost_;
  ck.budget = budget_.state();
  ck.remap = remap_;
  ck.spares = spares_;
  ck.spare_cursor = spare_cursor_;
  ck.journal = journal_;
  ck.live = live_;
  ck.parked = parked_.keys();
  ck.special = special_.keys();
  ck.row_events.assign(row_events_.begin(), row_events_.end());
  ck.offender_rows = offender_rows_.keys();
  ck.retired_rows = retired_rows_.keys();
  ck.ops = ops_;
  ck.scrub_cursor = scrub_cursor_;
  ck.escalation_pending = escalation_pending_;
  ck.clean_blocks = clean_blocks_;
  ck.scan_block = scan_block_;
  ck.scan_clean = scan_clean_;
  ck.stats = stats_;
  ck.flushed = flushed_;
  ck.ladder_trace = ladder_trace_;
  ck.ecc_shadow = ecc_->shadow_checks();
  ck.ecc_stats = ecc_->stats();
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
  const hbm::PcId pc = hbm::PcId::from_global(board_.geometry(), ck.pc_global);
  ecc_ = std::make_unique<ecc::EccChannel>(board_.stack(pc.stack), pc.index,
                                           config_.codec);
  pc_global_ = ck.pc_global;
  pc_ = pc;
  ecc_->restore_state(ck.ecc_shadow, ck.ecc_stats);
  device_lost_ = ck.device_lost;
  budget_.restore(ck.budget);
  remap_ = ck.remap;
  spares_ = ck.spares;
  spare_cursor_ = ck.spare_cursor;
  journal_ = ck.journal;
  live_ = ck.live;  // word copy
  parked_.clear();
  for (const std::uint64_t key : ck.parked) parked_.insert(key);
  special_.clear();
  for (const std::uint64_t key : ck.special) special_.insert(key);
  row_events_.clear();
  for (const auto& [key, count] : ck.row_events) row_events_.add(key, count);
  offender_rows_.clear();
  for (const std::uint64_t key : ck.offender_rows) offender_rows_.insert(key);
  retired_rows_.clear();
  for (const std::uint64_t key : ck.retired_rows) retired_rows_.insert(key);
  ops_ = ck.ops;
  scrub_cursor_ = ck.scrub_cursor;
  escalation_pending_ = ck.escalation_pending;
  clean_blocks_ = ck.clean_blocks;
  scan_block_ = ck.scan_block;
  scan_clean_ = ck.scan_clean;
  stats_ = ck.stats;
  flushed_ = ck.flushed;
  ladder_trace_ = ck.ladder_trace;
}

// ---- Retirement ladder ----

Result<std::uint64_t> ReliableChannel::allocate_spare() {
  while (spare_cursor_ < spares_.size()) {
    const std::uint64_t beat = spares_[spare_cursor_];
    const std::uint64_t key = row_key(beat);
    // Never migrate onto a retired row, nor onto a row currently being
    // evacuated.  Skipped spares are permanently consumed (cheap, and
    // keeps the cursor deterministic).
    if (retired_rows_.contains(key) || offender_rows_.contains(key)) {
      ++spare_cursor_;
      continue;
    }
    return beat;
  }
  return unavailable("spare pool exhausted");
}

void ReliableChannel::park_beat(std::uint64_t logical) {
  parked_.insert(logical);
  special_.insert(logical);
  ++stats_.beats_parked;
}

void ReliableChannel::remap_beat(std::uint64_t logical, std::uint64_t spare) {
  remap_[logical] = static_cast<std::uint32_t>(spare);
  // Remapped beats stay exceptions forever: remap never reverts.
  special_.insert(logical);
}

Status ReliableChannel::retire_offenders(bool* retired_any, bool* parked_any,
                                         bool* blocked) {
  *retired_any = false;
  *parked_any = false;
  *blocked = false;
  const Millivolts nominal = board_.config().regulator_config.vout_default;
  // Ascending row order (SortedKeySet iterates sorted); copied because the
  // loop erases absorbed rows.
  const std::vector<std::uint64_t> rows = offender_rows_.keys();
  for (const std::uint64_t row : rows) {
    bool row_blocked = false;
    bool spares_ran_out = false;
    for (std::uint64_t logical = 0; logical < capacity(); ++logical) {
      if (row_key(remap_[logical]) != row || parked_.contains(logical)) {
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
        if (!live_.get(logical)) continue;
        auto got = ecc_->read_beat(remap_[logical]);
        if (!got.is_ok()) return got.status();
        if (got.value().uncorrectable == 0) continue;
        if (board_.hbm_voltage() < nominal) {
          // A raise can still shrink the stuck set; climb first.
          row_blocked = true;
          break;
        }
        HBMVOLT_RETURN_IF_ERROR(
            ecc_->write_beat(remap_[logical], journal_[logical]));
        auto again = ecc_->read_beat(remap_[logical]);
        if (!again.is_ok()) return again.status();
        if (again.value().uncorrectable > 0) {
          park_beat(logical);
        }
        *parked_any = true;
        continue;
      }
      hbm::Beat data{};
      if (live_.get(logical)) {
        // Migrate through ECC, as real row-repair would: the journal is
        // reserved for last-resort recovery, not steady-state reads.
        auto got = ecc_->read_beat(remap_[logical]);
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
          data = journal_[logical];
          ++stats_.journal_migrations;
        } else {
          data = got.value().data;
        }
      }
      HBMVOLT_RETURN_IF_ERROR(ecc_->write_beat(spare.value(), data));
      remap_beat(logical, spare.value());
      ++spare_cursor_;  // commit the allocation
      ++stats_.beats_migrated;
    }
    if (row_blocked) {
      *blocked = true;
      continue;
    }
    if (spares_ran_out) {
      // Handled in place (repairs/parks), not migrated: the row is not
      // retired, but it no longer owes the ladder anything either.
      offender_rows_.erase(row);
      row_events_.erase(row);
      continue;
    }
    retired_rows_.insert(row);
    offender_rows_.erase(row);
    row_events_.erase(row);
    ++stats_.rows_retired;
    *retired_any = true;
  }
  if (*retired_any) ++stats_.retires;
  return Status::ok();
}

Result<LadderRung> ReliableChannel::escalate() {
  if (device_lost_) {
    // Whole-PC loss is beyond every PC-local rung and no global rung
    // recovers it either; the journal (and, in stripe mode, the fleet's
    // reconstruction/rebuild) is already serving.  Absorb the escalation.
    budget_.reset();
    escalation_pending_ = false;
    return LadderRung::kCorrect;
  }
  if (escalation_pending_) {
    // An uncorrectable word was seen: something (a fault storm, a deep
    // undervolt) is arming codewords faster than the rotating patrol
    // covers them.  Sweep every live beat NOW, so the retirement below
    // handles the whole blast radius in one ladder action -- an armed
    // word left undiscovered is one soft upset away from a SECDED
    // miscorrection.
    HBMVOLT_RETURN_IF_ERROR(patrol_all());
  }
  // Promote rows that crossed the event threshold to offenders.
  for (const auto& [key, events] : row_events_) {
    if (events >= config_.retire_threshold && !retired_rows_.contains(key)) {
      offender_rows_.insert(key);
    }
  }
  if (!escalation_pending_ && !budget_.burned() && offender_rows_.empty()) {
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
    escalation_pending_ = false;
    return LadderRung::kCorrect;
  }

  const Millivolts nominal = board_.config().regulator_config.vout_default;
  if (blocked || escalation_pending_) {
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
    ++stats_.raises;
    record_ladder(LadderRung::kRaiseVoltage);
  }
  budget_.reset();
  escalation_pending_ = false;
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
    flushed_ = stats_;
    // Nothing records latency without an active instance, but clear
    // anyway so a mid-run disable cannot leak stale samples later.
    read_latency_.clear();
    write_latency_.clear();
    return;
  }
  auto& metrics = tel->metrics();
  const std::size_t pcs = board_.geometry().total_pcs();
  // The per-PC hot counters export as `{pc=N}` families (the bare name
  // stays the cross-PC total in every sink); low-rate ladder bookkeeping
  // stays un-labeled.
  const auto emit_pc = [&](const char* name, std::uint64_t now,
                           std::uint64_t before) {
    if (now > before) {
      metrics.counter_family(name, "pc", pcs).at(pc_global_).add(now - before);
    }
  };
  const auto emit = [tel](const char* name, std::uint64_t now,
                          std::uint64_t before) {
    if (now > before) tel->count(name, now - before);
  };
  emit_pc("runtime.reads", stats_.reads, flushed_.reads);
  emit_pc("runtime.writes", stats_.writes, flushed_.writes);
  emit_pc("runtime.corrected_words", stats_.corrected_words,
          flushed_.corrected_words);
  emit_pc("runtime.corrected_check_words", stats_.corrected_check_words,
          flushed_.corrected_check_words);
  emit_pc("runtime.uncorrectable_blocked", stats_.uncorrectable_blocked,
          flushed_.uncorrectable_blocked);
  emit("runtime.rows_retired", stats_.rows_retired, flushed_.rows_retired);
  emit("runtime.beats_migrated", stats_.beats_migrated,
       flushed_.beats_migrated);
  emit_pc("runtime.beats_parked", stats_.beats_parked, flushed_.beats_parked);
  emit_pc("runtime.journal_served_reads", stats_.journal_served_reads,
          flushed_.journal_served_reads);
  emit("runtime.verify_caught", stats_.verify_caught, flushed_.verify_caught);
  emit("runtime.journal_refreshes", stats_.journal_refreshes,
       flushed_.journal_refreshes);
  emit_pc("runtime.reconstructed_reads", stats_.reconstructed_reads,
          flushed_.reconstructed_reads);
  emit_pc("runtime.rebuilt_beats", stats_.rebuilt_beats,
          flushed_.rebuilt_beats);
  emit_pc("scrub.beats", stats_.scrub_beats, flushed_.scrub_beats);
  emit("scrub.corrected", stats_.scrub_corrected, flushed_.scrub_corrected);
  emit("scrub.uncorrectable", stats_.scrub_uncorrectable,
       flushed_.scrub_uncorrectable);
  emit("scrub.writebacks", stats_.scrub_writebacks,
       flushed_.scrub_writebacks);
  emit("scrub.blocks_skipped", stats_.scrub_blocks_skipped,
       flushed_.scrub_blocks_skipped);
  metrics.gauge_family("runtime.spares_free", "pc", pcs)
      .at(pc_global_)
      .set(static_cast<std::int64_t>(spares_free()));
  metrics.gauge_family("runtime.parked_beats", "pc", pcs)
      .at(pc_global_)
      .set(static_cast<std::int64_t>(parked_count()));
  if (read_latency_.count() > 0) {
    metrics.hdr_family("latency.read", "pc", pcs)
        .merge_into(pc_global_, read_latency_);
  }
  if (write_latency_.count() > 0) {
    metrics.hdr_family("latency.write", "pc", pcs)
        .merge_into(pc_global_, write_latency_);
  }
  read_latency_.clear();
  write_latency_.clear();
  flushed_ = stats_;
}

}  // namespace hbmvolt::runtime
