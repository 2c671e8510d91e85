#include "runtime/fleet.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/parallel.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::runtime {
namespace {

/// The fleet's burn-rate alert rules, evaluated at every barrier: page
/// when the corrected rate burns the channel budget's own SLO, when reads
/// start leaking into the host journal faster than 1%, and when stripe
/// reconstruction serves more than 1% of reads (a dead PC whose rebuild
/// is not keeping up) -- each with a sharp fast window and a calmer slow
/// window.  Deterministic regardless of thread count or telemetry state
/// (see telemetry/alerts.hpp).
std::vector<telemetry::AlertRule> alert_rules(const FleetConfig& config) {
  std::vector<telemetry::AlertRule> rules = {
      {"corrected_burn", telemetry::AlertSignal::kCorrectedRate,
       config.channel.budget.corrected_slo, 1, 4.0, 4, 1.0},
      {"journal_served", telemetry::AlertSignal::kJournalServedRate, 0.01, 1,
       4.0, 4, 1.0},
      {"reconstructed", telemetry::AlertSignal::kReconstructedRate, 0.01, 1,
       4.0, 4, 1.0},
  };
  if (config.source != nullptr) {
    // Request-plane runs also page on sustained shedding: 5% of offered
    // load refused is the budget, same sharp-fast / calm-slow windows.
    rules.push_back({"shed_burn", telemetry::AlertSignal::kShedRate, 0.05, 1,
                     4.0, 4, 1.0});
  }
  return rules;
}

void xor_into(hbm::Beat& acc, const hbm::Beat& b) noexcept {
  for (unsigned w = 0; w < 4; ++w) acc[w] ^= b[w];
}

/// Share of writes in the built-in uniform-random streams.
constexpr double kWriteFraction = 0.25;

/// Failed reads of one beat before the run fails outright.
constexpr unsigned kMaxBeatAttempts = 64;

/// The one-slot fleet's config: the channel's own config (the barrier
/// reads its raise step) and one epoch wide enough for the whole trace.
FleetConfig one_slot_config(const ReliableChannel& channel,
                            const ReliableChannelConfig& channel_config,
                            std::uint64_t records) {
  FleetConfig config;
  config.pcs = {channel.pc_global()};
  config.channel = channel_config;
  config.ops_per_epoch = std::max<std::uint64_t>(records, 1);
  return config;
}

}  // namespace

std::uint64_t count_mismatched_beats(const hbm::Beat* got,
                                     const hbm::Beat* want, std::uint64_t n) {
  if (n == 0 || std::memcmp(got, want, n * sizeof(hbm::Beat)) == 0) return 0;
  std::uint64_t mismatched = 0;
  for (std::uint64_t k = 0; k < n; ++k) mismatched += got[k] != want[k];
  return mismatched;
}

/// The built-in per-PC streams as a RequestSource over the fleet's demand
/// streams.  A request is a maximal run of consecutive beats in one
/// effective direction (a read of a never-written beat is a write),
/// capped at the slot's remaining epoch budget -- or a single record when
/// a storm hook is set, so storms tick per op.  The payload identity is
/// the record index.  Built-in requests never hedge or shed.  Each
/// slot's record cursor and request in flight are its PcState's
/// `next_record` and `pending`, so a checkpoint carries them.
class ServingFleet::StreamSource final : public RequestSource {
 public:
  explicit StreamSource(ServingFleet& fleet) : fleet_(fleet) {}

  void begin_epoch(const ServingFleet&, std::uint64_t) override {}

  const PlacedRequest* front(std::size_t slot) override {
    PcState& st = fleet_.states_[slot];
    if (st.pending.count > 0) return &st.pending;
    const workload::DemandStream& demand = fleet_.demand_[slot];
    if (st.next_record >= demand.size()) return nullptr;
    const ReliableChannel& channel = *fleet_.channels_[slot];
    const std::uint64_t budget =
        fleet_.config_.storm_hook
            ? 1
            : std::min<std::uint64_t>(demand.size() - st.next_record,
                                      fleet_.config_.ops_per_epoch - st.served);
    PlacedRequest& r = st.pending;
    r.payload = st.next_record;
    r.deadline_attempts = std::numeric_limits<unsigned>::max();
    // Split each raw run by liveness, word-wide; a piece that reaches the
    // raw run's end merges with the next raw run when that one continues
    // the beats in the same effective direction.  Consecutive beats stay
    // inside the slot, so the count fits the request's 32 bits.
    std::uint64_t count = 0;
    while (count < budget) {
      const workload::DemandRun run =
          demand.run(st.next_record + count, budget - count);
      const bool live = channel.journal_live(run.beat);
      const bool write = run.write || !live;
      if (count == 0) {
        r.logical = run.beat;
        r.write = write;
      } else if (run.beat != r.logical + count || write != r.write) {
        break;
      }
      const std::uint64_t n =
          run.write ? run.count : channel.live_run(run.beat, live, run.count);
      count += n;
      if (n < run.count) break;
    }
    r.count = static_cast<std::uint32_t>(count);
    return &r;
  }

  void complete(std::size_t slot, const PlacedRequest& request, ServeOutcome,
                unsigned, std::uint64_t) override {
    fleet_.states_[slot].next_record += request.count;
    fleet_.states_[slot].pending.count = 0;
  }
  bool spend_retry(std::size_t, std::uint32_t) override { return true; }
  void end_epoch(telemetry::EpochSample*) override {}

  [[nodiscard]] bool exhausted() const override {
    for (std::size_t i = 0; i < fleet_.demand_.size(); ++i) {
      if (fleet_.states_[i].next_record < fleet_.demand_[i].size()) {
        return false;
      }
    }
    return true;
  }
  [[nodiscard]] std::uint64_t epochs_remaining_bound() const override {
    std::uint64_t longest = 0;
    for (const workload::DemandStream& demand : fleet_.demand_) {
      longest = std::max(longest, demand.size());
    }
    const std::uint64_t epoch = fleet_.config_.ops_per_epoch;
    return (longest + epoch - 1) / epoch;
  }
  void fill_health(HealthRegistry*) const override {}
  [[nodiscard]] std::uint64_t fingerprint() const override { return 0; }

 private:
  ServingFleet& fleet_;
};

ServingFleet::ServingFleet(board::Vcu128Board& board, FleetConfig config)
    : board_(board),
      config_(std::move(config)),
      data_seed_(mix_seed(config_.seed, 0xDA7A)),
      alerts_(alert_rules(config_)) {
  HBMVOLT_REQUIRE(config_.ops_per_epoch > 0, "epoch must serve ops");
  if (config_.pcs.empty()) {
    for (unsigned pc = 0; pc < board_.geometry().total_pcs(); ++pc) {
      config_.pcs.push_back(pc);
    }
  }
  // The scheme owns the per-word codec; kStripe additionally carves the
  // PC pool into stripe groups + parity PCs + spares.
  config_.channel.codec = mitigate::scheme_info(config_.scheme).codec;
  std::vector<unsigned> pcs = config_.pcs;  // every channel's PC, in order
  if (striped()) {
    const unsigned width = config_.stripe_width;
    HBMVOLT_REQUIRE(width >= 2, "stripe width must be at least 2");
    HBMVOLT_REQUIRE(config_.rebuild_beats_per_epoch > 0,
                    "rebuild step must make progress");
    const std::size_t group_count = pcs.size() / (width + 1);
    HBMVOLT_REQUIRE(group_count >= 1,
                    "stripe needs at least width+1 pseudo-channels");
    const std::size_t serving = group_count * width;
    config_.pcs.resize(serving);
    spare_pcs_.assign(pcs.begin() + serving + group_count, pcs.end());
    pcs.resize(serving + group_count);
    groups_.resize(group_count);
  }
  owned_.reserve(pcs.size());
  for (const unsigned pc : pcs) {
    owned_.push_back(
        std::make_unique<ReliableChannel>(board_, pc, config_.channel));
    channels_.push_back(owned_.back().get());
  }
  for (std::size_t c = 0; striped() && c < channels_.size(); ++c) {
    // Stripe XOR needs every member and parity channel address-congruent.
    const std::uint64_t capacity = channels_[c]->capacity();
    HBMVOLT_REQUIRE(c < channels() ? capacity == channels_[0]->capacity()
                                   : capacity >= channels_[0]->capacity(),
                    "stripe members must have equal capacity, parity no less");
  }
  // Request-plane mode: the source's slot queues replace the built-in
  // streams entirely.  Sweeps are arithmetic and store no records.
  for (std::size_t i = 0; config_.source == nullptr && i < channels(); ++i) {
    const std::uint64_t capacity = channels_[i]->capacity();
    demand_.push_back(
        config_.streaming_passes > 0
            ? workload::DemandStream::sweep(capacity, config_.streaming_passes)
            : workload::DemandStream::replay(workload::make_uniform_random(
                  capacity, config_.ops_per_pc, kWriteFraction,
                  stream_seed(config_.seed, 0xF1EE7, config_.pcs[i], 0))));
  }
  init_slots();
}

ServingFleet::ServingFleet(ReliableChannel& channel,
                           const workload::AccessTrace& trace,
                           std::uint64_t data_seed)
    : board_(channel.board_),
      config_(one_slot_config(channel, channel.config_, trace.size())),
      data_seed_(data_seed),
      alerts_(alert_rules(config_)) {
  channels_.push_back(&channel);
  workload::AccessTrace wrapped = trace;
  wrapped.wrap_beats(channel.capacity());
  demand_.push_back(workload::DemandStream::replay(std::move(wrapped)));
  init_slots();
}

void ServingFleet::init_slots() {
  states_.resize(channels());
  epoch_prev_.reserve(channels_.size());
  for (const ReliableChannel* channel : channels_) {
    epoch_prev_.push_back(channel->stats());
  }
  health_.reset(channels());
  streams_ = std::make_unique<StreamSource>(*this);
  source_ = config_.source != nullptr ? config_.source : streams_.get();
}

ServingFleet::~ServingFleet() = default;

Result<ServeReport> ReliableChannel::serve_trace(
    const workload::AccessTrace& trace, std::uint64_t data_seed) {
  ServingFleet fleet(*this, trace, data_seed);
  auto run = fleet.run();
  if (!run.is_ok()) return run.status();
  const FleetReport& r = run.value();
  return ServeReport{r.ops, r.reads, r.writes, r.corrupt_reads,
                     r.escalated_reads};
}

// ---- Scheme-dispatching op wrappers ----

bool ServingFleet::absorb_device_loss(ReliableChannel& ch) {
  const hbm::PcId pc =
      hbm::PcId::from_global(board_.geometry(), ch.pc_global());
  if (!board_.stack(pc.stack).pc_killed(pc.index)) return false;
  if (!ch.device_lost()) {
    ch.set_device_lost();
    HBMVOLT_LOG_INFO("runtime: PC %u device lost; serving from %s",
                     ch.pc_global(), striped() ? "stripe" : "journal");
    if (auto* tel = telemetry::Telemetry::active()) {
      tel->count("runtime.fleet.device_lost");
    }
  }
  return true;
}

hbm::Beat ServingFleet::group_xor(std::size_t g, std::uint64_t logical,
                                  std::size_t skip) const {
  hbm::Beat acc{};
  for (std::size_t k = 0; k <= config_.stripe_width; ++k) {
    const std::size_t c = group_channel(g, k);
    if (c != skip && channels_[c]->journal_live(logical)) {
      xor_into(acc, channels_[c]->journal_beat(logical));
    }
  }
  return acc;
}

Status ServingFleet::do_write(std::size_t i, std::uint64_t logical,
                              std::uint64_t count, const hbm::Beat* data) {
  // One beat takes the channel's per-op path, a longer run its range engine.
  const auto write = [&](ReliableChannel& ch, const hbm::Beat* beats) {
    return count == 1 ? ch.write(logical, beats[0])
                      : ch.write_range(logical, count, beats);
  };
  ReliableChannel& member = *channels_[i];
  Status wrote = write(member, data);
  if (!wrote.is_ok() || !striped()) return wrote;

  // Maintain the stripe invariant: parity journal/device hold the XOR of
  // the live member journals.  Recomputing (rather than delta-patching)
  // makes retries after a mid-op crash idempotent -- the member journal
  // only advances on success, and this XOR is a pure function of it.
  const std::size_t g = group_of(i);
  ReliableChannel& parity = *channels_[parity_of(g)];
  std::vector<hbm::Beat>& pbuf = states_[i].pbuf;
  pbuf.resize(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    pbuf[k] = group_xor(g, logical + k, parity_of(g));
  }
  Status ps = write(parity, pbuf.data());
  if (ps.code() == StatusCode::kUnavailable && absorb_device_loss(parity)) {
    ps = write(parity, pbuf.data());  // journal-only now
  }
  if (!ps.is_ok()) return ps;

  // Writes landing behind the rebuild cursor must refresh the adopted
  // silicon too, or the rebuilt device copy goes stale vs the journal.
  // Only the written member and the parity changed here.
  const StripeGroup& grp = groups_[g];
  if (logical >= grp.rebuild_cursor ||
      (grp.rebuilding != i && grp.rebuilding != parity_of(g)) ||
      !channels_[grp.rebuilding]->device_lost()) {
    return Status::ok();
  }
  return channels_[grp.rebuilding]->rebuild_device_range(
      logical, std::min(grp.rebuild_cursor, logical + count) - logical);
}

Result<hbm::Beat> ServingFleet::stripe_fetch(ReliableChannel& ch,
                                             std::uint64_t logical,
                                             PcState& st) {
  for (unsigned attempt = 0; attempt < 8; ++attempt) {
    auto got = ch.read(logical);
    if (got.is_ok()) return got;
    if (got.status().code() == StatusCode::kUnavailable) {
      // A killed contributor keeps serving through its journal.
      if (absorb_device_loss(ch)) continue;
      return got.status();  // board-level: the caller requests a cycle
    }
    if (got.status().code() != StatusCode::kDataLoss) return got.status();
    auto rung = ch.escalate();
    if (!rung.is_ok()) return rung.status();
    if (rung.value() != LadderRung::kCorrect) {
      // Park the contributor's global need on the member being served;
      // the op retries after the barrier applies it.
      st.park(rung.value());
      return data_loss("stripe contributor needs a global ladder rung");
    }
  }
  return data_loss("stripe contributor read did not converge");
}

Result<hbm::Beat> ServingFleet::reconstruct_read(std::size_t i,
                                                 std::uint64_t logical) {
  const std::size_t g = group_of(i);
  PcState& st = states_[i];
  hbm::Beat acc{};
  auto parity = stripe_fetch(*channels_[parity_of(g)], logical, st);
  if (!parity.is_ok()) return parity.status();
  xor_into(acc, parity.value());
  const std::size_t base = g * config_.stripe_width;
  for (std::size_t s = base; s < base + config_.stripe_width; ++s) {
    if (s == i) continue;
    ReliableChannel& peer = *channels_[s];
    if (!peer.journal_live(logical)) continue;
    auto got = stripe_fetch(peer, logical, st);
    if (!got.is_ok()) return got.status();
    xor_into(acc, got.value());
  }
  ++channels_[i]->state_.stats.reconstructed_reads;
  return acc;
}

Result<hbm::Beat> ServingFleet::do_read(std::size_t i, std::uint64_t logical) {
  ReliableChannel& member = *channels_[i];
  if (!striped() || !member.device_lost()) return member.read(logical);
  // Reconstruction survives exactly one lost member per group; a second
  // loss degrades to journal-backed serving (still zero corrupt reads).
  const std::size_t base = group_of(i) * config_.stripe_width;
  for (std::size_t s = base; s < base + config_.stripe_width; ++s) {
    if (s != i && channels_[s]->device_lost()) return member.read(logical);
  }
  return reconstruct_read(i, logical);
}

// ---- Epoch workers ----

bool ServingFleet::storm_tick_slot(std::size_t i) {
  PcState& st = states_[i];
  if (!config_.storm_hook || st.cursor < st.storm_next) return true;
  ReliableChannel& channel = *channels_[i];
  const bool alarm = config_.storm_hook(config_.pcs[i], st.cursor);
  st.storm_next = st.cursor + 1;
  if (!alarm) return true;
  // Environmental alarm: flush soft state and expose any word the storm
  // armed before SECDED can miscorrect it (see refresh_from_journal).
  const Status refreshed = channel.refresh_from_journal();
  if (refreshed.code() == StatusCode::kUnavailable) {
    // Whole-PC death leaves nothing to refresh: keep serving through the
    // journal / stripe reconstruction.  A crashed stack needs rung 3.
    if (!absorb_device_loss(channel)) return st.park(LadderRung::kPowerCycle);
  } else if (!refreshed.is_ok()) {
    return st.fail(refreshed);
  }
  return !channel.escalation_pending() || st.take(channel.escalate());
}

bool ServingFleet::serve_slot_epoch(std::size_t i) {
  ReliableChannel& channel = *channels_[i];
  RequestSource& source = *source_;
  const unsigned pc = config_.pcs[i];
  PcState& st = states_[i];
  PcState::Flight& f = st.flight;
  st.wants_global = false;
  st.served = 0;
  const std::uint64_t reconstruct_ns =
      kModelDeviceReadNs * (striped() ? config_.stripe_width + 1 : 1);
  // Consume a burned budget after every run and op, before a read trips
  // on it; striped writes (and bulk runs) also settle the parity channel.
  const auto settle = [&](bool parity_touched) {
    return st.settle(channel) &&
           (!parity_touched || st.settle(*channels_[parity_of(group_of(i))]));
  };

  while (st.served < config_.ops_per_epoch) {
    const PlacedRequest* queued = source.front(i);
    if (queued == nullptr) return true;  // slot drained for this epoch
    // One storm tick per request (st.cursor is the request tick); a
    // parked request resumes at the same tick, so the storm_next guard
    // keeps the schedule identical across retries.
    if (!storm_tick_slot(i)) return false;
    const PlacedRequest r = *queued;
    const std::uint64_t cap = channel.capacity();
    HBMVOLT_REQUIRE(
        r.count > 0 && r.count <= cap && r.logical <= cap - r.count,
        "placed request outside slot capacity");

    // Model-latency bookkeeping: read paths are classified after the
    // fact from the channel's own stat deltas (journal-served vs stripe-
    // reconstructed vs device), so the worker never second-guesses the
    // channel's routing.
    std::uint64_t js_prev = channel.stats().journal_served_reads;
    std::uint64_t rc_prev = channel.stats().reconstructed_reads;
    bool shed = false;
    bool parity_touched = false;
    while (f.done < r.count) {
      const std::uint64_t logical = r.logical + f.done;
      const bool write_op = r.write || !channel.journal_live(logical);
      // The maximal same-direction run from here: the range fast path.
      const std::uint64_t left = r.count - f.done;
      std::uint64_t n = r.write || left == 1
                            ? left
                            : channel.live_run(logical, !write_op, left);
      const bool lost = channel.device_lost();
      bool ran = false;  // the whole run [logical, logical + n) served
      if (!write_op &&
          ((r.stale_ok && lost) || (r.hedge && (lost || f.hedging)))) {
        // QoS shortcut: when the device copy is gone (or the deadline is
        // already blown for a hedging tenant), answer from the journal
        // copy -- it is the reference every read is verified against, so
        // this trades device fidelity, not correctness, for latency.
        st.report.reads += n;
        f.model_ns += n * kModelJournalNs;
        if (f.outcome == ServeOutcome::kServed) {
          f.outcome = (r.hedge && (f.hedging || !r.stale_ok))
                          ? ServeOutcome::kHedged
                          : ServeOutcome::kStale;
        }
        ran = true;
      } else if (write_op) {
        // Payloads are pure in the request's payload identity, so a
        // re-served run rewrites identical data.
        st.beats.resize(n);
        for (std::uint64_t k = 0; k < n; ++k) {
          st.beats[k] = make_payload(data_seed_, pc, r.payload + f.done + k);
        }
        const Status wrote = do_write(i, logical, n, st.beats.data());
        if (!wrote.is_ok()) {
          if (wrote.code() != StatusCode::kUnavailable) return st.fail(wrote);
          // Whole-PC death is absorbed locally (journal/stripe serving);
          // a crashed stack requests rung 3 and ends the epoch -- the run
          // is retried after the barrier's power-cycle + restore.
          if (absorb_device_loss(channel)) continue;
          ++st.attempts;
          return st.park(LadderRung::kPowerCycle);
        }
        st.report.writes += n;
        f.model_ns += n * (channel.device_lost() ? kModelJournalNs
                                                 : kModelDeviceWriteNs);
        ran = true;
      } else if (n >= 2 && !config_.storm_hook && !lost) {
        st.beats.resize(n);
        const Status bulk = channel.read_range(logical, n, st.beats.data());
        if (bulk.is_ok()) {
          st.report.corrupt_reads += count_mismatched_beats(
              st.beats.data(), &channel.journal_beat(logical), n);
          st.report.reads += n;
          f.model_ns += n * kModelDeviceReadNs;
          ran = true;
        } else if (bulk.code() != StatusCode::kDataLoss &&
                   bulk.code() != StatusCode::kUnavailable) {
          return st.fail(bulk);
        }
        // Otherwise the per-op path below re-serves the run's first beat
        // with the usual escalate-and-retry handling.
      }
      if (!ran) {
        n = 1;
        auto got = do_read(i, logical);
        if (!got.is_ok()) {
          ++f.rounds;
          if (++st.attempts > kMaxBeatAttempts) return st.fail(got.status());
          if (st.wants_global) return false;  // parked by a stripe fetch
          if (got.status().code() == StatusCode::kUnavailable) {
            if (absorb_device_loss(channel)) continue;  // journal/stripe
            return st.park(LadderRung::kPowerCycle);
          }
          if (got.status().code() != StatusCode::kDataLoss) {
            return st.fail(got.status());
          }
          auto rung = channel.escalate();
          if (!rung.is_ok()) return st.fail(rung.status());
          f.model_ns += kModelEscalateNs;
          if (f.rounds > r.deadline_attempts ||
              !source.spend_retry(i, r.tenant)) {
            // Deadline blown (or the tenant's retry slice is dry):
            // guaranteed tenants hedge the rest of the request to the
            // journal, best-effort requests are shed mid-serve.
            if (r.hedge) {
              f.hedging = true;
              continue;
            }
            shed = true;
            break;
          }
          if (!st.take(rung)) return false;  // retried after the barrier
          continue;  // local correction: retry the same beat now
        }
        if (got.value() != channel.journal_beat(logical)) {
          ++st.report.corrupt_reads;
        }
        ++st.report.reads;
        if (st.attempts > 0) ++st.report.escalated_reads;
        const std::uint64_t js = channel.stats().journal_served_reads;
        const std::uint64_t rc = channel.stats().reconstructed_reads;
        f.model_ns += rc > rc_prev   ? reconstruct_ns
                      : js > js_prev ? kModelJournalNs
                                     : kModelDeviceReadNs;
      }
      js_prev = channel.stats().journal_served_reads;
      rc_prev = channel.stats().reconstructed_reads;
      f.done += n;
      st.served += n;
      st.attempts = 0;
      parity_touched = striped() && (write_op || n >= 2);
      // A parked request resumes at f.done; the last run settles once the
      // request is complete.
      if (f.done < r.count && !settle(parity_touched)) return false;
    }

    source.complete(i, r, shed ? ServeOutcome::kShed : f.outcome, f.rounds,
                    f.model_ns);
    st.report.ops += r.count;
    ++st.cursor;  // next request tick
    f = PcState::Flight{};
    if (!settle(parity_touched)) return false;
  }
  return true;
}

void ServingFleet::serve_group_epoch(std::size_t g) {
  const std::size_t base = g * config_.stripe_width;
  for (std::size_t s = base; s < base + config_.stripe_width; ++s) {
    serve_slot_epoch(s);
  }
  rebuild_step(g);
}

void ServingFleet::rebuild_step(std::size_t g) {
  StripeGroup& grp = groups_[g];
  grp.wants_global = false;
  if (grp.rebuilding == StripeGroup::kIdle) return;
  ReliableChannel& ch = *channels_[grp.rebuilding];
  const std::uint64_t cap = ch.capacity();
  std::uint64_t budget = config_.rebuild_beats_per_epoch;
  while (budget > 0 && grp.rebuild_cursor < cap) {
    const std::uint64_t cur = grp.rebuild_cursor;
    if (!ch.journal_live(cur)) {
      grp.rebuild_cursor += ch.live_run(cur, false, cap - cur);
      continue;
    }
    const std::uint64_t end =
        cur + ch.live_run(cur, true, std::min(budget, cap - cur));
    // Cross-check the stripe invariant before trusting the journal copy:
    // the rebuilt data must equal what XOR reconstruction would serve.
    for (std::uint64_t l = cur; l < end; ++l) {
      HBMVOLT_REQUIRE(group_xor(g, l, grp.rebuilding) == ch.journal_beat(l),
                      "stripe invariant violated during rebuild");
    }
    const Status rebuilt = ch.rebuild_device_range(cur, end - cur);
    if (!rebuilt.is_ok()) {
      if (rebuilt.code() == StatusCode::kUnavailable) {
        grp.park(LadderRung::kPowerCycle);
      } else {
        grp.fail(rebuilt);
      }
      return;
    }
    budget -= end - cur;
    grp.rebuild_cursor = end;
  }
  if (grp.rebuild_cursor >= cap) {
    ch.finish_rebuild();
    HBMVOLT_LOG_INFO("runtime: PC %u rebuilt onto spare silicon (%llu beats)",
                     ch.pc_global(),
                     static_cast<unsigned long long>(
                         ch.stats().rebuilt_beats));
    if (auto* tel = telemetry::Telemetry::active()) {
      tel->count("runtime.fleet.rebuild_complete");
    }
    grp.rebuilding = StripeGroup::kIdle;
    grp.rebuild_cursor = 0;
  }
}

void ServingFleet::claim_spares() {
  if (!striped()) return;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    StripeGroup& grp = groups_[g];
    if (grp.rebuilding != StripeGroup::kIdle) continue;
    if (spare_next_ >= spare_pcs_.size()) return;  // pool dry: stay degraded
    std::size_t k = 0;
    while (k <= config_.stripe_width &&
           !channels_[group_channel(g, k)]->device_lost()) {
      ++k;
    }
    if (k > config_.stripe_width) continue;  // nothing lost
    grp.rebuilding = group_channel(g, k);
    ReliableChannel& ch = *channels_[grp.rebuilding];
    const unsigned spare_pc = spare_pcs_[spare_next_++];
    ch.adopt_device(spare_pc);
    ch.record_ladder(LadderRung::kStripeRebuild);
    grp.rebuild_cursor = 0;
    HBMVOLT_LOG_INFO("runtime: group %zu adopts spare PC %u for rebuild", g,
                     spare_pc);
  }
}

void ServingFleet::close_epoch(std::uint64_t epoch) {
  // Fleet-wide deltas since the previous barrier, folded in PC index
  // order.  Everything here *reads* channel state the barrier already
  // made deterministic, so the sample stream -- and with it the alert
  // events and health snapshots -- is identical at any thread count and
  // with telemetry on or off.
  telemetry::EpochSample sample;
  sample.epoch = epoch;
  double burn_max = 0.0;
  const char* scheme_name = mitigate::to_string(config_.scheme);
  for (std::size_t i = 0; i < channels(); ++i) {
    ReliableChannel& channel = *channels_[i];
    const ChannelStats& now = channel.stats();
    const ChannelStats& prev = epoch_prev_[i];
    sample.reads += now.reads - prev.reads;
    sample.writes += now.writes - prev.writes;
    sample.corrected += (now.corrected_words + now.corrected_check_words) -
                        (prev.corrected_words + prev.corrected_check_words);
    sample.uncorrectable +=
        now.uncorrectable_blocked - prev.uncorrectable_blocked;
    sample.journal_served +=
        now.journal_served_reads - prev.journal_served_reads;
    sample.reconstructed +=
        now.reconstructed_reads - prev.reconstructed_reads;
    sample.parked += channel.parked_count();
    epoch_prev_[i] = now;

    burn_max = std::max(burn_max, channel.budget().burn_fraction());
    const char* stripe_state = "-";
    if (striped()) {
      const StripeGroup& grp = groups_[group_of(i)];
      stripe_state = !channel.device_lost()
                         ? "healthy"
                         : (grp.rebuilding == i ? "rebuilding" : "degraded");
    }
    health_.update(i, channel, board_.hbm_voltage(), epoch, scheme_name,
                   stripe_state);
  }
  // Parity channels add only their writes, corrections and journal-served
  // reads to the sample: no demand reads, and no health row.
  for (std::size_t c = channels(); c < channels_.size(); ++c) {
    const ChannelStats& now = channels_[c]->stats();
    const ChannelStats& prev = epoch_prev_[c];
    sample.writes += now.writes - prev.writes;
    sample.corrected += (now.corrected_words + now.corrected_check_words) -
                        (prev.corrected_words + prev.corrected_check_words);
    sample.journal_served +=
        now.journal_served_reads - prev.journal_served_reads;
    epoch_prev_[c] = now;
  }
  sample.budget_burn = burn_max;
  // Fold the source's slot-local accounting (serial, slot order) and let
  // it fill the sample's admitted/shed deltas plus the tenant health rows
  // before the alert tick and the dashboard hook see either.
  source_->end_epoch(&sample);
  source_->fill_health(&health_);
  alerts_.tick(sample);
  for (ReliableChannel* channel : channels_) channel->flush_telemetry();
  if (config_.epoch_hook) {
    config_.epoch_hook(
        EpochStatus{epoch, board_.hbm_voltage(), &health_, &alerts_});
  }
}

Result<FleetReport> ServingFleet::run() {
  FleetReport report;
  report.epochs = base_epochs_;
  report.raises = base_raises_;
  report.power_cycles = base_power_cycles_;
  std::unique_ptr<core::ThreadPool> pool;
  if (config_.threads != 1) {
    pool = std::make_unique<core::ThreadPool>(config_.threads);
  }

  // Epochs bound: the source's demand epochs plus a generous allowance
  // for escalation-interrupted ones (each of those makes ladder progress)
  // and for post-trace rebuild epochs.
  std::uint64_t max_epochs = source_->epochs_remaining_bound() + 4096;
  if (striped() && !channels_.empty()) {
    max_epochs +=
        channels_[0]->capacity() / config_.rebuild_beats_per_epoch + 1;
  }
  // The report's totals, summed in PC index order: a halted run reports
  // them exactly as a completed one does.
  const auto fold_counts = [this, &report] {
    for (const PcState& st : states_) {
      report.ops += st.report.ops;
      report.reads += st.report.reads;
      report.writes += st.report.writes;
      report.corrupt_reads += st.report.corrupt_reads;
      report.escalated_reads += st.report.escalated_reads;
    }
    for (const ReliableChannel* channel : channels_) {
      report.reconstructed_reads += channel->stats().reconstructed_reads;
      report.rebuilt_beats += channel->stats().rebuilt_beats;
    }
    report.final_voltage = board_.hbm_voltage();
  };

  for (;;) {
    bool all_done = source_->exhausted();
    // A rebuild in flight keeps the fleet ticking after the traces end:
    // the group workers drain it with no foreground ops in the way.
    for (const StripeGroup& grp : groups_) {
      if (grp.rebuilding != StripeGroup::kIdle) all_done = false;
    }
    if (all_done) break;
    if (report.epochs >= max_epochs) {
      return unavailable("fleet ladder failed to converge");
    }
    ++report.epochs;
    // Serial admission: quotas refill, brownout policy updates from the
    // barrier-time fleet state, and this epoch's requests land on slot
    // queues before any worker runs.
    source_->begin_epoch(*this, report.epochs);

    if (striped()) {
      core::parallel_for_each(pool.get(), groups_.size(),
                              [this](std::size_t g) { serve_group_epoch(g); });
    } else {
      core::parallel_for_each(pool.get(), states_.size(),
                              [this](std::size_t i) { serve_slot_epoch(i); });
    }

    // Serial aggregation and global ladder actions, in PC index order.
    bool want_cycle = false;
    bool want_raise = false;
    const auto gather = [&](const ParkState& parked) {
      if (!parked.wants_global) return;
      want_cycle = want_cycle || parked.wanted == LadderRung::kPowerCycle;
      want_raise = want_raise || parked.wanted == LadderRung::kRaiseVoltage;
    };
    for (const PcState& st : states_) {
      if (!st.status.is_ok()) return st.status;
      gather(st);
    }
    for (const StripeGroup& grp : groups_) {
      if (!grp.status.is_ok()) return grp.status;
      gather(grp);
    }
    if (want_cycle || !board_.responding()) {
      HBMVOLT_RETURN_IF_ERROR(board_.power_cycle());
      for (ReliableChannel* channel : channels_) {
        HBMVOLT_RETURN_IF_ERROR(channel->restore_after_power_cycle());
      }
      // The cycle scrambled any partially rebuilt spare (device-lost
      // channels skip the journal rewrite): restart those rebuilds.
      for (StripeGroup& grp : groups_) {
        if (grp.rebuilding != StripeGroup::kIdle) grp.rebuild_cursor = 0;
      }
      ++report.power_cycles;
      if (auto* tel = telemetry::Telemetry::active()) {
        tel->count("runtime.fleet.power_cycle");
      }
    } else if (want_raise) {
      const Millivolts nominal =
          board_.config().regulator_config.vout_default;
      Millivolts next{board_.hbm_voltage().value +
                      config_.channel.raise_step_mv};
      if (next > nominal) next = nominal;
      HBMVOLT_RETURN_IF_ERROR(board_.set_hbm_voltage(next));
      for (ReliableChannel* channel : channels_) {
        channel->on_global_action(LadderRung::kRaiseVoltage);
      }
      ++report.raises;
      if (auto* tel = telemetry::Telemetry::active()) {
        tel->count("runtime.fleet.raise");
      }
    }
    claim_spares();
    close_epoch(report.epochs);
    if (config_.halt_after_epochs > 0 &&
        report.epochs >= config_.halt_after_epochs) {
      base_epochs_ = report.epochs;
      base_raises_ = report.raises;
      base_power_cycles_ = report.power_cycles;
      fold_counts();
      report.halted = true;
      return report;
    }
  }

  // Fold the run into the report, in PC index order.
  fold_counts();
  std::uint64_t fp = mix_seed(config_.seed, 0xF17);
  std::uint64_t dfp = mix_seed(config_.seed, 0xDA7AF17);
  // `data` also folds the journal into dfp, in the same walk.
  auto fold_channel = [&fp, &dfp](const ReliableChannel& channel, bool data) {
    const ChannelStats& cs = channel.stats();
    fp = mix_seed(fp, cs.corrected_words);
    fp = mix_seed(fp, cs.corrected_check_words);
    fp = mix_seed(fp, cs.uncorrectable_blocked);
    fp = mix_seed(fp, cs.rows_retired);
    fp = mix_seed(fp, cs.beats_migrated);
    fp = mix_seed(fp, cs.journal_migrations);
    fp = mix_seed(fp, cs.beats_parked);
    fp = mix_seed(fp, cs.verify_caught);
    fp = mix_seed(fp, cs.journal_refreshes);
    fp = mix_seed(fp, cs.journal_served_reads);
    fp = mix_seed(fp, cs.reconstructed_reads);
    fp = mix_seed(fp, cs.rebuilt_beats);
    fp = mix_seed(fp, cs.scrub_beats);
    fp = mix_seed(fp, cs.scrub_corrected);
    fp = mix_seed(fp, cs.scrub_uncorrectable);
    fp = mix_seed(fp, cs.scrub_blocks_skipped);
    for (const LadderEvent& event : channel.ladder_trace()) {
      fp = mix_seed(fp, static_cast<std::uint64_t>(event.rung));
      fp = mix_seed(fp, static_cast<std::uint64_t>(event.voltage.value));
      fp = mix_seed(fp, event.op);
    }
    for (std::uint64_t beat = 0; beat < channel.capacity(); ++beat) {
      if (!channel.journal_live(beat)) continue;
      const hbm::Beat& beat_data = channel.journal_beat(beat);
      for (unsigned w = 0; w < 4; ++w) fp = mix_seed(fp, beat_data[w]);
      if (!data) continue;
      dfp = mix_seed(dfp, beat);
      for (unsigned w = 0; w < 4; ++w) dfp = mix_seed(dfp, beat_data[w]);
    }
  };
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (c >= states_.size()) {
      fp = mix_seed(fp, 0x9A817 + (c - states_.size()));  // parity
      fold_channel(*channels_[c], false);
      continue;
    }
    const PcState& st = states_[c];
    fp = mix_seed(fp, config_.pcs[c]);
    fp = mix_seed(fp, st.report.reads);
    fp = mix_seed(fp, st.report.writes);
    fp = mix_seed(fp, st.report.corrupt_reads);
    fp = mix_seed(fp, st.report.escalated_reads);
    // Data-only fold: the slot identity (stable across spare adoption),
    // the served op counts, and the journal contents.  Ladder traces,
    // voltages, and device-side stats are deliberately absent -- this is
    // the fingerprint that must survive chaos on/off.
    dfp = mix_seed(dfp, c);
    dfp = mix_seed(dfp, st.report.reads);
    dfp = mix_seed(dfp, st.report.writes);
    dfp = mix_seed(dfp, st.report.corrupt_reads);
    fold_channel(*channels_[c], true);
  }
  fp = mix_seed(fp, static_cast<std::uint64_t>(report.final_voltage.value));
  fp = mix_seed(fp, report.raises);
  fp = mix_seed(fp, report.power_cycles);
  if (config_.source != nullptr) {
    report.tenant_fingerprint = config_.source->fingerprint();
    fp = mix_seed(fp, report.tenant_fingerprint);
  }
  report.fingerprint = fp;
  report.data_fingerprint = dfp;
  return report;
}

// ---- Checkpoint seam ----

FleetCheckpoint ServingFleet::checkpoint() const {
  FleetCheckpoint ck;
  ck.epochs = base_epochs_;
  ck.raises = base_raises_;
  ck.power_cycles = base_power_cycles_;
  ck.voltage_mv = board_.hbm_voltage().value;
  const hbm::HbmGeometry& geometry = board_.geometry();
  const unsigned total = geometry.total_pcs();
  ck.burst_extras.resize(total);
  ck.array_words.resize(total);
  for (unsigned pc = 0; pc < total; ++pc) {
    const hbm::PcId id = hbm::PcId::from_global(geometry, pc);
    hbm::HbmStack& stack = board_.stack(id.stack);
    if (stack.pc_killed(id.index)) ck.killed_pcs.push_back(pc);
    ck.burst_extras[pc] = {
        board_.injector().burst_extra(pc, faults::StuckPolarity::kStuckAt0),
        board_.injector().burst_extra(pc, faults::StuckPolarity::kStuckAt1)};
    const std::span<const std::uint64_t> words =
        stack.array(id.index).words();
    ck.array_words[pc].assign(words.begin(), words.end());
  }
  ck.slots.assign(states_.begin(), states_.end());
  ck.channels.resize(channels_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    channels_[c]->capture(&ck.channels[c]);
  }
  ck.groups.assign(groups_.begin(), groups_.end());
  ck.spare_next = spare_next_;
  return ck;
}

Status ServingFleet::restore(const FleetCheckpoint& ck) {
  if (config_.source != nullptr) {
    return invalid_argument("a fleet with an external source cannot restore");
  }
  const hbm::HbmGeometry& geometry = board_.geometry();
  const unsigned total = geometry.total_pcs();
  if (ck.slots.size() != states_.size() ||
      ck.channels.size() != channels_.size() ||
      ck.groups.size() != groups_.size() ||
      ck.burst_extras.size() != total || ck.array_words.size() != total ||
      ck.spare_next > spare_pcs_.size()) {
    return invalid_argument("fleet checkpoint shape mismatch");
  }
  for (const unsigned pc : ck.killed_pcs) {
    if (pc >= total) return invalid_argument("fleet checkpoint PC out of range");
  }
  for (std::size_t g = 0; g < ck.groups.size(); ++g) {
    const std::size_t target = ck.groups[g].rebuilding;
    if (target == StripeGroup::kIdle) continue;
    if (target >= channels_.size() || group_of(target) != g) {
      return invalid_argument("fleet checkpoint rebuilds outside its group");
    }
    // A cursor at the end would finish the rebuild without copying.
    if (ck.groups[g].rebuild_cursor >= channels_[target]->capacity()) {
      return invalid_argument("fleet checkpoint rebuild cursor past its end");
    }
  }
  for (unsigned pc = 0; pc < total; ++pc) {
    const hbm::PcId id = hbm::PcId::from_global(geometry, pc);
    if (ck.array_words[pc].size() !=
        board_.stack(id.stack).array(id.index).bits() / 64) {
      return invalid_argument("fleet checkpoint array size mismatch");
    }
  }
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    HBMVOLT_RETURN_IF_ERROR(channels_[c]->check_restorable(ck.channels[c]));
  }
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const PlacedRequest& pending = ck.slots[i].pending;
    const std::uint64_t cap = channels_[i]->capacity();
    if (pending.count > 0 &&
        (pending.count > cap || pending.logical > cap - pending.count)) {
      return invalid_argument("fleet checkpoint request outside its slot");
    }
    // A resumed worker starts `done` beats into the request; progress that
    // does not fit it would skip demand and still report it served.
    const std::uint64_t done = ck.slots[i].flight.done;
    if (done != 0 && done >= pending.count) {
      return invalid_argument("fleet checkpoint progress past its request");
    }
  }
  base_epochs_ = ck.epochs;
  base_raises_ = ck.raises;
  base_power_cycles_ = ck.power_cycles;
  // Board first: voltage (overlays re-derive from it), burst extras, PC
  // kills, then the raw written bits underneath all of that.
  HBMVOLT_RETURN_IF_ERROR(board_.set_hbm_voltage(Millivolts{ck.voltage_mv}));
  for (unsigned pc = 0; pc < total; ++pc) {
    const auto& [sa0, sa1] = ck.burst_extras[pc];
    if (sa0 != 0 || sa1 != 0) board_.injector().add_burst(pc, sa0, sa1);
  }
  for (const unsigned pc : ck.killed_pcs) {
    const hbm::PcId id = hbm::PcId::from_global(geometry, pc);
    board_.stack(id.stack).kill_pc(id.index);
  }
  for (unsigned pc = 0; pc < total; ++pc) {
    const hbm::PcId id = hbm::PcId::from_global(geometry, pc);
    board_.stack(id.stack).array(id.index).write_words(
        0, ck.array_words[pc].size(), ck.array_words[pc].data());
  }
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    channels_[c]->restore(ck.channels[c]);
    // Barrier deltas restart from the restored stats (observers only --
    // the alert ring is not checkpointed, see FleetCheckpoint).
    epoch_prev_[c] = channels_[c]->stats();
  }
  for (std::size_t i = 0; i < states_.size(); ++i) {
    static_cast<FleetCheckpoint::Slot&>(states_[i]) = ck.slots[i];
  }
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    static_cast<FleetCheckpoint::Group&>(groups_[g]) = ck.groups[g];
  }
  spare_next_ = ck.spare_next;
  return Status::ok();
}

}  // namespace hbmvolt::runtime
