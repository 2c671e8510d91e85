// ReliableChannel: a supervised closed loop that keeps one undervolted
// pseudo-channel serving *correct* read/write traffic.
//
// The paper's Fig-6 trade-off assumes a lab-measured fault map and an
// offline mitigation decision; this runtime makes the decision online,
// stacking the repo's mitigation primitives into a ladder:
//
//   rung 0  correct      SECDED per word (ecc::EccChannel) + a patrol
//                        scrubber that writes corrections back before
//                        independent upsets pair up into uncorrectable
//                        words, under an error-budget monitor
//                        (error_budget.hpp).
//   rung 1  retire       when the budget burns, retire-and-remap the
//                        offending DRAM rows online: quiesce the beat,
//                        migrate live data to a spare through ECC,
//                        resume.  PC-local, so fleets can run it
//                        concurrently on distinct PCs.  When spares run
//                        out, an uncorrectable-at-nominal word is first
//                        rewritten in place from the journal (clearing
//                        soft upsets); if stuck cells keep it
//                        uncorrectable it is *parked* -- served from the
//                        host-side journal from then on, trading host
//                        memory for correctness instead of failing.
//   rung 2  raise        when retirement cannot help (no offender rows,
//                        spares exhausted, or a migration read is
//                        uncorrectable), raise the supply one step --
//                        stuck-at faults are voltage-keyed, so stored
//                        data that was uncorrectable becomes readable
//                        again (the stack keeps what was written; the
//                        overlay shrinks).
//   rung 3  power-cycle  last resort at nominal voltage: power-cycle the
//                        board and restore every live beat from the
//                        host-side journal (the last consistent state).
//
// The caller-visible contract, pinned by tests/runtime_test.cpp: read()
// NEVER returns corrupt data.  A word the code cannot correct yields a
// kDataLoss status and a recorded escalation; after escalate() (and any
// global action it requests) the retried read succeeds.  Capacity,
// voltage, and ladder position may degrade -- data may not.
//
// Logical address space: a fixed [0, capacity()) beat range.  A
// `spare_fraction` of the ECC data beats is held back at construction as
// migration spares, so retirement never shrinks the exposed capacity; it
// consumes spares instead (runtime.spares_free gauges the headroom).
//
// Fast path: every range walk runs one exception split.  read_range and
// write_range cut a request at the sparse exception set (parked or
// remapped beats -- a one-branch probe in the common no-faults case, see
// flat_index.hpp), serve the plain runs through EccChannel's bulk
// decode/encode and the exception beats one at a time.  The patrol and
// the journal rewrites (refresh, restore, rebuild) take its live-run
// variant: live plain runs in bulk, live unparked exception beats one by
// one.  One event accountant turns a bulk call's sparse decode events into
// the per-beat accounting.  The patrol also skips blocks a previous pass
// (or a piggybacking clean range read) proved clean.  The per-op
// read()/write() stay the reference and never take these walks:
// tests/range_test.cpp drives a second channel one beat at a time and
// requires the same data, stats, budget and journal.

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "board/vcu128.hpp"
#include "common/status.hpp"
#include "ecc/ecc_channel.hpp"
#include "runtime/error_budget.hpp"
#include "runtime/flat_index.hpp"
#include "telemetry/hdr_histogram.hpp"
#include "workload/trace.hpp"

namespace hbmvolt::runtime {

struct ReliableChannelConfig {
  ErrorBudgetConfig budget;
  /// Foreground ops between patrol-scrub slices (0 = no patrol).
  std::uint64_t scrub_interval_ops = 64;
  /// Logical beats scrubbed per slice.
  std::uint64_t scrub_batch_beats = 8;
  /// Corrected/uncorrectable events on a (bank, row) before it becomes an
  /// offender.  2 pairs with SECDED: one stuck bit per codeword is
  /// absorbed forever; the second event on the same row is the signal.
  unsigned retire_threshold = 2;
  /// Fraction of ECC data beats held back as migration spares.
  double spare_fraction = 0.05;
  /// Millivolts per rung-2 voltage raise (capped at nominal).
  int raise_step_mv = 10;
  /// Read back every device write.  SECDED silently miscorrects >= 3-bit
  /// words, so a word that cannot hold its data (stuck cells already
  /// paired up in it) must be caught while the journal still vouches for
  /// it -- not left armed for the next soft upset.
  bool verify_writes = true;
  /// Per-word ECC codec (mitigate/scheme.hpp maps scheme names to this).
  ecc::WordCodec codec = ecc::WordCodec::kSecded;
};

enum class LadderRung : unsigned {
  kCorrect = 0,
  kRetire = 1,
  kRaiseVoltage = 2,
  kPowerCycle = 3,
  /// Stripe-group action recorded by ServingFleet when a dead PC starts
  /// rebuilding onto a spare pseudo-channel.  escalate() never returns
  /// this: whole-PC loss is beyond any PC-local rung.
  kStripeRebuild = 4,
};

[[nodiscard]] const char* to_string(LadderRung rung) noexcept;

/// Deterministic beat payload for op `op` of PC `pc` -- the data the fleet
/// worker (and so serve_trace) writes, and the journal verifies reads
/// against.
[[nodiscard]] hbm::Beat make_payload(std::uint64_t seed, unsigned pc,
                                     std::uint64_t op);

/// One ladder escalation, for replayable traces.
struct LadderEvent {
  LadderRung rung = LadderRung::kCorrect;
  Millivolts voltage{0};  // supply at the moment of the event
  std::uint64_t op = 0;   // channel op count when it fired
};

struct ChannelStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t corrected_words = 0;        // demand reads, data repaired
  std::uint64_t corrected_check_words = 0;  // demand reads, check-byte only
  std::uint64_t uncorrectable_blocked = 0;  // reads refused, never delivered
  std::uint64_t scrub_beats = 0;
  std::uint64_t scrub_corrected = 0;
  std::uint64_t scrub_uncorrectable = 0;
  std::uint64_t scrub_writebacks = 0;
  /// Patrol blocks skipped because a previous pass (or a clean bulk read)
  /// marked them clean.
  std::uint64_t scrub_blocks_skipped = 0;
  std::uint64_t rows_retired = 0;
  std::uint64_t beats_migrated = 0;
  /// Migrations that fell back to the journal copy because the stored
  /// word was uncorrectable even at nominal voltage.
  std::uint64_t journal_migrations = 0;
  /// Beats permanently served from the host journal: uncorrectable at
  /// nominal with the spare pool exhausted (see header comment).
  std::uint64_t beats_parked = 0;
  /// Reads served from the host journal (parked beats): the soak-visible
  /// split between device-served and journal-served traffic.
  std::uint64_t journal_served_reads = 0;
  /// Write-verify read-backs that found the word uncorrectable.
  std::uint64_t verify_caught = 0;
  /// Alarm-driven journal refreshes (see refresh_from_journal).
  std::uint64_t journal_refreshes = 0;
  std::uint64_t retires = 0;       // rung-1 actions completed
  std::uint64_t raises = 0;        // rung-2 actions observed
  std::uint64_t power_cycles = 0;  // rung-3 actions observed
  /// Reads served by XOR reconstruction from stripe peers while this PC's
  /// device was lost (incremented by ServingFleet in stripe mode).
  std::uint64_t reconstructed_reads = 0;
  /// Beats rewritten onto the adopted spare PC by the online rebuild.
  std::uint64_t rebuilt_beats = 0;
};

/// Channel-level serving report (see serve_trace()).
struct ServeReport {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Reads whose delivered beat mismatched the journal.  The runtime's
  /// headline invariant: always zero.
  std::uint64_t corrupt_reads = 0;
  /// Reads that needed at least one escalate() + retry round.
  std::uint64_t escalated_reads = 0;
};

/// Everything a ReliableChannel changes while serving, in one struct the
/// channel holds: the silicon it runs on, the mapping, the journal, the
/// sparse exception sets, the patrol position and the records.
struct ChannelState {
  static constexpr std::uint64_t kNoBlock = ~0ull;

  unsigned pc_global = 0;  // current silicon (a spare after adoption)
  bool device_lost = false;

  std::vector<std::uint32_t> remap;   // logical -> physical ECC data beat
  std::vector<std::uint32_t> spares;  // ascending physical beats
  std::size_t spare_cursor = 0;

  std::vector<hbm::Beat> journal;  // last written data per logical beat
  BitVec live;

  // Sparse exception sets over the logical space (flat_index.hpp).
  SortedKeySet parked;   // journal-backed beats (see header comment)
  SortedKeySet special;  // parked OR remapped: the range splitter's probe

  RowEventCounts row_events;
  SortedKeySet offender_rows;
  SortedKeySet retired_rows;

  std::uint64_t ops = 0;
  std::uint64_t scrub_cursor = 0;
  bool escalation_pending = false;

  // Clean-block bookkeeping for the patrol skip: a block is marked when a
  // contiguous pass over it saw zero scrub events, or a bulk read decoded
  // it entirely clean.
  BitVec clean_blocks;
  std::uint64_t scan_block = kNoBlock;
  bool scan_clean = false;

  ChannelStats stats;
  ChannelStats flushed;  // counts already exported to telemetry
  std::vector<LadderEvent> ladder_trace;
};

/// Everything a ReliableChannel needs to resume byte-identically on a
/// fresh board: its ChannelState plus the budget window and the ECC
/// channel's shadow checks and stats, which those objects hold.  Captured
/// and restored by ServingFleet's checkpoint seam.
struct ChannelCheckpoint : ChannelState {
  ErrorBudgetState budget;
  std::vector<std::uint8_t> ecc_shadow;
  ecc::EccStats ecc_stats;
};

class ReliableChannel {
 public:
  /// Patrol clean-block granularity in logical beats: the unit the scrub
  /// cursor can skip when a full pass over it found nothing to repair.
  static constexpr std::uint64_t kScrubBlockBeats = 64;

  ReliableChannel(board::Vcu128Board& board, unsigned pc_global,
                  ReliableChannelConfig config = {});

  /// Fixed logical capacity in beats (never shrinks; see header comment).
  [[nodiscard]] std::uint64_t capacity() const noexcept {
    return state_.remap.size();
  }
  [[nodiscard]] std::uint64_t spares_free() const noexcept;
  [[nodiscard]] unsigned pc_global() const noexcept {
    return state_.pc_global;
  }

  Status write(std::uint64_t logical, const hbm::Beat& data);

  /// Serves one beat.  kDataLoss means the stored word is currently
  /// uncorrectable: nothing corrupt was delivered, an escalation is
  /// pending, and the caller should escalate() (applying any global
  /// action it requests) and retry.
  Result<hbm::Beat> read(std::uint64_t logical);

  /// Bulk read of [logical, logical + count) into `out`.  Equivalent to
  /// count read() calls in ascending order, except the patrol-scrub cadence
  /// is settled once at the end of the call (k slices for k crossed
  /// intervals) instead of between beats.  On an uncorrectable beat the
  /// call accounts every beat up to and including the failing one, leaves
  /// an escalation pending, and returns kDataLoss (nothing corrupt is
  /// delivered; `out` is unspecified).  Parked beats are served from the
  /// journal; remapped beats through their spare -- both as sparse
  /// exceptions to the plain bulk runs.
  Status read_range(std::uint64_t logical, std::uint64_t count,
                    hbm::Beat* out);

  /// Bulk write of `data` over [logical, logical + count): count write()
  /// calls with the same end-of-call scrub cadence as read_range.
  Status write_range(std::uint64_t logical, std::uint64_t count,
                     const hbm::Beat* data);

  /// Advances the patrol scrubber by `slices` x `scrub_batch_beats`
  /// logical beats (wrapping), writing corrections back in place.  One
  /// slice is owed every `scrub_interval_ops` foreground ops; callable
  /// directly too.  Blocks a previous full pass proved clean are skipped
  /// (one skip consumes the mark, so staleness is bounded to one patrol
  /// round).  Each slice keeps its own skip and scan-clean rules, and the
  /// chunks the slices scan inside one clean-block merge into one scrub,
  /// so k slices end in the same state as k back-to-back scrub_slices(1).
  Status scrub_slices(std::uint64_t slices);

  /// Emergency patrol: scrubs every live beat in one sweep, ignoring
  /// clean-block marks.  escalate() runs this whenever an uncorrectable
  /// word was seen, so a fault storm is mapped out (and retired) in one
  /// ladder action.
  Status patrol_all();

  /// Environmental-alarm response: rewrites every live beat from the
  /// journal with write-verify.  SECDED cannot *read* its way out of a
  /// fault storm -- a word that jumps from one latent upset to three
  /// mismatches decodes as a plausible single-bit fix -- but a rewrite
  /// flushes soft state, and the verify read-back exposes any word whose
  /// stuck cells pair up as a detectable double.  Fleets call this when
  /// the storm hook reports a fault event (in a real deployment: a droop
  /// detector or RAS interrupt).
  Status refresh_from_journal();

  [[nodiscard]] bool escalation_pending() const noexcept {
    return state_.escalation_pending;
  }

  /// Climbs the ladder as far as PC-local actions reach (rung 1) and
  /// reports what the channel needs next:
  ///   kCorrect      -- handled locally (rows retired and/or budget
  ///                    consumed); retry the op
  ///   kRaiseVoltage -- caller must raise the supply one step, then call
  ///                    on_global_action(kRaiseVoltage)
  ///   kPowerCycle   -- caller must power-cycle the board, then call
  ///                    restore_after_power_cycle() on every channel
  /// Safe to run concurrently with other PCs' channels: every mutation
  /// is PC-local and the board state it reads only changes at barriers.
  Result<LadderRung> escalate();

  /// Bookkeeping after the caller applied a global rung (2).  Resets the
  /// budget window -- the error regime just changed.
  void on_global_action(LadderRung rung);

  /// Rung 3 epilogue: rewrites every live logical beat from the host-side
  /// journal through ECC (the power cycle scrambled the arrays).
  Status restore_after_power_cycle();

  // ---- Whole-device loss (the stripe scheme's fault domain) ----
  // When the backing pseudo-channel dies outright (chaos kPcKill), the
  // channel flips into device-lost mode: writes update only the journal,
  // reads are served from the journal (counted as journal_served_reads
  // unless the fleet reconstructs them from stripe peers first), and the
  // patrol/refresh/restore machinery idles -- there is no device to
  // repair.  In stripe mode ServingFleet then adopts a spare PC and
  // rebuilds onto it through rebuild_device_range.

  /// Marks the backing device unreachable.  Idempotent.
  void set_device_lost() noexcept { state_.device_lost = true; }
  [[nodiscard]] bool device_lost() const noexcept {
    return state_.device_lost;
  }

  /// Re-points the channel at a spare pseudo-channel of equal capacity.
  /// The journal, stats, budget, and ladder trace survive -- they describe
  /// the logical channel, not the silicon -- while every device-keyed
  /// structure (remap, spares, parked set, row events, clean-block marks)
  /// resets to the fresh device.  The channel STAYS device-lost until
  /// finish_rebuild(): reads keep coming from the journal (or stripe
  /// reconstruction) while the rebuild backfills the new device.
  void adopt_device(unsigned new_pc_global);

  /// Rebuild step: rewrites the live beats of [logical, logical + count)
  /// onto the (adopted) device from the journal, with write-verify
  /// accounting.  Counted in stats().rebuilt_beats.
  Status rebuild_device_range(std::uint64_t logical, std::uint64_t count);

  /// Rebuild epilogue: the device copy is whole again; resume serving
  /// reads from silicon.
  void finish_rebuild() noexcept { state_.device_lost = false; }

  /// Checkpoint seam (see ChannelCheckpoint): capture() and restore() copy
  /// the ChannelState whole.  restore() re-points the channel at the
  /// checkpointed silicon (which may be an adopted spare) and assumes the
  /// caller already restored the board: voltage, killed PCs, burst extras,
  /// and raw array words.  check_restorable() returns invalid_argument for
  /// a checkpoint restore() would refuse (a PC off the board, a scrub or
  /// spare cursor past its end, or a journal, live map, remap, clean-block
  /// map or ECC shadow sized for another channel), so callers can vet it
  /// first.
  void capture(ChannelCheckpoint* out) const;
  [[nodiscard]] Status check_restorable(const ChannelCheckpoint& ck) const;
  void restore(const ChannelCheckpoint& ck);

  /// Replays `trace` (beats taken modulo capacity) through the fleet
  /// worker as a one-slot ServingFleet (fleet.cpp): record k writes
  /// make_payload(data_seed, pc_global(), k), every read is checked
  /// against the journal, and global rungs (raise, power-cycle) apply at
  /// the fleet barrier -- so nothing else may use the board meanwhile.
  Result<ServeReport> serve_trace(const workload::AccessTrace& trace,
                                  std::uint64_t data_seed = 1);

  [[nodiscard]] const ChannelStats& stats() const noexcept {
    return state_.stats;
  }
  [[nodiscard]] const ErrorBudget& budget() const noexcept { return budget_; }
  [[nodiscard]] const std::vector<LadderEvent>& ladder_trace() const noexcept {
    return state_.ladder_trace;
  }
  [[nodiscard]] const ecc::EccChannel& ecc() const noexcept { return *ecc_; }

  /// Journal copy of a logical beat (test/self-check hook); only
  /// meaningful when `journal_live(logical)`.
  [[nodiscard]] const hbm::Beat& journal_beat(std::uint64_t logical) const {
    return state_.journal[logical];
  }
  [[nodiscard]] bool journal_live(std::uint64_t logical) const {
    return state_.live.get(logical);
  }
  /// Length of the run of beats from `logical`, at most `limit` (within
  /// capacity), whose journal_live() equals `live` -- a word-at-a-time scan.
  [[nodiscard]] std::uint64_t live_run(std::uint64_t logical, bool live,
                                       std::uint64_t limit) const noexcept {
    return state_.live.run(logical, live, limit);
  }
  /// True when the beat is journal-backed (no device copy can serve it).
  [[nodiscard]] bool parked(std::uint64_t logical) const {
    return state_.parked.contains(logical);
  }
  /// Beats currently served from the journal (the parked set's size).
  [[nodiscard]] std::uint64_t parked_count() const noexcept {
    return state_.parked.size();
  }
  /// Patrol cursor position in logical beats; capacity() - scrub_cursor()
  /// is the lag of the current pass (health.hpp reports it).
  [[nodiscard]] std::uint64_t scrub_cursor() const noexcept {
    return state_.scrub_cursor;
  }

  /// Emits the delta of the high-rate counters since the last flush into
  /// the telemetry registry (runtime.* / scrub.*, the per-PC hot counters
  /// as `{pc=N}` families) and merges the channel-local latency
  /// histograms into the latency.read / latency.write HDR families.
  /// Called at sync points rather than per-op to keep the serving path
  /// cheap.
  void flush_telemetry();

 private:
  friend class ServingFleet;

  static constexpr std::uint64_t kNoBlock = ChannelState::kNoBlock;
  using RangeBeatEvent = ecc::EccChannel::RangeBeatEvent;

  // ---- The range walks (see "Fast path"; defined in the .cpp) ----

  /// The exception split: on_plain(lo, n) for each run of [logical, end)
  /// free of exception beats (identity-mapped, not parked) and
  /// on_exception(beat) for each exception beat, in ascending order,
  /// stopping at the first error.
  template <class OnPlain, class OnException>
  Status split_at_exceptions(std::uint64_t logical, std::uint64_t end,
                             OnPlain&& on_plain, OnException&& on_exception);
  /// The split over live beats only: on_run(lo, n) for each live plain run
  /// and on_exception(beat) for each live, unparked exception beat.  Only
  /// live beats carry data the code can vouch for (a never-written beat
  /// decodes power-on scramble against zero shadow checks), and a parked
  /// beat has no device copy worth patrolling or rewriting.
  template <class OnRun, class OnException>
  Status for_each_live(std::uint64_t logical, std::uint64_t end,
                       OnRun&& on_run, OnException&& on_exception);
  /// The event accountant over scratch_events_, the events of one bulk ECC
  /// call over [logical, end): on_clean(n) for each stretch of n clean
  /// beats between them (the trailing one included) and on_event(ev) for
  /// each event.  Returns false, having stopped, when on_event does.
  template <class OnClean, class OnEvent>
  bool account_events(std::uint64_t logical, std::uint64_t end,
                      OnClean&& on_clean, OnEvent&& on_event);
  /// Decodes [logical, logical + count) into scratch_beats_ and its events
  /// into scratch_events_ (the bulk write-verify read-back).
  Status read_back(std::uint64_t logical, std::uint64_t count);

  /// Scrub [logical, logical + count): live plain runs in bulk, live
  /// exception beats one by one, events folded into the clean-block scan.
  Status scrub_chunk(std::uint64_t logical, std::uint64_t count);
  void account_scrub(std::uint64_t physical, unsigned corrected_data,
                     unsigned corrected_check, unsigned uncorrectable,
                     bool wrote_back);

  /// Device-read accounting for one beat; returns false on uncorrectable
  /// (caller must stop and surface kDataLoss).
  bool account_read(std::uint64_t physical, unsigned corrected,
                    unsigned corrected_check, unsigned uncorrectable);
  void account_verify(std::uint64_t physical, unsigned corrected,
                      unsigned corrected_check, unsigned uncorrectable);
  /// account_verify without the budget record (journal rewrites).
  void account_rewrite(std::uint64_t physical, unsigned corrected,
                       unsigned uncorrectable);
  /// One device beat read into *out; kDataLoss when uncorrectable.
  Status read_device_beat(std::uint64_t physical, hbm::Beat* out);
  /// One device beat write, read back when verify_writes is set.
  Status write_device_beat(std::uint64_t physical, const hbm::Beat& data);
  /// One beat served from the journal (a parked beat or a lost device).
  const hbm::Beat& read_journal(std::uint64_t logical);

  /// Settles the patrol cadence after a call: one slice per
  /// scrub_interval_ops boundary crossed since `ops_before`.
  Status settle_scrub_debt(std::uint64_t ops_before);

  /// Rewrites the live beats of [logical, end) from the journal (the
  /// refresh/restore/rebuild body), adding their count to *rewritten; with
  /// `verify`, each read-back notes row events and verify_caught but
  /// records nothing in the budget.
  Status rewrite_live(std::uint64_t logical, std::uint64_t end, bool verify,
                      std::uint64_t* rewritten);
  /// rewrite_live over the whole channel; every clean-block mark goes stale.
  Status rewrite_live_runs(bool verify);

  [[nodiscard]] std::uint64_t block_count() const noexcept {
    return (capacity() + kScrubBlockBeats - 1) / kScrubBlockBeats;
  }
  void invalidate_block(std::uint64_t logical);
  void invalidate_all_blocks();
  /// Marks blocks of [logical, logical + count) wholly inside the range as
  /// clean (a bulk read decoded them with zero events).
  void mark_clean_blocks(std::uint64_t logical, std::uint64_t count);

  /// Identity remap over `exposed` logical beats, every other ECC data beat
  /// a free spare, nothing parked or remapped: fresh silicon.
  void reset_mapping(std::uint64_t exposed);
  [[nodiscard]] std::uint64_t row_key(std::uint64_t physical_beat) const;
  void note_row_events(std::uint64_t physical_beat, unsigned events);
  void record_ladder(LadderRung rung);
  /// Retires every offender row it can, migrating live beats to spares.
  /// With spares exhausted, repairs uncorrectable-at-nominal beats in
  /// place from the journal and parks the ones stuck cells keep broken
  /// (*parked_any).  Sets *blocked when only a voltage raise can recover
  /// a stored word (the row stays an offender for the post-raise retry).
  Status retire_offenders(bool* retired_any, bool* parked_any,
                          bool* blocked);
  [[nodiscard]] Result<std::uint64_t> allocate_spare();
  void park_beat(std::uint64_t logical);
  void remap_beat(std::uint64_t logical, std::uint64_t spare);

  board::Vcu128Board& board_;
  hbm::PcId pc_;  // state_.pc_global's stack and index
  ReliableChannelConfig config_;
  // unique_ptr so adopt_device can re-point the channel at a spare PC.
  std::unique_ptr<ecc::EccChannel> ecc_;
  ErrorBudget budget_;
  ChannelState state_;

  // Per-op serve latency, recorded locally (no atomics) only while a
  // Telemetry instance is active, merged + cleared at flush_telemetry().
  telemetry::HdrHistogram read_latency_;
  telemetry::HdrHistogram write_latency_;

  // Bulk-path scratch (high-water reuse, no per-call allocation).
  std::vector<RangeBeatEvent> scratch_events_;
  std::vector<hbm::Beat> scratch_beats_;
};

}  // namespace hbmvolt::runtime
