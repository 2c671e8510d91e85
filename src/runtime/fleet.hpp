// ServingFleet: epoch-based parallel serving over many ReliableChannels,
// under a pluggable mitigation scheme (mitigate/scheme.hpp).
//
// One ReliableChannel per pseudo-channel, served in epochs over the core
// thread pool (core/parallel.hpp) by one worker that drains placed
// requests from a RequestSource: the request plane (FleetConfig::source),
// or else the fleet's built-in per-PC streams, which the fleet itself
// serves as coalesced same-direction runs.  A built-in stream is a
// workload::DemandStream (workload/demand.hpp): streaming passes are an
// arithmetic sweep that stores no trace, so any pass count costs O(1)
// memory, and uniform-random traffic (make_uniform_random over a
// counter-derived seed) replays a stored trace of ops_per_pc records.
// Each request is one raw run from the stream, split by journal liveness
// a word at a time.  The determinism discipline is the repo's usual one:
//
//  * workers own disjoint per-PC state (channel, request in flight,
//    report slot) and never mutate anything global -- a worker that needs
//    a global ladder rung (raise voltage / power-cycle) *parks* the
//    request at the beat it reached, requests the rung, and ends its
//    epoch early; after the barrier the request resumes at that beat;
//  * global actions are applied serially between epochs, in PC index
//    order, at most one voltage raise (or one power-cycle + restore) per
//    barrier;
//  * the run fingerprint folds per-PC results in PC index order, so the
//    whole soak is byte-reproducible from (seed, config) at any thread
//    count (pinned by tests/runtime_test.cpp).
//
// Mitigation schemes.  kSecded and kDected pick the per-word codec and
// fan out per PC exactly as above.  kStripe adds a RAIM-style XOR erasure
// stripe across pseudo-channels: the PC list is carved into groups of
// `stripe_width` serving members plus one parity PC each (leftover PCs
// form the spare pool), every member write also updates the group parity
// channel, and the fan-out unit becomes the *group* so parity writes stay
// worker-local.  The fleet keeps one channel list: the serving slots in
// slot order, then one parity channel per group, so every barrier step,
// count fold and checkpoint walks each channel once.  When a channel's
// silicon dies outright (chaos kPcKill), it flips device-lost: a member's
// reads are served by XOR reconstruction from the surviving members plus
// parity (counted in runtime.reconstructed_reads), the barrier adopts a
// spare PC for the group's first lost channel, member or parity
// (recorded as LadderRung::kStripeRebuild), and the group worker rebuilds
// the lost data onto it incrementally through the range engine until the
// device copy is whole again.  A second death in the same group degrades
// to journal-backed serving -- still zero corrupt reads, no silicon
// redundancy left.
//
// Chaos fault storms plug in through `storm_hook`, called once per
// (PC, request tick) on the worker -- wire it to ChaosInjector::storm_tick,
// whose decisions are pure in (seed, pc, tick) and whose mutations are
// PC-local, preserving both thread-safety and reproducibility.  With a
// hook set the built-in streams issue one-op requests, so they tick per
// op; the plane ticks per placed request.  A parked request keeps its
// tick.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "board/vcu128.hpp"
#include "common/status.hpp"
#include "mitigate/scheme.hpp"
#include "runtime/health.hpp"
#include "runtime/reliable_channel.hpp"
#include "telemetry/alerts.hpp"
#include "workload/demand.hpp"

namespace hbmvolt::runtime {

class ServingFleet;

// ---- Request plane seam ----
//
// A RequestSource feeds the fleet's worker placed requests.  The fleet
// serves its built-in per-PC streams through one of its own; an externally
// owned source replaces them (src/serve/plane.hpp is the multi-tenant
// implementation).  The determinism split mirrors the rest of the fleet:
// the serial hooks (begin_epoch / end_epoch / fill_health) run only at the
// barrier and may see global state; the worker hooks (front / complete /
// spend_retry) are called from the fan-out and must touch only slot-local
// state for the slot they are handed.

/// Deterministic service-time model, in "model nanoseconds": every path a
/// request can take has a fixed per-beat cost, so per-tenant latency
/// distributions -- and the SLO checks built on them -- are pure
/// functions of the op stream, never of wall clock or thread count.
/// Stripe reconstruction costs kModelDeviceReadNs * (stripe_width + 1)
/// per beat (one fetch per surviving member plus parity); escalation adds
/// kModelEscalateNs per ladder round.
inline constexpr std::uint64_t kModelDeviceReadNs = 800;
inline constexpr std::uint64_t kModelDeviceWriteNs = 1000;
inline constexpr std::uint64_t kModelJournalNs = 400;
inline constexpr std::uint64_t kModelEscalateNs = 5000;

/// Beats of got[0, n) that differ from want[0, n): one compare over the
/// whole run, and a per-beat count only when that compare finds a
/// difference.  The worker checks every bulk read against the journal
/// with it.
[[nodiscard]] std::uint64_t count_mismatched_beats(const hbm::Beat* got,
                                                   const hbm::Beat* want,
                                                   std::uint64_t n);

/// How a request left the worker.
enum class ServeOutcome : unsigned {
  kServed = 0,  // device / stripe path, within its deadline
  kHedged = 1,  // deadline pressure: answered from the journal hedge
  kStale = 2,   // brownout: best-effort request served the journal copy
  kShed = 3,    // dropped mid-serve (deadline overrun, best-effort)
};

/// One admitted request, already placed onto a serving slot by the
/// source.  `logical` is a slot-local beat index (< that channel's
/// capacity); `count` is a coalesced same-direction run so streaming
/// tenants keep the range fast path.
struct PlacedRequest {
  std::uint32_t tenant = 0;
  bool write = false;
  /// Brownout flag: a read may be answered from the journal copy without
  /// touching the device (ServeOutcome::kStale).
  bool stale_ok = false;
  /// Guaranteed-class flag: slow device paths (a lost device, stripe
  /// reconstruction, a blown deadline) hedge to the journal copy instead
  /// of paying the slow path (ServeOutcome::kHedged).
  bool hedge = false;
  std::uint64_t logical = 0;
  /// Beats in the run.  A run stays inside one slot (far below 2^32
  /// beats), and 32 bits keep a placed request at 32 bytes -- the plane
  /// queues and copies millions of them.
  std::uint32_t count = 1;
  /// Escalation rounds before the deadline is considered blown.
  unsigned deadline_attempts = 4;
  /// Payload identity of the first beat: beat k is written with
  /// make_payload(seed, pc, payload + k), so a re-served write stores
  /// identical data.
  std::uint64_t payload = 0;
};

class RequestSource {
 public:
  virtual ~RequestSource() = default;

  // Serial, called at the barrier before each epoch's fan-out: refill
  // admission quotas, apply brownout policy from the fleet's visible
  // state, and place this epoch's admitted requests onto slot queues.
  virtual void begin_epoch(const ServingFleet& fleet, std::uint64_t epoch) = 0;

  // Worker-side, slot-local.  front() returns the slot's next queued
  // request (nullptr = drained for this epoch) and must keep returning
  // the *same* request until complete() is called -- a worker that parks
  // on a global ladder rung resumes it after the barrier, at the beat it
  // parked on.
  virtual const PlacedRequest* front(std::size_t slot) = 0;
  virtual void complete(std::size_t slot, const PlacedRequest& request,
                        ServeOutcome outcome, unsigned attempts,
                        std::uint64_t model_ns) = 0;
  /// Spends one unit of the tenant's retry budget from the slot's slice;
  /// false = budget dry (the worker stops escalating and hedges or
  /// sheds).  Bounds retry amplification during fault storms.
  virtual bool spend_retry(std::size_t slot, std::uint32_t tenant) = 0;

  // Serial, called at the barrier after the fan-out, in slot order: fold
  // slot-local accounting into per-tenant totals and fill the sample's
  // admitted / shed deltas for the burn-rate rules.
  virtual void end_epoch(telemetry::EpochSample* sample) = 0;
  /// True once every tenant's demand is fully served or shed and no
  /// queue holds a request.
  [[nodiscard]] virtual bool exhausted() const = 0;
  /// Upper bound on epochs of demand left (the fleet's convergence
  /// bound); may be generous, never an underestimate.
  [[nodiscard]] virtual std::uint64_t epochs_remaining_bound() const = 0;
  /// Publish per-tenant rows into the health registry (serial).
  virtual void fill_health(HealthRegistry* health) const = 0;
  /// Order-stable fold of every per-tenant outcome; folded into the
  /// fleet fingerprint and reported as FleetReport::tenant_fingerprint.
  [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;
};

/// What the epoch hook sees after every barrier: the refreshed health
/// registry and the alert engine (both owned by the fleet and rebuilt
/// serially in PC index order, so observers stay deterministic).
struct EpochStatus {
  std::uint64_t epoch = 0;
  Millivolts voltage{0};
  const HealthRegistry* health = nullptr;
  const telemetry::AlertEngine* alerts = nullptr;
};

struct FleetConfig {
  /// Global PC indices to serve (empty = every PC on the board).  Under
  /// kStripe this is the pool the stripe groups, parity PCs, and spares
  /// are carved from, in order.
  std::vector<unsigned> pcs;
  ReliableChannelConfig channel;
  /// Mitigation scheme; kSecded/kDected override channel.codec, kStripe
  /// additionally builds the cross-PC erasure stripe (see header).
  mitigate::MitigationKind scheme = mitigate::MitigationKind::kSecded;
  /// Serving members per stripe group (kStripe only); each group adds one
  /// parity PC on top.
  unsigned stripe_width = 4;
  /// Live beats a group rebuilds onto an adopted spare per epoch.
  std::uint64_t rebuild_beats_per_epoch = 16;
  /// Stop (with FleetReport::halted) after this many epochs instead of
  /// running to completion; 0 = run to the end.  The checkpoint seam:
  /// halt, checkpoint(), restore() on a fresh board, run() again.
  std::uint64_t halt_after_epochs = 0;
  /// Total foreground ops per PC (uniform-random streams).
  std::uint64_t ops_per_pc = 1 << 14;
  /// Beats served per slot between global barriers.
  std::uint64_t ops_per_epoch = 1024;
  /// 0 = uniform-random traffic (ops_per_pc above, one write in four).
  /// N > 0 = N sequential sweeps over each PC's full capacity instead
  /// (first touch writes, later passes read; ops_per_pc is ignored), the
  /// shape that lets the range engine coalesce -- the perf-gate workload
  /// (BM_StripeServe); ReliableChannel::serve_trace of make_streaming is
  /// the same sweep through the same worker on one slot.  The sweeps are
  /// computed, never stored: no trace is held for any N, up to UINT_MAX.
  unsigned streaming_passes = 0;
  std::uint64_t seed = 1;
  /// Worker threads (1 = serial reference path, 0 = hardware count).
  unsigned threads = 1;
  /// Optional fault-storm hook, called once per (pc_global, request tick)
  /// before that request is served; the built-in streams then issue one
  /// op per request, so they tick per op.  A request parked on a global
  /// rung does not tick again when it resumes.  Must be PC-local in its
  /// mutations (see ChaosInjector::storm_tick).  A true return means a
  /// fault event fired on this PC; the fleet responds with an alarm-driven
  /// journal refresh (see ReliableChannel::refresh_from_journal) -- the
  /// model for a droop detector or RAS interrupt in a real deployment.
  std::function<bool(unsigned pc_global, std::uint64_t tick)> storm_hook;
  /// Called serially after every barrier with the refreshed health
  /// registry and alert engine -- the live-dashboard seam
  /// (examples/resilient_serving renders it under HBMVOLT_SOAK_DASHBOARD).
  /// Must not touch the board or the channels.
  std::function<void(const EpochStatus&)> epoch_hook;
  /// Optional request plane (borrowed; must outlive the fleet).  When
  /// set, it replaces the built-in per-PC streams: begin_epoch admits
  /// work at every barrier, the worker drains each slot's queue, and
  /// end_epoch folds the per-tenant accounting; ops_per_pc and
  /// streaming_passes are ignored.  Incompatible with the checkpoint
  /// seam: a source is not captured, and restore() refuses such a fleet.
  RequestSource* source = nullptr;
};

struct FleetReport {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Reads whose delivered beat mismatched the journal: always zero (the
  /// headline invariant).
  std::uint64_t corrupt_reads = 0;
  std::uint64_t escalated_reads = 0;
  /// Reads served by XOR reconstruction from stripe peers (kStripe).
  std::uint64_t reconstructed_reads = 0;
  /// Beats rewritten onto adopted spare PCs by online rebuilds.
  std::uint64_t rebuilt_beats = 0;
  std::uint64_t epochs = 0;
  std::uint64_t raises = 0;        // fleet-level rung-2 actions
  std::uint64_t power_cycles = 0;  // fleet-level rung-3 actions
  Millivolts final_voltage{0};
  /// True when the run stopped at halt_after_epochs with work remaining;
  /// fingerprints are only computed on completed runs.
  bool halted = false;
  /// Order-stable fold of every per-PC outcome (reports, channel stats,
  /// ladder traces, journals): equal fingerprints = byte-identical runs.
  std::uint64_t fingerprint = 0;
  /// Fold of the *served data* only (per-slot read/write/corrupt counts
  /// and journal contents) -- invariant across chaos on/off for the same
  /// scheme, unlike `fingerprint`, which also folds ladder traces.
  std::uint64_t data_fingerprint = 0;
  /// RequestSource::fingerprint() at completion (0 without a source):
  /// the per-tenant outcome fold, also mixed into `fingerprint`.
  std::uint64_t tenant_fingerprint = 0;
};

/// Everything needed to resume a halted fleet byte-identically on a fresh
/// board: the board-model state (voltage, killed PCs, weak-cell burst
/// extras, raw array words) plus every channel, slot, and stripe-group
/// checkpoint.  Each layer holds its resumable state as the struct stored
/// here (ChannelState, Slot, Group), so capture and restore copy it whole.
/// Alert/health observers are deliberately NOT captured -- they never feed
/// back into serving, so fingerprints cannot see them.
struct FleetCheckpoint {
  std::uint64_t epochs = 0;
  std::uint64_t raises = 0;
  std::uint64_t power_cycles = 0;
  int voltage_mv = 0;
  std::vector<unsigned> killed_pcs;  // global PC indices
  /// Per global PC: accumulated weak-cell burst extras (sa0, sa1).
  std::vector<std::array<std::uint64_t, 2>> burst_extras;
  /// Per global PC: raw backing-store words (written values, pre-overlay).
  std::vector<std::vector<std::uint64_t>> array_words;
  /// A serving slot's resumable worker state.
  struct Slot {
    std::uint64_t cursor = 0;      // request tick (one per request)
    std::uint64_t storm_next = 0;  // first tick not yet storm-ticked
    unsigned attempts = 0;         // escalation rounds on the current op
    /// The request in flight; survives a park so it resumes at `done`.
    struct Flight {
      std::uint64_t done = 0;  // beats already served
      unsigned rounds = 0;     // failed reads, against the deadline
      std::uint64_t model_ns = 0;
      ServeOutcome outcome = ServeOutcome::kServed;
      bool hedging = false;  // deadline blown: the rest from the journal
    } flight;
    ServeReport report;
    /// The built-in stream: its first record not yet completed, and the
    /// request in flight (count 0: none).
    std::uint64_t next_record = 0;
    PlacedRequest pending{.count = 0};
  };
  std::vector<Slot> slots;
  std::vector<ChannelCheckpoint> channels;  // slots, then parity per group
  struct Group {
    static constexpr std::size_t kIdle = ~std::size_t(0);
    /// Index in `channels` of the rebuild target (kIdle: none in flight).
    std::size_t rebuilding = kIdle;
    std::uint64_t rebuild_cursor = 0;
  };
  std::vector<Group> groups;
  std::size_t spare_next = 0;
};

class ServingFleet {
 public:
  /// Builds one ReliableChannel per serving and parity PC, owned by the fleet.
  ServingFleet(board::Vcu128Board& board, FleetConfig config);
  ~ServingFleet();

  /// Serves every PC's full op stream; returns the aggregated report.
  /// With halt_after_epochs set, may instead return early with
  /// report.halted -- call run() again (or checkpoint/restore first) to
  /// continue; progress accumulates across calls.
  Result<FleetReport> run();

  /// Captures the full resumable state (see FleetCheckpoint).  Only
  /// meaningful between run() calls (at a halt barrier).
  [[nodiscard]] FleetCheckpoint checkpoint() const;

  /// Restores a checkpoint onto this fleet and its (fresh) board: replays
  /// voltage, burst extras, PC kills, and raw array words, then every
  /// channel/slot/group state.  The fleet must have been constructed with
  /// the same config as the one that captured the checkpoint, and without
  /// an external source (invalid_argument otherwise).  A checkpoint that
  /// does not fit -- its shape, any channel's (check_restorable), a
  /// pending request outside its slot, or a rebuild cursor past its
  /// target -- is refused before the board is touched.
  Status restore(const FleetCheckpoint& ck);

  [[nodiscard]] mitigate::MitigationKind scheme() const noexcept {
    return config_.scheme;
  }
  /// The resolved config (PC list filled in, scheme codec applied) --
  /// what a RequestSource reads at begin_epoch to derive brownout state.
  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }
  /// Serving slots; the parity channels follow them in the channel list
  /// and are reached through parity_channel().
  [[nodiscard]] std::size_t channels() const noexcept {
    return config_.pcs.size();
  }
  [[nodiscard]] const ReliableChannel& channel(std::size_t i) const {
    return *channels_[i];
  }
  /// Stripe groups (0 unless kStripe).
  [[nodiscard]] std::size_t groups() const noexcept { return groups_.size(); }
  [[nodiscard]] const ReliableChannel& parity_channel(std::size_t g) const {
    return *channels_[parity_of(g)];
  }
  [[nodiscard]] std::size_t spares_left() const noexcept {
    return spare_pcs_.size() - spare_next_;
  }
  /// Per-PC health as of the last barrier (empty before run()).
  [[nodiscard]] const HealthRegistry& health() const noexcept {
    return health_;
  }
  /// The burn-rate engine with the full epoch ring and event log.
  [[nodiscard]] const telemetry::AlertEngine& alerts() const noexcept {
    return alerts_;
  }

 private:
  friend class ReliableChannel;  // serve_trace builds the one-slot fleet

  /// One-slot fleet over a caller-owned channel, for ReliableChannel::
  /// serve_trace: `trace` (beats modulo capacity) is one epoch of demand,
  /// and payloads use `data_seed` as given.
  ServingFleet(ReliableChannel& channel, const workload::AccessTrace& trace,
               std::uint64_t data_seed);

  /// What a worker hands the barrier: an error, or the global ladder rung
  /// it parked on.  Shared by serving slots and stripe groups; each
  /// helper returns false when the worker must end its epoch.
  struct ParkState {
    Status status = Status::ok();
    bool wants_global = false;
    LadderRung wanted = LadderRung::kCorrect;

    bool fail(Status error) {
      status = std::move(error);
      return false;
    }
    bool park(LadderRung rung) {
      wants_global = true;
      wanted = rung;
      return false;
    }
    /// Applies an escalate() result: true when handled locally.
    bool take(const Result<LadderRung>& rung) {
      if (!rung.is_ok()) return fail(rung.status());
      return rung.value() == LadderRung::kCorrect || park(rung.value());
    }
    /// Escalates `ch` when its budget burned or an escalation is pending.
    bool settle(ReliableChannel& ch) {
      if (!ch.budget().burned() && !ch.escalation_pending()) return true;
      return take(ch.escalate());
    }
  };

  /// Per-PC worker state; owned by exactly one index during a fan-out.
  /// The Slot base is what a checkpoint copies; the rest is per-epoch
  /// state and scratch.
  struct PcState : ParkState, FleetCheckpoint::Slot {
    std::uint64_t served = 0;  // beats served this epoch
    /// Payload/read buffer for coalesced bulk runs (high-water reuse).
    std::vector<hbm::Beat> beats;
    /// Parity scratch for bulk stripe writes (distinct from `beats`,
    /// which may alias the data being written).
    std::vector<hbm::Beat> pbuf;
  };

  /// One erasure-stripe group: members are serving slots
  /// [group * stripe_width, (group + 1) * stripe_width), plus a dedicated
  /// parity channel and at most one rebuild in flight.
  struct StripeGroup : ParkState, FleetCheckpoint::Group {};

  /// The built-in per-PC streams as a RequestSource (see fleet.cpp).
  class StreamSource;

  [[nodiscard]] bool striped() const noexcept {
    return config_.scheme == mitigate::MitigationKind::kStripe;
  }
  /// Stripe group of channels_[c]: a member's, or the one a parity
  /// channel protects.
  [[nodiscard]] std::size_t group_of(std::size_t c) const noexcept {
    return c < channels() ? c / config_.stripe_width : c - channels();
  }
  /// channels_ index of group g's parity channel.
  [[nodiscard]] std::size_t parity_of(std::size_t g) const noexcept {
    return channels() + g;
  }
  /// channels_ index of group g's k-th channel: members for k <
  /// stripe_width, then the parity channel at k == stripe_width.
  [[nodiscard]] std::size_t group_channel(std::size_t g,
                                          std::size_t k) const noexcept {
    return k < config_.stripe_width ? g * config_.stripe_width + k
                                    : parity_of(g);
  }

  /// The fleet worker: drains slot i's requests from the active source
  /// for one epoch (escalation, parking, and the deadline / hedge / stale
  /// QoS paths).  False = the epoch ended early on a park or an error.
  bool serve_slot_epoch(std::size_t i);
  /// Runs the storm hook for slot i at its current request tick (at most
  /// once), including the alarm-driven journal refresh.  False = the
  /// epoch must end (a global rung was parked or an error recorded).
  bool storm_tick_slot(std::size_t i);
  /// Stripe fan-out unit: serves every member slot in order, then runs
  /// this epoch's rebuild step.
  void serve_group_epoch(std::size_t g);

  /// Scheme-dispatching op wrappers used by the worker.  In stripe mode
  /// writes also maintain the group parity and reads of a lost device
  /// reconstruct from peers.
  Status do_write(std::size_t i, std::uint64_t logical, std::uint64_t count,
                  const hbm::Beat* data);
  Result<hbm::Beat> do_read(std::size_t i, std::uint64_t logical);

  /// XOR of the live journals at `logical` of group g's members and
  /// parity, leaving out channels_[skip].  The stripe invariant makes it
  /// the skipped channel's value: the parity a write must store, and the
  /// rebuild's cross-check.
  [[nodiscard]] hbm::Beat group_xor(std::size_t g, std::uint64_t logical,
                                    std::size_t skip) const;
  /// Serves a lost member's beat from parity + surviving member silicon.
  Result<hbm::Beat> reconstruct_read(std::size_t i, std::uint64_t logical);
  /// Reads one stripe contributor with local escalation; global needs are
  /// parked on the *member's* state (slot `i`).
  Result<hbm::Beat> stripe_fetch(ReliableChannel& ch, std::uint64_t logical,
                                 PcState& st);

  /// If `ch`'s silicon was chaos-killed, flip it device-lost and return
  /// true (the op retries against the journal/stripe path) -- the prompt
  /// detection path that makes a PC kill cost no power cycle.
  bool absorb_device_loss(ReliableChannel& ch);

  /// Barrier step (serial, group order): adopt a spare PC for each idle
  /// group's first lost channel, members before parity, and start its
  /// rebuild.
  void claim_spares();
  /// Worker-side incremental rebuild of the group's adopted channel.
  void rebuild_step(std::size_t g);

  /// Barrier bookkeeping: epoch deltas -> alert tick, health refresh,
  /// telemetry flush, epoch hook.  Serial, PC index order.
  void close_epoch(std::uint64_t epoch);
  /// Sizes the per-slot state once channels_ (and demand_) are filled.
  void init_slots();

  board::Vcu128Board& board_;
  FleetConfig config_;
  std::uint64_t data_seed_;  // make_payload seed for every written beat
  std::vector<std::unique_ptr<ReliableChannel>> owned_;  // public ctor only
  std::vector<ReliableChannel*> channels_;  // slots, then parity per group
  std::vector<workload::DemandStream> demand_;  // built-in streams
  std::unique_ptr<StreamSource> streams_;
  RequestSource* source_ = nullptr;  // config_.source, else streams_
  std::vector<PcState> states_;
  std::vector<ChannelStats> epoch_prev_;  // per channel, previous barrier
  // Stripe state (empty unless kStripe).
  std::vector<StripeGroup> groups_;
  std::vector<unsigned> spare_pcs_;  // unclaimed spare pool, global PCs
  std::size_t spare_next_ = 0;
  // Accumulated progress across halted run() calls (checkpoint seam).
  std::uint64_t base_epochs_ = 0;
  std::uint64_t base_raises_ = 0;
  std::uint64_t base_power_cycles_ = 0;
  HealthRegistry health_;
  telemetry::AlertEngine alerts_;
};

}  // namespace hbmvolt::runtime
