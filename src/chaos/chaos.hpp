// Deterministic chaos injection for the host stack.
//
// The paper's campaigns run for hours against hardware that misbehaves in
// benign, transient ways: PMBus transactions NACK, wires pick up glitches
// that PEC catches, the INA226 occasionally drops a conversation, an AXI
// dispatch times out, and very rarely a stack falls over at a voltage the
// fault model calls safe.  The chaos injector reproduces all of that on a
// seed-driven schedule so the robustness machinery (common/retry.hpp, the
// sweep crash watchdog, campaign checkpointing) can be tested against the
// exact fault sequence, every run.
//
// The headline invariant (pinned by tests/chaos_test.cpp): under any
// all-transient schedule, campaign figures are byte-identical to the
// fault-free run.  Two properties make that provable rather than lucky:
//
//  * Injection happens *before* device access.  The Bus transaction hook
//    runs before the address phase and the AXI hook before the traffic
//    generator is touched, so a failed attempt advances no device state
//    and no RNG stream; the retried attempt sees the world exactly as a
//    clean first attempt would.
//
//  * Injection sites are cooldown-limited.  After any injection a site
//    stays clean for `cooldown` subsequent events (default 4), so a
//    bounded retry budget always outlasts the worst-case fault burst: an
//    operation crossing the NACK, dropout, and wire sites can fail at
//    most three attempts in a row before every site is in cooldown.
//
// Persistent faults (`regulator_dies_after` / `monitor_dies_after`) are
// the opposite contract: the component NACKs forever after N
// transactions, retries exhaust, and the campaign degrades gracefully --
// structured errors in the summary, partial artifacts, no process death.
//
// Thread-safety: the Bus and vout paths are host-serial (sweep thread
// only), matching the board model.  The AXI hook runs concurrently from
// sweep workers, so its decision is a pure function of (run, stack, port,
// attempt) and its accounting uses atomics.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "board/vcu128.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace hbmvolt::chaos {

enum class FaultKind : unsigned {
  kPmbusNack = 0,    // transaction NACK (kNotFound) on any PMBus address
  kWireCorrupt = 1,  // single-bit frame flip; PEC turns it into kDataLoss
  kInaDropout = 2,   // power monitor unresponsive (kUnavailable)
  kAxiFail = 3,      // per-port traffic dispatch failure (kUnavailable)
  kSpuriousCrash = 4, // stack crash at a voltage the model calls safe
  // Fault-storm kinds, driven by storm_tick() from the resilient runtime
  // (src/runtime/) rather than by board hooks:
  kWeakCellBurst = 5, // sudden per-PC weak-cell burst (aging / VT shift)
  kBitRot = 6,        // stored-bit flip (the corruption patrol scrub fixes)
  kPcKill = 7,        // whole-pseudo-channel death; power cycles don't revive
  // Request-plane storm kind, drawn per (tenant, epoch) by the serving
  // plane (src/serve/plane.hpp) rather than per (PC, tick) by storm_tick:
  kTenantSurge = 8    // a tenant's offered load spikes for one epoch
};
inline constexpr unsigned kFaultKindCount = 9;

struct ChaosConfig {
  std::uint64_t seed = 0xC4A05;
  /// Per-event injection probabilities, one per transient fault kind.
  double pmbus_nack_rate = 0.0;
  double wire_corrupt_rate = 0.0;
  double ina_dropout_rate = 0.0;
  double axi_fail_rate = 0.0;
  double spurious_crash_rate = 0.0;
  /// Fault-storm rates, evaluated once per (PC, tick) by storm_tick().
  double weak_burst_rate = 0.0;
  double bit_rot_rate = 0.0;
  /// Whole-PC-kill storm rate: the ticked PC dies outright and stays dead
  /// across power cycles.  Only the cross-PC erasure stripe (or the
  /// journal fallback) survives this; keep it orders of magnitude below
  /// the transient rates.
  double pc_kill_rate = 0.0;
  /// Tenant-surge storm rate, evaluated once per (tenant, epoch) by the
  /// request plane's admission step: a fired surge multiplies that
  /// tenant's offered load for the epoch, and demand beyond its token
  /// bucket is shed (accounted, never silently dropped).
  double tenant_surge_rate = 0.0;
  /// Offered-load multiplier for one fired tenant surge.
  std::uint64_t surge_multiplier = 4;
  /// Cells added per polarity by one weak-cell burst.
  std::uint64_t burst_cells = 8;
  /// Events a site stays clean for after an injection.  The default of 4
  /// pairs with RetryPolicy::max_attempts = 4: see the header comment.
  unsigned cooldown = 4;
  /// Persistent faults: the component stops responding forever after this
  /// many transactions addressed to it (-1 = never).
  std::int64_t regulator_dies_after = -1;
  std::int64_t monitor_dies_after = -1;

  [[nodiscard]] bool any() const noexcept {
    return pmbus_nack_rate > 0.0 || wire_corrupt_rate > 0.0 ||
           ina_dropout_rate > 0.0 || axi_fail_rate > 0.0 ||
           spurious_crash_rate > 0.0 || weak_burst_rate > 0.0 ||
           bit_rot_rate > 0.0 || pc_kill_rate > 0.0 ||
           tenant_surge_rate > 0.0 || regulator_dies_after >= 0 ||
           monitor_dies_after >= 0;
  }
};

/// The deterministic fault schedule: a pure function from (kind, three
/// event coordinates) to fire/no-fire decisions and value draws.  Two
/// schedules with the same seed and rates agree everywhere.
class ChaosSchedule {
 public:
  explicit ChaosSchedule(const ChaosConfig& config) : config_(config) {}

  /// True when the event at coordinates (a, b, c) injects `kind`.
  [[nodiscard]] bool fires(FaultKind kind, std::uint64_t a, std::uint64_t b,
                           std::uint64_t c) const noexcept;

  /// Deterministic value draw for the same coordinates (which bit to
  /// flip, which stack to crash).
  [[nodiscard]] std::uint64_t draw(FaultKind kind, std::uint64_t a,
                                   std::uint64_t b,
                                   std::uint64_t c) const noexcept;

  [[nodiscard]] double rate(FaultKind kind) const noexcept;
  [[nodiscard]] const ChaosConfig& config() const noexcept { return config_; }

 private:
  ChaosConfig config_;
};

/// Installs the schedule into a board's fault hooks (Bus transaction
/// hook, wire corruptor, AXI dispatch hook, regulator vout listener) and
/// keeps per-kind injection counts.  Construct after board bring-up --
/// the board's REQUIRE-guarded constructor must never see injected
/// faults.  The destructor uninstalls every removable hook.
class ChaosInjector {
 public:
  ChaosInjector(board::Vcu128Board& board, ChaosConfig config);
  ~ChaosInjector();

  ChaosInjector(const ChaosInjector&) = delete;
  ChaosInjector& operator=(const ChaosInjector&) = delete;

  [[nodiscard]] const ChaosSchedule& schedule() const noexcept {
    return schedule_;
  }
  [[nodiscard]] std::uint64_t injected(FaultKind kind) const noexcept {
    return injected_[static_cast<unsigned>(kind)].load(
        std::memory_order_relaxed);
  }

  /// Fault-storm entry point, called by the resilient runtime once per
  /// (PC, scrub/serve tick).  The fire decision is a pure function of
  /// (seed, pc_global, tick) -- like on_axi it is safe to call
  /// concurrently for *distinct* PCs, and every mutation it makes is
  /// PC-local (a weak-cell burst touches only that PC's overlay, bit rot
  /// only that PC's array words).  Returns true when anything fired, so
  /// callers can account storms without re-deriving the schedule.
  bool storm_tick(unsigned pc_global, std::uint64_t tick);

  /// Tenant-surge entry point, called by the request plane once per
  /// (tenant, epoch) at the serial admission barrier.  Returns the
  /// offered-load multiplier for this epoch: 1 when no surge fired,
  /// config.surge_multiplier when one did (counted under kTenantSurge).
  /// Pure in (seed, tenant, epoch), so plane decisions stay reproducible
  /// at any thread count.
  std::uint64_t surge_tick(std::uint64_t tenant, std::uint64_t epoch);

 private:
  /// One injection site: an event counter plus the post-injection
  /// cooldown that bounds consecutive faults (see header comment).
  struct Site {
    std::uint64_t events = 0;
    unsigned cooldown = 0;

    /// Advances the site by one event; true when this event injects.
    bool spin(const ChaosSchedule& schedule, FaultKind kind,
              std::uint64_t key, unsigned cooldown_events);
  };

  Status on_transaction(std::uint8_t address, std::uint8_t command);
  void on_frame(std::vector<std::uint8_t>& frame);
  Status on_axi(std::uint64_t run, unsigned stack, unsigned port,
                unsigned attempt);
  void on_vout(Millivolts v);
  void note(FaultKind kind);

  board::Vcu128Board& board_;
  ChaosSchedule schedule_;
  std::unordered_map<std::uint8_t, Site> nack_sites_;
  Site dropout_site_;
  Site wire_site_;
  Site crash_site_;
  std::uint64_t regulator_txns_ = 0;
  std::uint64_t monitor_txns_ = 0;
  std::array<std::atomic<std::uint64_t>, kFaultKindCount> injected_{};
  /// The regulator's vout listener list is append-only, so the listener
  /// outlives this injector; it checks this flag before touching state.
  std::shared_ptr<std::atomic<bool>> alive_;
};

}  // namespace hbmvolt::chaos
