// Per-stack HBM controller, mirroring the paper's host-programmable
// controllers (§II-B): one per stack, each owning 16 AXI traffic
// generators (one per AXI port / pseudo-channel), the stack's switching
// network, and the logic to broadcast macro commands, gather responses,
// and report statistics back to the host.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "axi/switch.hpp"
#include "axi/traffic_gen.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "hbm/stack.hpp"

namespace hbmvolt::axi {

/// Outcome of broadcasting one macro command over the enabled ports.
struct RunResult {
  /// Wall-clock of the run: ports operate concurrently, so this is the
  /// maximum per-port busy time.
  SimTime elapsed = 0;
  /// Per-port statistics deltas for this run (indexed by port).
  std::vector<TgStats> per_port;
  /// Bytes moved per second across all enabled ports during the run.
  GigabytesPerSecond aggregate_bandwidth{0.0};
  unsigned ports_active = 0;
  /// False when the stack NAKed traffic (crashed / powered off).
  bool stack_responding = true;

  [[nodiscard]] TgStats totals() const noexcept;
};

class StackController {
 public:
  StackController(hbm::HbmStack& stack,
                  Hertz clock = Hertz{TrafficGenerator::kDefaultClockHz},
                  double efficiency = TrafficGenerator::kDefaultEfficiency);

  [[nodiscard]] hbm::HbmStack& stack() noexcept { return stack_; }
  [[nodiscard]] unsigned port_count() const noexcept {
    return static_cast<unsigned>(ports_.size());
  }

  [[nodiscard]] TrafficGenerator& port(unsigned index);
  [[nodiscard]] SwitchNetwork& switch_network() noexcept { return switch_; }

  /// Enables exactly the ports whose mask bit is set.
  void set_enabled_mask(std::uint32_t mask);
  /// Enables the first `count` ports, disables the rest.
  void set_enabled_count(unsigned count);
  [[nodiscard]] unsigned enabled_ports() const;

  /// Clears all TG statistics (Algorithm 1's reset_axi_ports()).
  void reset_ports();

  /// Broadcasts `command` to every enabled port, in ascending port order.
  /// Each port targets the PC the switching network routes it to.  The
  /// board runs both stacks' ports concurrently through the split-phase
  /// API below.
  RunResult run(const TgCommand& command);

  /// Runs a command on one specific port only (per-PC tests, Fig 5).
  RunResult run_on_port(unsigned index, const TgCommand& command);

  /// Cumulative stats summed over all ports.
  [[nodiscard]] TgStats aggregate_stats() const;

  // ---- Split-phase API for board-level fan-out across both stacks ----
  // Phases: route_ports (serial: enable + switch routing + baseline
  // stats), run_routed_port (safe to call concurrently for *distinct*
  // indices), assemble_result (serial, ascending port order).  run() is
  // these three phases over one stack; the board flattens (stack, port)
  // pairs through the same phases to fan 32 wide.

  /// Ports currently enabled, ascending.
  [[nodiscard]] std::vector<unsigned> enabled_port_list() const;

  /// Enables `ports` and applies switch routing/derate.  Must precede
  /// run_routed_port for those indices.
  void route_ports(const std::vector<unsigned>& ports);

  /// Executes `command` on one routed port and returns this run's stats
  /// delta.  Touches only that port's state (plus its PC's array and
  /// overlay slot), so distinct indices may run on different threads.
  /// Sets *unavailable when the stack NAKed the traffic.
  TgStats run_routed_port(unsigned index, const TgCommand& command,
                          bool* unavailable);

  /// Builds the RunResult from per-port deltas (parallel to `ports`),
  /// aggregating in ascending port order.
  [[nodiscard]] RunResult assemble_result(
      const std::vector<unsigned>& ports, const std::vector<TgStats>& deltas,
      bool stack_responding) const;

 private:
  RunResult run_ports(const TgCommand& command,
                      const std::vector<unsigned>& ports);

  hbm::HbmStack& stack_;
  SwitchNetwork switch_;
  std::vector<std::unique_ptr<TrafficGenerator>> ports_;
};

}  // namespace hbmvolt::axi
