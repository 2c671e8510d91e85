#include "axi/controller.hpp"

#include <algorithm>

namespace hbmvolt::axi {

TgStats RunResult::totals() const noexcept {
  TgStats total;
  for (const auto& stats : per_port) total += stats;
  return total;
}

StackController::StackController(hbm::HbmStack& stack, Hertz clock,
                                 double efficiency)
    : stack_(stack), switch_(stack.geometry().pcs_per_stack()) {
  const unsigned ports = stack_.geometry().pcs_per_stack();
  ports_.reserve(ports);
  for (unsigned i = 0; i < ports; ++i) {
    ports_.push_back(
        std::make_unique<TrafficGenerator>(stack_, i, clock, efficiency));
  }
}

TrafficGenerator& StackController::port(unsigned index) {
  HBMVOLT_REQUIRE(index < ports_.size(), "port index out of range");
  return *ports_[index];
}

void StackController::set_enabled_mask(std::uint32_t mask) {
  for (unsigned i = 0; i < ports_.size(); ++i) {
    ports_[i]->set_enabled((mask >> i) & 1u);
  }
}

void StackController::set_enabled_count(unsigned count) {
  for (unsigned i = 0; i < ports_.size(); ++i) {
    ports_[i]->set_enabled(i < count);
  }
}

unsigned StackController::enabled_ports() const {
  unsigned count = 0;
  for (const auto& port : ports_) {
    if (port->enabled()) ++count;
  }
  return count;
}

void StackController::reset_ports() {
  for (const auto& port : ports_) port->reset_stats();
}

RunResult StackController::run(const TgCommand& command) {
  return run_ports(command, enabled_port_list());
}

RunResult StackController::run_on_port(unsigned index,
                                       const TgCommand& command) {
  HBMVOLT_REQUIRE(index < ports_.size(), "port index out of range");
  return run_ports(command, {index});
}

std::vector<unsigned> StackController::enabled_port_list() const {
  std::vector<unsigned> enabled;
  for (unsigned i = 0; i < ports_.size(); ++i) {
    if (ports_[i]->enabled()) enabled.push_back(i);
  }
  return enabled;
}

void StackController::route_ports(const std::vector<unsigned>& ports) {
  for (const unsigned index : ports) {
    HBMVOLT_REQUIRE(index < ports_.size(), "port index out of range");
    TrafficGenerator& tg = *ports_[index];
    if (!tg.enabled()) tg.set_enabled(true);  // explicit single-port runs
    tg.set_pc_local(switch_.target_pc(index));
    tg.set_throughput_derate(switch_.throughput_derate(index));
  }
}

TgStats StackController::run_routed_port(unsigned index,
                                         const TgCommand& command,
                                         bool* unavailable) {
  TrafficGenerator& tg = *ports_[index];
  const TgStats before = tg.stats();
  const Status status = tg.run(command);
  const TgStats after = tg.stats();

  TgStats delta = after;
  delta.beats_written -= before.beats_written;
  delta.beats_read -= before.beats_read;
  delta.flips_1to0 -= before.flips_1to0;
  delta.flips_0to1 -= before.flips_0to1;
  delta.bits_checked -= before.bits_checked;
  delta.slverr -= before.slverr;
  delta.busy_time -= before.busy_time;

  if (unavailable != nullptr) {
    *unavailable = status.code() == StatusCode::kUnavailable;
  }
  return delta;
}

RunResult StackController::assemble_result(const std::vector<unsigned>& ports,
                                           const std::vector<TgStats>& deltas,
                                           bool stack_responding) const {
  RunResult result;
  result.per_port.resize(ports_.size());
  result.stack_responding = stack_responding;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const TgStats& delta = deltas[i];
    result.per_port[ports[i]] = delta;
    result.elapsed = std::max(result.elapsed, delta.busy_time);
    bytes += (delta.beats_written + delta.beats_read) *
             (stack_.geometry().bits_per_beat / 8);
    ++result.ports_active;
  }
  if (result.elapsed > 0) {
    result.aggregate_bandwidth = GigabytesPerSecond{
        static_cast<double>(bytes) / to_seconds(result.elapsed).value / 1e9};
  }
  return result;
}

RunResult StackController::run_ports(const TgCommand& command,
                                     const std::vector<unsigned>& ports) {
  route_ports(ports);
  std::vector<TgStats> deltas(ports.size());
  bool responding = true;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    bool nak = false;
    deltas[i] = run_routed_port(ports[i], command, &nak);
    if (nak) responding = false;
  }
  return assemble_result(ports, deltas, responding);
}

TgStats StackController::aggregate_stats() const {
  TgStats total;
  for (const auto& port : ports_) total += port->stats();
  return total;
}

}  // namespace hbmvolt::axi
