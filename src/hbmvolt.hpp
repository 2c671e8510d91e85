// Umbrella header: the hbmvolt public API in one include.
//
//   #include "hbmvolt.hpp"
//
//   hbmvolt::board::Vcu128Board board;               // simulated VCU128
//   board.set_hbm_voltage(hbmvolt::Millivolts{900}); // undervolt via PMBus
//   ...
//
// For faster builds, include only the specific headers you use; this
// file exists for examples, experiments, and interactive exploration.

#pragma once

// Foundations.
#include "common/ini.hpp"
#include "common/plot.hpp"
#include "common/prp.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

// Platform substrates.
#include "axi/controller.hpp"
#include "axi/switch.hpp"
#include "axi/traffic_gen.hpp"
#include "dram/bank.hpp"
#include "dram/scheduler.hpp"
#include "dram/timing.hpp"
#include "hbm/geometry.hpp"
#include "hbm/ip_registers.hpp"
#include "hbm/memory_array.hpp"
#include "hbm/stack.hpp"
#include "pmbus/bus.hpp"
#include "pmbus/isl68301.hpp"
#include "pmbus/linear.hpp"
#include "pmbus/pec.hpp"
#include "sensors/ina226.hpp"

// Fault and power models.
#include "faults/fault_map.hpp"
#include "faults/fault_model.hpp"
#include "faults/fault_overlay.hpp"
#include "faults/weak_cells.hpp"
#include "power/droop.hpp"
#include "power/power_model.hpp"
#include "power/rail.hpp"

// The board.
#include "board/config_io.hpp"
#include "board/vcu128.hpp"

// Experiment framework (the paper's methodology).
#include "core/campaign.hpp"
#include "core/fault_characterizer.hpp"
#include "core/governor.hpp"
#include "core/guardband.hpp"
#include "core/power_characterizer.hpp"
#include "core/reliability_tester.hpp"
#include "core/report.hpp"
#include "core/tradeoff.hpp"
#include "core/voltage_sweep.hpp"

// Mitigations and test algorithms.
#include "ecc/ecc_channel.hpp"
#include "ecc/secded.hpp"
#include "memtest/march.hpp"
#include "mitigate/row_retirement.hpp"

// Resilient serving runtime (scrubbing, error budgets, the ladder).
#include "runtime/error_budget.hpp"
#include "runtime/fleet.hpp"
#include "runtime/reliable_channel.hpp"
