#include "core/checkpoint.hpp"

#include <bit>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hpp"

namespace hbmvolt::core {

namespace {

std::string hex_u64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

Result<std::uint64_t> parse_hex_u64(const json::Value* value,
                                    const char* what) {
  if (value == nullptr || !value->is_string() || value->string.size() != 16) {
    return data_loss(std::string("checkpoint: missing hex field ") + what);
  }
  std::uint64_t bits = 0;
  for (const char c : value->string) {
    bits <<= 4;
    if (c >= '0' && c <= '9') {
      bits |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      bits |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return data_loss(std::string("checkpoint: bad hex digit in ") + what);
    }
  }
  return bits;
}

/// A non-negative JSON integer no larger than `max`; kDataLoss for
/// anything else (negative, fractional, out of range, or not a number).
Result<std::uint64_t> require_uint(const json::Value* value, const char* what,
                                   std::uint64_t max = UINT64_MAX) {
  if (value == nullptr || !value->is_number()) {
    return data_loss(std::string("checkpoint: missing field ") + what);
  }
  if (!value->is_integer || value->integer < 0 ||
      static_cast<std::uint64_t>(value->integer) > max) {
    return data_loss(std::string("checkpoint: invalid value in ") + what);
  }
  return static_cast<std::uint64_t>(value->integer);
}

Result<bool> require_bool(const json::Value* value, const char* what) {
  if (value == nullptr || value->kind != json::Value::Kind::kBool) {
    return data_loss(std::string("checkpoint: missing field ") + what);
  }
  return value->boolean;
}

const json::Value* find_array(const json::Value& parent, const char* key) {
  const json::Value* value = parent.find(key);
  return value != nullptr && value->is_array() ? value : nullptr;
}

}  // namespace

std::string checkpoint_to_json(const CampaignCheckpoint& ckpt) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"version\": " << CampaignCheckpoint::kVersion << ",\n";
  out << "  \"fingerprint\": \"" << hex_u64(ckpt.fingerprint) << "\",\n";
  out << "  \"reliability_done\": "
      << (ckpt.reliability_done ? "true" : "false") << ",\n";
  out << "  \"power_snapshot_seq\": " << ckpt.power_snapshot_seq << ",\n";
  out << "  \"reliability\": [";
  const std::vector<Millivolts> voltages = ckpt.fault_map.voltages();
  for (std::size_t i = 0; i < voltages.size(); ++i) {
    const faults::VoltageObservation& row = *ckpt.fault_map.at(voltages[i]);
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"mv\": " << voltages[i].value << ", \"crashed\": "
        << (row.crashed ? "true" : "false") << ", \"pcs\": [";
    for (std::size_t p = 0; p < row.pcs.size(); ++p) {
      const faults::PcFaultRecord& pc = row.pcs[p];
      if (p != 0) out << ", ";
      out << '[' << pc.bits_tested << ", " << pc.flips_1to0 << ", "
          << pc.flips_0to1 << ", " << pc.bits_tested_ones << ", "
          << pc.bits_tested_zeros << ']';
    }
    out << "]}";
  }
  out << (voltages.empty() ? "],\n" : "\n  ],\n");
  out << "  \"power\": [";
  for (std::size_t i = 0; i < ckpt.power.size(); ++i) {
    const PowerSeries& series = ckpt.power[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"ports\": " << series.ports << ", \"rows\": [";
    for (std::size_t r = 0; r < series.voltages.size(); ++r) {
      if (r != 0) out << ", ";
      out << "{\"mv\": " << series.voltages[r].value << ", \"watts\": \""
          << hex_u64(std::bit_cast<std::uint64_t>(series.power[r].value))
          << "\"}";
    }
    out << "]}";
  }
  out << (ckpt.power.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

Result<CampaignCheckpoint> checkpoint_from_json(
    std::string_view text, const hbm::HbmGeometry& geometry) {
  auto parsed = json::parse(text);
  if (!parsed.is_ok()) return parsed.status();
  const json::Value& root = parsed.value();
  if (!root.is_object()) return data_loss("checkpoint: root is not an object");

  auto version = require_uint(root.find("version"), "version");
  if (!version.is_ok()) return version.status();
  if (version.value() != CampaignCheckpoint::kVersion) {
    return data_loss("checkpoint: unsupported version");
  }

  CampaignCheckpoint ckpt(geometry);
  auto fingerprint = parse_hex_u64(root.find("fingerprint"), "fingerprint");
  if (!fingerprint.is_ok()) return fingerprint.status();
  ckpt.fingerprint = fingerprint.value();
  auto done = require_bool(root.find("reliability_done"), "reliability_done");
  if (!done.is_ok()) return done.status();
  ckpt.reliability_done = done.value();
  auto seq = require_uint(root.find("power_snapshot_seq"),
                          "power_snapshot_seq");
  if (!seq.is_ok()) return seq.status();
  ckpt.power_snapshot_seq = seq.value();

  const json::Value* reliability = find_array(root, "reliability");
  if (reliability == nullptr) {
    return data_loss("checkpoint: missing field reliability");
  }
  for (const json::Value& entry : reliability->items) {
    auto mv = require_uint(entry.find("mv"), "reliability.mv", INT_MAX);
    if (!mv.is_ok()) return mv.status();
    const Millivolts v{static_cast<int>(mv.value())};
    if (ckpt.fault_map.at(v) != nullptr) {
      return data_loss("checkpoint: repeated reliability voltage");
    }
    auto crashed = require_bool(entry.find("crashed"), "reliability.crashed");
    if (!crashed.is_ok()) return crashed.status();
    const json::Value* pcs = find_array(entry, "pcs");
    if (pcs == nullptr || pcs->items.size() != geometry.total_pcs()) {
      return data_loss("checkpoint: reliability row does not cover every PC");
    }
    if (crashed.value()) ckpt.fault_map.record_crash(v);
    for (unsigned pc = 0; pc < pcs->items.size(); ++pc) {
      const json::Value& tuple = pcs->items[pc];
      if (!tuple.is_array() || tuple.items.size() != 5) {
        return data_loss("checkpoint: malformed PC record");
      }
      std::uint64_t fields[5];
      for (std::size_t f = 0; f < 5; ++f) {
        auto field = require_uint(&tuple.items[f], "reliability.pcs");
        if (!field.is_ok()) return field.status();
        fields[f] = field.value();
      }
      ckpt.fault_map.record(
          v, pc, {fields[0], fields[1], fields[2], fields[3], fields[4]});
    }
  }

  const json::Value* power = find_array(root, "power");
  if (power == nullptr) return data_loss("checkpoint: missing field power");
  for (const json::Value& entry : power->items) {
    auto ports = require_uint(entry.find("ports"), "power.ports", UINT_MAX);
    if (!ports.is_ok()) return ports.status();
    const json::Value* rows = find_array(entry, "rows");
    if (rows == nullptr) {
      return data_loss("checkpoint: missing field power.rows");
    }
    PowerSeries series;
    series.ports = static_cast<unsigned>(ports.value());
    series.utilization = static_cast<double>(series.ports) /
                         static_cast<double>(geometry.total_pcs());
    for (const json::Value& row : rows->items) {
      auto mv = require_uint(row.find("mv"), "power.rows.mv", INT_MAX);
      if (!mv.is_ok()) return mv.status();
      const Millivolts v{static_cast<int>(mv.value())};
      if (series.power_at(v).has_value()) {
        return data_loss("checkpoint: repeated voltage in a power series");
      }
      auto bits = parse_hex_u64(row.find("watts"), "power.rows.watts");
      if (!bits.is_ok()) return bits.status();
      series.voltages.push_back(v);
      series.power.push_back(Watts{std::bit_cast<double>(bits.value())});
    }
    ckpt.power.push_back(std::move(series));
  }
  return ckpt;
}

Status save_checkpoint(const CampaignCheckpoint& ckpt,
                       const std::string& path) {
  // Atomic write: the previous checkpoint survives a kill at any point.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return unavailable("cannot open checkpoint tmp file: " + tmp);
    out << checkpoint_to_json(ckpt);
    if (!out.good()) return unavailable("checkpoint write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return unavailable("checkpoint rename failed: " + ec.message());
  }
  return Status::ok();
}

Result<CampaignCheckpoint> load_checkpoint(const std::string& path,
                                           const hbm::HbmGeometry& geometry) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return not_found("no checkpoint at " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return unavailable("cannot read checkpoint: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return checkpoint_from_json(buffer.str(), geometry);
}

}  // namespace hbmvolt::core
