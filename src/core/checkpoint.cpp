#include "core/checkpoint.hpp"

#include <bit>
#include <charconv>
#include <climits>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hpp"

namespace hbmvolt::core {

namespace {

/// Appends `value` in decimal.
template <typename T>
void append_number(std::string& out, T value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// Appends `value` as 16 lower-case hex digits.
void append_hex(std::string& out, std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = kDigits[value & 0xF];
    value >>= 4;
  }
  out.append(buf, sizeof(buf));
}

void append_bool(std::string& out, bool value) {
  out += value ? "true" : "false";
}

/// The `"reliability": [...]` member, through its trailing ",\n".
void append_reliability(std::string& out, const faults::FaultMap& map) {
  out += "  \"reliability\": [";
  const std::vector<Millivolts> voltages = map.voltages();
  for (std::size_t i = 0; i < voltages.size(); ++i) {
    const faults::VoltageObservation& row = *map.at(voltages[i]);
    out += i == 0 ? "\n    {\"mv\": " : ",\n    {\"mv\": ";
    append_number(out, voltages[i].value);
    out += ", \"crashed\": ";
    append_bool(out, row.crashed);
    out += ", \"pcs\": [";
    for (std::size_t p = 0; p < row.pcs.size(); ++p) {
      const faults::PcFaultRecord& pc = row.pcs[p];
      out += p == 0 ? "[" : ", [";
      append_number(out, pc.bits_tested);
      out += ", ";
      append_number(out, pc.flips_1to0);
      out += ", ";
      append_number(out, pc.flips_0to1);
      out += ", ";
      append_number(out, pc.bits_tested_ones);
      out += ", ";
      append_number(out, pc.bits_tested_zeros);
      out += ']';
    }
    out += "]}";
  }
  out += voltages.empty() ? "],\n" : "\n  ],\n";
}

/// The `"power": [...]` member, through its trailing "\n".
void append_power(std::string& out, const std::vector<PowerSeries>& power) {
  out += "  \"power\": [";
  for (std::size_t i = 0; i < power.size(); ++i) {
    const PowerSeries& series = power[i];
    out += i == 0 ? "\n    {\"ports\": " : ",\n    {\"ports\": ";
    append_number(out, series.ports);
    out += ", \"rows\": [";
    for (std::size_t r = 0; r < series.voltages.size(); ++r) {
      out += r == 0 ? "{\"mv\": " : ", {\"mv\": ";
      append_number(out, series.voltages[r].value);
      out += ", \"watts\": \"";
      append_hex(out, std::bit_cast<std::uint64_t>(series.power[r].value));
      out += "\"}";
    }
    out += "]}";
  }
  out += power.empty() ? "]\n" : "\n  ]\n";
}

/// Room for a reliability section of up-to-7-digit counters, so an
/// encode reserves once: a row header, then one five-counter tuple per PC.
std::size_t reliability_bytes(const faults::FaultMap& map) {
  return 32 + map.voltages().size() *
                  (48 + std::size_t{map.geometry().total_pcs()} * 40);
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

const std::string& CheckpointWriter::encode(const CampaignCheckpoint& ckpt) {
  const bool reuse = ckpt.reliability_done && !reliability_.empty();
  std::size_t power_rows = 0;
  for (const PowerSeries& series : ckpt.power) {
    power_rows += series.voltages.size();
  }
  text_.clear();
  text_.reserve(160 +
                (reuse ? reliability_.size()
                       : reliability_bytes(ckpt.fault_map)) +
                32 * ckpt.power.size() + 48 * power_rows);
  text_ += "{\n  \"version\": ";
  append_number(text_, CampaignCheckpoint::kVersion);
  text_ += ",\n  \"fingerprint\": \"";
  append_hex(text_, ckpt.fingerprint);
  text_ += "\",\n  \"reliability_done\": ";
  append_bool(text_, ckpt.reliability_done);
  text_ += ",\n  \"power_snapshot_seq\": ";
  append_number(text_, ckpt.power_snapshot_seq);
  text_ += ",\n";
  if (reuse) {
    text_ += reliability_;
  } else {
    const std::size_t start = text_.size();
    append_reliability(text_, ckpt.fault_map);
    // Once reliability_done is set the map is final: keep its text.
    if (ckpt.reliability_done) reliability_.assign(text_, start);
  }
  append_power(text_, ckpt.power);
  text_ += "}\n";
  return text_;
}

Status CheckpointWriter::save(const CampaignCheckpoint& ckpt,
                              const std::string& path) {
  const std::string& text = encode(ckpt);
  // Atomic write: the previous checkpoint survives a kill at any point.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return unavailable("cannot open checkpoint tmp file: " + tmp);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    if (!out.good()) return unavailable("checkpoint write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return unavailable("checkpoint rename failed: " + ec.message());
  }
  return Status::ok();
}

std::string checkpoint_to_json(const CampaignCheckpoint& ckpt) {
  CheckpointWriter writer;
  return writer.encode(ckpt);
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
  CheckpointWriter writer;
  return writer.save(ckpt, path);
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
