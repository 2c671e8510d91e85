#include "runtime/health.hpp"

#include "common/status.hpp"
#include "common/table.hpp"
#include "telemetry/hdr_histogram.hpp"
#include "telemetry/telemetry.hpp"

namespace hbmvolt::runtime {

void HealthRegistry::reset(std::size_t pc_count) {
  pcs_.assign(pc_count, PcHealth{});
  epoch_ = 0;
}

void HealthRegistry::update(std::size_t slot, const ReliableChannel& channel,
                            Millivolts voltage, std::uint64_t epoch,
                            const char* scheme, const char* stripe) {
  HBMVOLT_REQUIRE(slot < pcs_.size(), "health registry slot out of range");
  PcHealth& h = pcs_[slot];
  h.pc = channel.pc_global();
  h.voltage_mv = voltage.value;
  h.last_rung = LadderRung::kCorrect;
  h.last_rung_op = 0;
  for (const LadderEvent& event : channel.ladder_trace()) {
    if (event.rung > h.last_rung) h.last_rung = event.rung;
    h.last_rung_op = event.op;
  }
  const ErrorBudget& budget = channel.budget();
  h.burn_fraction = budget.burn_fraction();
  h.budget_burns = budget.burns();
  h.spares_free = channel.spares_free();
  h.parked_beats = channel.parked_count();
  h.scrub_lag_beats = channel.capacity() - channel.scrub_cursor();
  const ChannelStats& stats = channel.stats();
  h.reads = stats.reads;
  h.writes = stats.writes;
  h.corrected = stats.corrected_words + stats.corrected_check_words;
  h.uncorrectable_blocked = stats.uncorrectable_blocked;
  h.journal_served = stats.journal_served_reads;
  h.reconstructed = stats.reconstructed_reads;
  h.scheme = scheme;
  h.stripe = stripe;
  epoch_ = epoch;
}

void HealthRegistry::set(std::size_t slot, const PcHealth& health) {
  HBMVOLT_REQUIRE(slot < pcs_.size(), "health registry slot out of range");
  pcs_[slot] = health;
}

void HealthRegistry::set_tenants(std::vector<TenantHealth> tenants) {
  tenants_ = std::move(tenants);
}

std::string HealthRegistry::to_json() const {
  using telemetry::json_quoted;
  std::string out = "{\"epoch\":" + std::to_string(epoch_) + ",\"pcs\":[\n";
  for (std::size_t i = 0; i < pcs_.size(); ++i) {
    const PcHealth& h = pcs_[i];
    if (i > 0) out += ",\n";
    out += "{\"pc\":" + std::to_string(h.pc) +
           ",\"voltage_mv\":" + std::to_string(h.voltage_mv) +
           ",\"last_rung\":" + json_quoted(to_string(h.last_rung)) +
           ",\"last_rung_op\":" + std::to_string(h.last_rung_op) +
           ",\"burn_fraction\":" + format_double(h.burn_fraction, 3) +
           ",\"budget_burns\":" + std::to_string(h.budget_burns) +
           ",\"spares_free\":" + std::to_string(h.spares_free) +
           ",\"parked_beats\":" + std::to_string(h.parked_beats) +
           ",\"scrub_lag_beats\":" + std::to_string(h.scrub_lag_beats) +
           ",\"reads\":" + std::to_string(h.reads) +
           ",\"writes\":" + std::to_string(h.writes) +
           ",\"corrected\":" + std::to_string(h.corrected) +
           ",\"uncorrectable_blocked\":" +
           std::to_string(h.uncorrectable_blocked) +
           ",\"journal_served\":" + std::to_string(h.journal_served) +
           ",\"reconstructed\":" + std::to_string(h.reconstructed) +
           ",\"scheme\":" + json_quoted(h.scheme) +
           ",\"stripe\":" + json_quoted(h.stripe) + "}";
  }
  out += "\n]";
  if (!tenants_.empty()) {
    out += ",\"tenants\":[\n";
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      const TenantHealth& t = tenants_[i];
      if (i > 0) out += ",\n";
      out += "{\"name\":" + json_quoted(t.name) +
             ",\"qos\":" + json_quoted(t.qos) +
             ",\"mix\":" + json_quoted(t.mix) +
             ",\"demand\":" + std::to_string(t.demand) +
             ",\"admitted\":" + std::to_string(t.admitted) +
             ",\"served\":" + std::to_string(t.served) +
             ",\"hedged\":" + std::to_string(t.hedged) +
             ",\"stale\":" + std::to_string(t.stale) +
             ",\"shed\":" + std::to_string(t.shed) +
             ",\"shed_deadline\":" + std::to_string(t.shed_deadline) +
             ",\"retries\":" + std::to_string(t.retries) +
             ",\"surges\":" + std::to_string(t.surges) +
             ",\"p50_model_ns\":" + std::to_string(t.p50_model_ns) +
             ",\"p99_model_ns\":" + std::to_string(t.p99_model_ns) +
             ",\"slo_model_ns\":" + std::to_string(t.slo_model_ns) +
             ",\"slo_ok\":" + (t.slo_ok ? "true" : "false") + "}";
    }
    out += "\n]";
  }
  out += "}\n";
  return out;
}

std::string render_dashboard(const HealthRegistry& health,
                             const telemetry::AlertEngine* alerts,
                             const telemetry::MetricRegistry* metrics) {
  std::string out =
      "fleet health @ epoch " + std::to_string(health.epoch()) + "\n";

  AsciiTable table;
  table.set_header({"pc", "mV", "scheme", "stripe", "rung", "burn", "burns",
                    "spares", "parked", "scrub-lag", "reads", "corr", "unc",
                    "jrnl", "recon"});
  for (const PcHealth& h : health.pcs()) {
    table.add_row({std::to_string(h.pc), std::to_string(h.voltage_mv),
                   h.scheme, h.stripe, to_string(h.last_rung),
                   format_double(h.burn_fraction, 2),
                   std::to_string(h.budget_burns),
                   std::to_string(h.spares_free),
                   std::to_string(h.parked_beats),
                   std::to_string(h.scrub_lag_beats), std::to_string(h.reads),
                   std::to_string(h.corrected),
                   std::to_string(h.uncorrectable_blocked),
                   std::to_string(h.journal_served),
                   std::to_string(h.reconstructed)});
  }
  out += table.to_string();

  if (!health.tenants().empty()) {
    AsciiTable tenants;
    tenants.set_header({"tenant", "qos", "mix", "demand", "admit", "served",
                        "hedge", "stale", "shed", "p99", "slo", "ok"});
    for (const TenantHealth& t : health.tenants()) {
      tenants.add_row(
          {t.name, t.qos, t.mix, std::to_string(t.demand),
           std::to_string(t.admitted), std::to_string(t.served),
           std::to_string(t.hedged), std::to_string(t.stale),
           std::to_string(t.shed), telemetry::format_duration_ns(t.p99_model_ns),
           telemetry::format_duration_ns(t.slo_model_ns),
           t.slo_ok ? "yes" : "NO"});
    }
    out += tenants.to_string();
  }

  if (metrics != nullptr) {
    for (const auto& family : metrics->hdr_family_values()) {
      if (family.merged.count == 0) continue;
      if (family.name != "latency.read" && family.name != "latency.write") {
        continue;
      }
      out += "latency " + family.name.substr(sizeof("latency.") - 1) +
             "  p50 " + telemetry::format_duration_ns(family.merged.q.p50) +
             "  p99 " + telemetry::format_duration_ns(family.merged.q.p99) +
             "  p999 " + telemetry::format_duration_ns(family.merged.q.p999) +
             "  max " + telemetry::format_duration_ns(family.merged.max) +
             "  (n=" + std::to_string(family.merged.count) + ")\n";
    }
  }

  if (alerts != nullptr) {
    for (const telemetry::AlertRule& rule : alerts->rules()) {
      const double fast = alerts->burn_rate(rule, rule.fast_epochs);
      const double slow = alerts->burn_rate(rule, rule.slow_epochs);
      out += "alert " + rule.name +
             (alerts->firing(rule.name) ? "  FIRING" : "  ok") + " (fast " +
             format_double(fast, 2) + "x / slow " + format_double(slow, 2) +
             "x)\n";
    }
  }
  return out;
}

}  // namespace hbmvolt::runtime
