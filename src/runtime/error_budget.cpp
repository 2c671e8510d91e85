#include "runtime/error_budget.hpp"

namespace hbmvolt::runtime {

BudgetVerdict ErrorBudget::record(std::uint64_t words, std::uint64_t corrected,
                                  std::uint64_t uncorrectable) {
  if (burned()) return verdict_;  // latched until the ladder resets us
  words_ += words;
  corrected_ += corrected;
  uncorrectable_ += uncorrectable;

  if (uncorrectable_ > config_.uncorrectable_tolerance) {
    verdict_ = BudgetVerdict::kUncorrectableBurn;
    ++burns_;
    return verdict_;
  }
  if (words_ >= config_.window_words) {
    const double rate = words_ == 0
                            ? 0.0
                            : static_cast<double>(corrected_) /
                                  static_cast<double>(words_);
    ++windows_completed_;
    if (rate > config_.corrected_slo) {
      verdict_ = BudgetVerdict::kCorrectedBurn;
      ++burns_;
      return verdict_;
    }
    // Healthy window: roll over.
    words_ = 0;
    corrected_ = 0;
    uncorrectable_ = 0;
  }
  return BudgetVerdict::kHealthy;
}

void ErrorBudget::record_clean(std::uint64_t words) {
  if (burned() || words == 0) return;
  // Complete the in-progress window through the normal path: its verdict
  // depends on corrections recorded before this clean batch.
  const std::uint64_t to_fill = config_.window_words > words_
                                    ? config_.window_words - words_
                                    : 0;
  if (words < to_fill) {
    words_ += words;
    return;
  }
  record(to_fill, 0, 0);
  if (burned()) return;  // latched exactly where the per-word loop would stop
  words -= to_fill;
  // Every remaining window is all-clean, hence healthy: fast-forward.
  if (config_.window_words > 0) {
    windows_completed_ += words / config_.window_words;
    words_ = words % config_.window_words;
  }
}

void ErrorBudget::reset() {
  words_ = 0;
  corrected_ = 0;
  uncorrectable_ = 0;
  verdict_ = BudgetVerdict::kHealthy;
}

}  // namespace hbmvolt::runtime
