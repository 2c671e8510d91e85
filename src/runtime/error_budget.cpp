#include "runtime/error_budget.hpp"

namespace hbmvolt::runtime {

BudgetVerdict ErrorBudget::record(std::uint64_t words, std::uint64_t corrected,
                                  std::uint64_t uncorrectable) {
  if (burned()) return state_.verdict;  // latched until the ladder resets us
  state_.words += words;
  state_.corrected += corrected;
  state_.uncorrectable += uncorrectable;

  if (state_.uncorrectable > config_.uncorrectable_tolerance) {
    state_.verdict = BudgetVerdict::kUncorrectableBurn;
    ++state_.burns;
    return state_.verdict;
  }
  if (state_.words >= config_.window_words) {
    const double rate = state_.words == 0
                            ? 0.0
                            : static_cast<double>(state_.corrected) /
                                  static_cast<double>(state_.words);
    ++state_.windows_completed;
    if (rate > config_.corrected_slo) {
      state_.verdict = BudgetVerdict::kCorrectedBurn;
      ++state_.burns;
      return state_.verdict;
    }
    // Healthy window: roll over.
    state_.words = 0;
    state_.corrected = 0;
    state_.uncorrectable = 0;
  }
  return BudgetVerdict::kHealthy;
}

void ErrorBudget::record_clean(std::uint64_t words) {
  if (burned() || words == 0) return;
  // Complete the in-progress window through the normal path: its verdict
  // depends on corrections recorded before this clean batch.
  const std::uint64_t to_fill = config_.window_words > state_.words
                                    ? config_.window_words - state_.words
                                    : 0;
  if (words < to_fill) {
    state_.words += words;
    return;
  }
  record(to_fill, 0, 0);
  if (burned()) return;  // latched exactly where the per-word loop would stop
  words -= to_fill;
  // Every remaining window is all-clean, hence healthy: fast-forward.
  if (config_.window_words > 0) {
    state_.windows_completed += words / config_.window_words;
    state_.words = words % config_.window_words;
  }
}

void ErrorBudget::reset() {
  state_.words = 0;
  state_.corrected = 0;
  state_.uncorrectable = 0;
  state_.verdict = BudgetVerdict::kHealthy;
}

}  // namespace hbmvolt::runtime
