// Windowed error-budget monitor for the resilient runtime.
//
// SRE-style error budgets applied to memory reliability: the channel is
// allowed a bounded rate of *corrected* words per window (corrections
// cost latency and signal decaying margin) and essentially zero
// *uncorrectable* words (each one is an SLO breach the ladder must act
// on).  The monitor only accounts and judges; acting on a burned budget
// is the degradation ladder's job (see reliable_channel.hpp).

#pragma once

#include <cstdint>

namespace hbmvolt::runtime {

struct ErrorBudgetConfig {
  /// Decoded words per accounting window.
  std::uint64_t window_words = 4096;
  /// Budgeted corrected-word fraction per window; a *complete* window
  /// above this burns the budget.
  double corrected_slo = 0.01;
  /// Uncorrectable words tolerated per window before the budget burns
  /// immediately (no need to wait for the window to fill).
  std::uint64_t uncorrectable_tolerance = 0;
};

enum class BudgetVerdict {
  kHealthy,
  kCorrectedBurn,      // corrected rate over SLO at window completion
  kUncorrectableBurn,  // uncorrectable words over tolerance
};

/// A budget's window accounting, all that record(), record_clean() and
/// reset() change.  ErrorBudget holds one, so a checkpoint copies it whole
/// (see fleet.hpp).
struct ErrorBudgetState {
  std::uint64_t words = 0;
  std::uint64_t corrected = 0;
  std::uint64_t uncorrectable = 0;
  std::uint64_t windows_completed = 0;
  std::uint64_t burns = 0;
  BudgetVerdict verdict = BudgetVerdict::kHealthy;
};

/// Deterministic windowed accounting.  record() folds one batch of
/// decoded words in and returns the verdict after the batch; a healthy
/// window that fills up rolls over silently.  A burned window stays
/// burned until reset() -- the ladder consumes the burn by acting, then
/// resets.
class ErrorBudget {
 public:
  explicit ErrorBudget(ErrorBudgetConfig config) : config_(config) {}

  BudgetVerdict record(std::uint64_t words, std::uint64_t corrected,
                       std::uint64_t uncorrectable);

  /// Folds `words` clean decoded words in, exactly equivalent to that many
  /// record(1, 0, 0) calls but O(1): the chunk that completes the current
  /// window goes through the normal rate check (the window may still burn
  /// on *previously* accumulated corrections), and the remaining fully
  /// clean windows are fast-forwarded arithmetically.  This is what lets
  /// the range calls account a multi-thousand-beat clean run without a
  /// per-beat loop while staying identical to per-op reads.
  void record_clean(std::uint64_t words);

  /// Consume a burn (or abandon the current window) after a ladder
  /// action; accounting restarts from an empty window.
  void reset();

  [[nodiscard]] BudgetVerdict verdict() const noexcept {
    return state_.verdict;
  }
  [[nodiscard]] bool burned() const noexcept {
    return state_.verdict != BudgetVerdict::kHealthy;
  }

  [[nodiscard]] std::uint64_t window_words() const noexcept {
    return state_.words;
  }
  [[nodiscard]] std::uint64_t window_corrected() const noexcept {
    return state_.corrected;
  }
  [[nodiscard]] std::uint64_t window_uncorrectable() const noexcept {
    return state_.uncorrectable;
  }
  [[nodiscard]] std::uint64_t windows_completed() const noexcept {
    return state_.windows_completed;
  }
  [[nodiscard]] std::uint64_t burns() const noexcept { return state_.burns; }
  /// The current window's corrected rate over its SLO (1.0 = exactly on
  /// budget); 0 for an empty window or a non-positive SLO.
  [[nodiscard]] double burn_fraction() const noexcept {
    if (state_.words == 0 || !(config_.corrected_slo > 0.0)) return 0.0;
    return static_cast<double>(state_.corrected) /
           static_cast<double>(state_.words) / config_.corrected_slo;
  }
  [[nodiscard]] const ErrorBudgetConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] const ErrorBudgetState& state() const noexcept {
    return state_;
  }
  void restore(const ErrorBudgetState& state) noexcept { state_ = state; }

 private:
  ErrorBudgetConfig config_;
  ErrorBudgetState state_;
};

}  // namespace hbmvolt::runtime
