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

/// Plain-data snapshot of a budget's window accounting, for fleet
/// checkpoint/restore (see fleet.hpp).
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

  [[nodiscard]] BudgetVerdict verdict() const noexcept { return verdict_; }
  [[nodiscard]] bool burned() const noexcept {
    return verdict_ != BudgetVerdict::kHealthy;
  }

  [[nodiscard]] std::uint64_t window_words() const noexcept { return words_; }
  [[nodiscard]] std::uint64_t window_corrected() const noexcept {
    return corrected_;
  }
  [[nodiscard]] std::uint64_t window_uncorrectable() const noexcept {
    return uncorrectable_;
  }
  [[nodiscard]] std::uint64_t windows_completed() const noexcept {
    return windows_completed_;
  }
  [[nodiscard]] std::uint64_t burns() const noexcept { return burns_; }
  /// The current window's corrected rate over its SLO (1.0 = exactly on
  /// budget); 0 for an empty window or a non-positive SLO.
  [[nodiscard]] double burn_fraction() const noexcept {
    if (words_ == 0 || !(config_.corrected_slo > 0.0)) return 0.0;
    return static_cast<double>(corrected_) / static_cast<double>(words_) /
           config_.corrected_slo;
  }
  [[nodiscard]] const ErrorBudgetConfig& config() const noexcept {
    return config_;
  }

  [[nodiscard]] ErrorBudgetState state() const noexcept {
    return {words_, corrected_, uncorrectable_, windows_completed_, burns_,
            verdict_};
  }
  void restore(const ErrorBudgetState& state) noexcept {
    words_ = state.words;
    corrected_ = state.corrected;
    uncorrectable_ = state.uncorrectable;
    windows_completed_ = state.windows_completed;
    burns_ = state.burns;
    verdict_ = state.verdict;
  }

 private:
  ErrorBudgetConfig config_;
  std::uint64_t words_ = 0;
  std::uint64_t corrected_ = 0;
  std::uint64_t uncorrectable_ = 0;
  std::uint64_t windows_completed_ = 0;
  std::uint64_t burns_ = 0;
  BudgetVerdict verdict_ = BudgetVerdict::kHealthy;
};

}  // namespace hbmvolt::runtime
