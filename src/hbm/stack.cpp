#include "hbm/stack.hpp"

#include "common/rng.hpp"

namespace hbmvolt::hbm {

HbmStack::HbmStack(const HbmGeometry& geometry, unsigned stack_index,
                   faults::FaultInjector& injector, std::uint64_t seed)
    : geometry_(geometry),
      index_(stack_index),
      injector_(injector),
      seed_(seed) {
  HBMVOLT_REQUIRE(stack_index < geometry.stacks, "stack index out of range");
  arrays_.reserve(geometry_.pcs_per_stack());
  for (unsigned pc = 0; pc < geometry_.pcs_per_stack(); ++pc) {
    arrays_.push_back(std::make_unique<MemoryArray>(
        geometry_.bits_per_pc, mix_seed(seed_, 0xA22A0 + pc)));
  }
  killed_.assign(geometry_.pcs_per_stack(), false);
}

void HbmStack::on_voltage_change(Millivolts v) {
  voltage_ = v;
  if (v.value <= 0) {
    if (state_ != State::kPoweredOff) {
      state_ = State::kPoweredOff;
      // DRAM loses its contents without power.
      for (unsigned pc = 0; pc < arrays_.size(); ++pc) {
        arrays_[pc]->scramble(mix_seed(seed_, 0xDEAD0 + pc));
      }
    }
    return;
  }
  if (injector_.model().is_crash_voltage(v)) {
    state_ = State::kCrashed;  // restoring voltage will not recover it
    return;
  }
  if (state_ == State::kPoweredOff) {
    state_ = State::kOperational;  // power-up restart
  }
  // A crashed stack stays crashed until a power cycle.
}

Status HbmStack::check_access(unsigned pc_local, std::uint64_t beat) const {
  switch (state_) {
    case State::kCrashed:
      return unavailable("HBM stack crashed; power cycle required");
    case State::kPoweredOff:
      return unavailable("HBM stack is powered off");
    case State::kOperational:
      break;
  }
  if (pc_local >= geometry_.pcs_per_stack()) {
    return out_of_range("pseudo-channel index out of range");
  }
  if (killed_[pc_local]) {
    return unavailable("pseudo-channel killed; not recoverable in place");
  }
  if (beat >= geometry_.beats_per_pc()) {
    return out_of_range("beat address beyond PC capacity");
  }
  return Status::ok();
}

Status HbmStack::write_beat(unsigned pc_local, std::uint64_t beat,
                            const Beat& data) {
  HBMVOLT_RETURN_IF_ERROR(check_access(pc_local, beat));
  arrays_[pc_local]->write_beat(beat, data);
  return Status::ok();
}

Result<Beat> HbmStack::read_beat(unsigned pc_local, std::uint64_t beat) {
  Beat data{};
  HBMVOLT_RETURN_IF_ERROR(read_words(pc_local, beat, 0, data));
  return data;
}

Status HbmStack::check_range(unsigned pc_local, std::uint64_t start_beat,
                             std::uint64_t beats) const {
  HBMVOLT_RETURN_IF_ERROR(check_access(pc_local, start_beat));
  if (beats == 0 || beats > geometry_.beats_per_pc() - start_beat) {
    return out_of_range("beat range beyond PC capacity");
  }
  return Status::ok();
}

Status HbmStack::write_range(unsigned pc_local, std::uint64_t start_beat,
                             std::uint64_t beats, const WordPattern& pattern) {
  HBMVOLT_RETURN_IF_ERROR(check_range(pc_local, start_beat, beats));
  arrays_[pc_local]->fill_range(start_beat, beats, pattern);
  return Status::ok();
}

Result<RangeFlips> HbmStack::read_verify_range(
    unsigned pc_local, std::uint64_t start_beat, std::uint64_t beats,
    const WordPattern& pattern, bool after_matching_write,
    std::uint64_t* diff_out) {
  HBMVOLT_RETURN_IF_ERROR(check_range(pc_local, start_beat, beats));
  if (after_matching_write) {
    return injector_.overlay(global_pc(pc_local))
        .verify_after_fill(start_beat, beats, pattern, diff_out);
  }
  // Per call, not per stack: a fan-out reads the stack's PCs in parallel.
  std::vector<std::uint64_t> observed(beats * 4);
  HBMVOLT_RETURN_IF_ERROR(read_words(pc_local, start_beat, 0, observed));
  return compare_range(start_beat, observed, pattern, diff_out);
}

Status HbmStack::read_range_words(unsigned pc_local, std::uint64_t start_beat,
                                  std::uint64_t beats, std::uint64_t* out) {
  return read_words(pc_local, start_beat, 0,
                    std::span<std::uint64_t>(out, beats * 4));
}

Status HbmStack::write_range_words(unsigned pc_local, std::uint64_t start_beat,
                                   std::uint64_t beats,
                                   const std::uint64_t* data) {
  HBMVOLT_RETURN_IF_ERROR(check_range(pc_local, start_beat, beats));
  arrays_[pc_local]->write_words(start_beat * 4, beats * 4, data);
  return Status::ok();
}

Result<std::uint64_t> HbmStack::read_word(unsigned pc_local,
                                          std::uint64_t word_index) {
  std::uint64_t word = 0;
  HBMVOLT_RETURN_IF_ERROR(read_words(pc_local, word_index / 4, word_index % 4,
                                     std::span<std::uint64_t>(&word, 1)));
  return word;
}

Status HbmStack::read_words(unsigned pc_local, std::uint64_t beat,
                            std::uint64_t word_in_beat,
                            std::span<std::uint64_t> out) {
  HBMVOLT_RETURN_IF_ERROR(check_access(pc_local, beat));
  const std::uint64_t first_word = beat * 4 + word_in_beat;
  if (out.empty() || out.size() > geometry_.bits_per_pc / 64 - first_word) {
    return out_of_range("beat range beyond PC capacity");
  }
  arrays_[pc_local]->read_words(first_word, out.size(), out.data());
  injector_.overlay(global_pc(pc_local)).apply(first_word, out);
  return Status::ok();
}

MemoryArray& HbmStack::array(unsigned pc_local) {
  HBMVOLT_REQUIRE(pc_local < arrays_.size(), "PC index out of range");
  return *arrays_[pc_local];
}

}  // namespace hbmvolt::hbm
