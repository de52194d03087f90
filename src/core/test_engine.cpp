#include "core/test_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>


namespace effitest::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

std::size_t pathwise_iterations(double lower, double upper, double epsilon) {
  if (epsilon <= 0.0) {
    throw std::invalid_argument("pathwise_iterations: epsilon must be > 0");
  }
  std::size_t iters = 0;
  double width = upper - lower;
  while (width >= epsilon) {
    width *= 0.5;
    ++iters;
  }
  return iters;
}

DelayTestMachine::DelayTestMachine(const Problem& problem,
                                   const std::vector<Batch>& batches,
                                   std::span<const double> prior_lower,
                                   std::span<const double> prior_upper,
                                   std::span<const HoldConstraintX> hold,
                                   const TestOptions& options)
    : problem_(&problem), batches_(&batches), options_(options) {
  const std::size_t np = problem.model().num_pairs();
  if (prior_lower.size() != np || prior_upper.size() != np) {
    throw std::invalid_argument(
        "DelayTestMachine: prior bounds size mismatch");
  }
  result_.lower.assign(prior_lower.begin(), prior_lower.end());
  result_.upper.assign(prior_upper.begin(), prior_upper.end());
  result_.tested.assign(np, false);
  result_.final_steps = problem.neutral_steps();
  instance_.problem = problem_;
  instance_.hold.assign(hold.begin(), hold.end());
  instance_.allow_buffer_moves = options_.align_with_buffers;
  settle();
}

void DelayTestMachine::settle() {
  for (;;) {
    if (!batch_loaded_) {
      if (batch_idx_ >= batches_->size()) {
        done_ = true;
        return;
      }
      active_ = (*batches_)[batch_idx_].paths;
      batch_iters_ = 0;
      batch_loaded_ = true;
    }
    if (active_.empty()) {
      batch_loaded_ = false;
      ++batch_idx_;
      continue;
    }
    if (batch_iters_ >= kMaxIterationsPerBatch) {
      // Safety stop: everything still unresolved is force-resolved
      // (Procedure 2's escape hatch — identical accounting to the
      // historical loop's break-then-mark).
      result_.forced += active_.size();
      for (std::size_t p : active_) result_.tested[p] = true;
      active_.clear();
      batch_loaded_ = false;
      ++batch_idx_;
      continue;
    }
    return;  // ready to emit a stimulus for `active_`
  }
}

const Stimulus& DelayTestMachine::next_stimulus() {
  if (done_) {
    throw std::logic_error("DelayTestMachine: next_stimulus after done");
  }
  if (stimulus_ready_) return stimulus_;

  // Refill the alignment instance over the still-unresolved paths.
  instance_.current_steps = result_.final_steps;
  centers_.clear();
  for (std::size_t p : active_) {
    centers_.push_back(0.5 * (result_.lower[p] + result_.upper[p]));
  }
  middle_out_weights(centers_, options_.k0, options_.kd, weight_order_,
                     weights_);
  instance_.entries.clear();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::size_t p = active_[i];
    instance_.entries.push_back(AlignmentEntry{centers_[i], weights_[i],
                                               problem_->src_buffer(p),
                                               problem_->dst_buffer(p)});
  }

  const auto t0 = Clock::now();
  AlignmentResult aligned = solve_alignment(instance_, &workspace_,
                                            std::move(result_.final_steps));
  result_.align_seconds += seconds_since(t0);
  stimulus_.steps = aligned.steps;
  result_.final_steps = std::move(aligned.steps);

  stimulus_.period = aligned.period;
  stimulus_.armed = active_;
  stimulus_ready_ = true;
  return stimulus_;
}

void DelayTestMachine::record_response(const std::vector<bool>& pass) {
  if (!stimulus_ready_) {
    throw std::logic_error(
        "DelayTestMachine: record_response without next_stimulus");
  }
  if (pass.size() != stimulus_.armed.size()) {
    throw std::invalid_argument(
        "DelayTestMachine: response size does not match armed pair count");
  }
  ++result_.iterations;
  ++batch_iters_;
  // The armed list is the previous active set; rebuild active_ in place.
  active_.clear();
  for (std::size_t i = 0; i < stimulus_.armed.size(); ++i) {
    const std::size_t p = stimulus_.armed[i];
    const double skew = problem_->pair_skew(p, result_.final_steps);
    // The tested constraint is D + skew <= T, so the information gained
    // about D itself is the bound T - skew (Procedure 2 lines 9/11).
    const double effective = stimulus_.period - skew;
    if (pass[i]) {
      result_.upper[p] = std::min(result_.upper[p], effective);
    } else {
      result_.lower[p] = std::max(result_.lower[p], effective);
    }
    // Test escapes (true delay outside the prior range) can cross the
    // bounds; clamp conservatively. A pinched range (bounds crossed or
    // met) carries no width left to bisect, so the pair resolves
    // regardless of epsilon — otherwise a non-positive epsilon would
    // keep it active until the safety stop force-resolves it after
    // kMaxIterationsPerBatch wasted tester steps.
    if (result_.upper[p] < result_.lower[p]) {
      result_.lower[p] = result_.upper[p];
    }
    if (result_.upper[p] <= result_.lower[p] ||
        result_.upper[p] - result_.lower[p] < options_.epsilon_ps) {
      result_.tested[p] = true;
    } else {
      active_.push_back(p);
    }
  }
  stimulus_ready_ = false;
  settle();
}

}  // namespace effitest::core
