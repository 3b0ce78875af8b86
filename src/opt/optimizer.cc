#include "opt/optimizer.h"

#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lkpdpp {

namespace {

// Non-finite gradients caught by ClipGlobalNorm before any parameter
// was touched, attributed to the optimizer site.
obs::Counter* OptNumericalErrors() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "lkp_numerical_errors_total{site=\"optimizer\"}");
  return counter;
}

// Fewest param rows a lane claims at once: an embedding row of d = 16
// updates in well under a microsecond, so smaller chunks cost more to
// hand out than to compute. Small params (dense layer weights) stay on
// the caller.
constexpr int kMinRowsPerChunk = 64;

}  // namespace

Result<double> Optimizer::ClipGlobalNorm(
    const std::vector<ad::Param*>& params, double clip_norm,
    ThreadPool* pool) {
  const int n = static_cast<int>(params.size());
  // Per-param norms computed in parallel, reduced in fixed param order
  // so the total (and thus the scale factor) is thread-count invariant.
  std::vector<double> sq(static_cast<size_t>(n), 0.0);
  ParallelForOrSerial(pool, n, [&](int i) {
    const double nrm = params[static_cast<size_t>(i)]->grad.FrobeniusNorm();
    sq[static_cast<size_t>(i)] = nrm * nrm;
  });
  double total = 0.0;
  for (int i = 0; i < n; ++i) total += sq[static_cast<size_t>(i)];
  total = std::sqrt(total);
  if (!std::isfinite(total)) {
    OptNumericalErrors()->Inc();
    // Name a culprit to make the error actionable.
    for (int i = 0; i < n; ++i) {
      if (!params[static_cast<size_t>(i)]->grad.AllFinite()) {
        return Status::NumericalError(
            StrFormat("non-finite gradient in param '%s'",
                      params[static_cast<size_t>(i)]->name.c_str()));
      }
    }
    return Status::NumericalError("non-finite global gradient norm");
  }
  if (clip_norm > 0.0 && total > clip_norm) {
    const double scale = clip_norm / total;
    ParallelForOrSerial(pool, n, [&](int i) {
      params[static_cast<size_t>(i)]->grad *= scale;
    });
  }
  return total;
}

Status SgdOptimizer::Step(const std::vector<ad::Param*>& params) {
  LKP_TRACE_SPAN("train.step");
  LKP_RETURN_IF_ERROR(
      ClipGlobalNorm(params, options_.clip_norm, thread_pool()).status());
  for (ad::Param* p : params) {
    ParallelForOrSerial(thread_pool(), p->value.rows(), kMinRowsPerChunk,
                        [&](int r) {
      for (int c = 0; c < p->value.cols(); ++c) {
        const double g =
            p->grad(r, c) + options_.weight_decay * p->value(r, c);
        p->value(r, c) -= options_.learning_rate * g;
        p->grad(r, c) = 0.0;
      }
    });
  }
  return Status::OK();
}

AdamOptimizer::State& AdamOptimizer::StateFor(ad::Param* p) {
  for (auto& [param, state] : states_) {
    if (param == p) return state;
  }
  states_.push_back(
      {p, State{Matrix(p->value.rows(), p->value.cols()),
                Matrix(p->value.rows(), p->value.cols())}});
  return states_.back().second;
}

Status AdamOptimizer::Step(const std::vector<ad::Param*>& params) {
  LKP_TRACE_SPAN("train.step");
  LKP_RETURN_IF_ERROR(
      ClipGlobalNorm(params, options_.clip_norm, thread_pool()).status());
  ++t_;
  const double bc1 = 1.0 - std::pow(options_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(options_.beta2, static_cast<double>(t_));
  for (ad::Param* p : params) {
    State& s = StateFor(p);
    ParallelForOrSerial(thread_pool(), p->value.rows(), kMinRowsPerChunk,
                        [&](int r) {
      for (int c = 0; c < p->value.cols(); ++c) {
        const double g =
            p->grad(r, c) + options_.weight_decay * p->value(r, c);
        s.m(r, c) = options_.beta1 * s.m(r, c) + (1.0 - options_.beta1) * g;
        s.v(r, c) =
            options_.beta2 * s.v(r, c) + (1.0 - options_.beta2) * g * g;
        const double mhat = s.m(r, c) / bc1;
        const double vhat = s.v(r, c) / bc2;
        p->value(r, c) -=
            options_.learning_rate * mhat /
            (std::sqrt(vhat) + options_.epsilon);
        p->grad(r, c) = 0.0;
      }
    });
  }
  return Status::OK();
}

}  // namespace lkpdpp
