// First-order optimizers over autodiff Params.
//
// The paper trains everything with Adam and a grid-searched learning
// rate; SGD is kept for ablations. Both support L2 weight decay and
// global-norm gradient clipping (DPP log-likelihoods can spike early in
// training).
//
// Steps are fallible: a non-finite gradient norm (an instance that blew
// up upstream) aborts the update with a NumericalError before any
// parameter is touched, instead of silently scaling every gradient by
// NaN. With a thread pool attached, each param's rows are updated in
// parallel — every element's update reads and writes only that element
// and the global-norm reduction stays in fixed parameter order, so
// stepping is bit-identical at any thread count.

#ifndef LKPDPP_OPT_OPTIMIZER_H_
#define LKPDPP_OPT_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "autodiff/graph.h"
#include "common/result.h"
#include "common/thread_pool.h"

namespace lkpdpp {

/// Base optimizer: owns no parameters, steps the ones it is given.
class Optimizer {
 public:
  struct Options {
    double learning_rate = 0.01;
    double weight_decay = 0.0;
    /// 0 disables clipping.
    double clip_norm = 5.0;
  };

  virtual ~Optimizer() = default;
  virtual std::string name() const = 0;

  /// Applies one update using each param's accumulated grad, then zeroes
  /// the grads. On error (non-finite gradient norm) no param is
  /// modified and the grads are left in place for inspection.
  virtual Status Step(const std::vector<ad::Param*>& params) = 0;

  /// Fans each param's row updates out over `pool` (results are
  /// bit-identical to the serial path). Pass nullptr to go serial.
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// Scales all gradients so the global L2 norm is at most `clip_norm`;
  /// returns the pre-clip norm. Fails with NumericalError on a
  /// non-finite norm (NaN/Inf gradients), leaving all grads untouched.
  static Result<double> ClipGlobalNorm(const std::vector<ad::Param*>& params,
                                       double clip_norm,
                                       ThreadPool* pool = nullptr);

 private:
  ThreadPool* pool_ = nullptr;
};

/// Plain SGD with optional weight decay.
class SgdOptimizer final : public Optimizer {
 public:
  explicit SgdOptimizer(Options options) : options_(options) {}
  std::string name() const override { return "SGD"; }
  Status Step(const std::vector<ad::Param*>& params) override;

 private:
  Options options_;
};

/// Adam (Kingma & Ba) with bias correction.
class AdamOptimizer final : public Optimizer {
 public:
  struct AdamOptions : Options {
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
  };

  explicit AdamOptimizer(AdamOptions options) : options_(options) {}
  std::string name() const override { return "Adam"; }
  Status Step(const std::vector<ad::Param*>& params) override;

 private:
  struct State {
    Matrix m;
    Matrix v;
  };
  AdamOptions options_;
  long t_ = 0;
  // Keyed by Param pointer; params must be stable across steps.
  std::vector<std::pair<ad::Param*, State>> states_;

  State& StateFor(ad::Param* p);
};

}  // namespace lkpdpp

#endif  // LKPDPP_OPT_OPTIMIZER_H_
