// Tests for SGD/Adam optimizers: update math, clipping, convergence,
// and the non-finite-gradient failure path.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/thread_pool.h"
#include "opt/optimizer.h"
#include "testing_util.h"

namespace lkpdpp {
namespace {

// Steps `serial` and `pooled` (attached to a 4-thread pool) 50 times
// with grad = value, over a 1,000 x 16 param whose rows split into more
// chunks than the pool has lanes and two tiny params that stay on the
// caller; every final value must match bit for bit.
void ExpectPooledStepsBitIdentical(Optimizer* serial, Optimizer* pooled) {
  ThreadPool pool(4);
  pooled->SetThreadPool(&pool);
  std::vector<Matrix> serial_values;
  for (Optimizer* opt : {serial, pooled}) {
    Rng rng(8);
    ad::Param big("big", testutil::RandomMatrix(1000, 16, &rng));
    ad::Param a("a", Matrix{{4.0, -1.0}});
    ad::Param b("b", Matrix{{-4.0}, {2.0}});
    for (int step = 0; step < 50; ++step) {
      for (ad::Param* p : {&big, &a, &b}) p->grad = p->value;
      ASSERT_TRUE(opt->Step({&big, &a, &b}).ok());
    }
    if (opt == serial) {
      serial_values = {big.value, a.value, b.value};
      continue;
    }
    const std::vector<Matrix> values = {big.value, a.value, b.value};
    for (size_t i = 0; i < values.size(); ++i) {
      for (int r = 0; r < values[i].rows(); ++r) {
        for (int c = 0; c < values[i].cols(); ++c) {
          ASSERT_EQ(values[i](r, c), serial_values[i](r, c))
              << "param " << i << " at (" << r << "," << c << ")";
        }
      }
    }
    // Stepping the big param alone hands every worker a helper task, so
    // its rows really were split.
    const long tasks0 = testutil::PoolTasks();
    big.grad = big.value;
    ASSERT_TRUE(opt->Step({&big}).ok());
    EXPECT_EQ(testutil::PoolTasks() - tasks0, pool.num_threads());
  }
  pooled->SetThreadPool(nullptr);
}

TEST(SgdTest, SingleStepMatchesFormula) {
  ad::Param p("p", Matrix{{1.0, -2.0}});
  p.grad = Matrix{{0.5, 1.0}};
  Optimizer::Options opts;
  opts.learning_rate = 0.1;
  opts.clip_norm = 0.0;
  SgdOptimizer sgd(opts);
  ASSERT_TRUE(sgd.Step({&p}).ok());
  EXPECT_NEAR(p.value(0, 0), 1.0 - 0.1 * 0.5, 1e-12);
  EXPECT_NEAR(p.value(0, 1), -2.0 - 0.1 * 1.0, 1e-12);
  // Grad zeroed after step.
  EXPECT_DOUBLE_EQ(p.grad.FrobeniusNorm(), 0.0);
}

TEST(SgdTest, WeightDecayShrinksParameters) {
  ad::Param p("p", Matrix{{10.0}});
  p.grad = Matrix{{0.0}};
  Optimizer::Options opts;
  opts.learning_rate = 0.1;
  opts.weight_decay = 0.5;
  opts.clip_norm = 0.0;
  SgdOptimizer sgd(opts);
  ASSERT_TRUE(sgd.Step({&p}).ok());
  EXPECT_NEAR(p.value(0, 0), 10.0 - 0.1 * 0.5 * 10.0, 1e-12);
}

TEST(ClippingTest, GlobalNormScalesAllParams) {
  ad::Param a("a", Matrix{{0.0}});
  ad::Param b("b", Matrix{{0.0}});
  a.grad = Matrix{{3.0}};
  b.grad = Matrix{{4.0}};  // Global norm = 5.
  auto pre = Optimizer::ClipGlobalNorm({&a, &b}, 1.0);
  ASSERT_TRUE(pre.ok());
  EXPECT_NEAR(*pre, 5.0, 1e-12);
  EXPECT_NEAR(a.grad(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(b.grad(0, 0), 0.8, 1e-12);
}

TEST(ClippingTest, NoScalingBelowThreshold) {
  ad::Param a("a", Matrix{{0.0}});
  a.grad = Matrix{{0.5}};
  ASSERT_TRUE(Optimizer::ClipGlobalNorm({&a}, 1.0).ok());
  EXPECT_NEAR(a.grad(0, 0), 0.5, 1e-12);
}

TEST(ClippingTest, ZeroDisablesClipping) {
  ad::Param a("a", Matrix{{0.0}});
  a.grad = Matrix{{100.0}};
  ASSERT_TRUE(Optimizer::ClipGlobalNorm({&a}, 0.0).ok());
  EXPECT_NEAR(a.grad(0, 0), 100.0, 1e-12);
}

TEST(ClippingTest, NanGradientIsANumericalError) {
  // Regression: a NaN gradient used to produce a NaN norm and silently
  // scale every gradient (and then every parameter) to NaN.
  ad::Param a("a", Matrix{{0.0, 0.0}});
  ad::Param b("healthy", Matrix{{0.0}});
  a.grad = Matrix{{1.0, std::nan("")}};
  b.grad = Matrix{{1e3}};
  auto clipped = Optimizer::ClipGlobalNorm({&a, &b}, 1.0);
  ASSERT_FALSE(clipped.ok());
  EXPECT_EQ(clipped.status().code(), StatusCode::kNumericalError);
  // The culprit param is named and NO grad was rescaled.
  EXPECT_NE(clipped.status().ToString().find("'a'"), std::string::npos);
  EXPECT_DOUBLE_EQ(b.grad(0, 0), 1e3);
}

TEST(ClippingTest, InfGradientIsANumericalError) {
  ad::Param a("a", Matrix{{0.0}});
  a.grad = Matrix{{std::numeric_limits<double>::infinity()}};
  EXPECT_EQ(Optimizer::ClipGlobalNorm({&a}, 5.0).status().code(),
            StatusCode::kNumericalError);
}

TEST(ClippingTest, PooledClippingMatchesSerial) {
  // The per-param norm fan-out must not change the clip factor.
  ThreadPool pool(4);
  std::vector<Matrix> serial_grads;
  for (int trial = 0; trial < 2; ++trial) {
    ad::Param a("a", Matrix{{0.0, 0.0}});
    ad::Param b("b", Matrix{{0.0}, {0.0}});
    a.grad = Matrix{{3.0, 1.0}};
    b.grad = Matrix{{4.0}, {2.0}};
    auto pre = Optimizer::ClipGlobalNorm({&a, &b}, 1.0,
                                         trial == 0 ? nullptr : &pool);
    ASSERT_TRUE(pre.ok());
    if (trial == 0) {
      serial_grads = {a.grad, b.grad};
    } else {
      for (int c = 0; c < 2; ++c) {
        EXPECT_DOUBLE_EQ(a.grad(0, c), serial_grads[0](0, c));
        EXPECT_DOUBLE_EQ(b.grad(c, 0), serial_grads[1](c, 0));
      }
    }
  }
}

TEST(SgdTest, NonFiniteGradLeavesParamsUntouched) {
  ad::Param p("p", Matrix{{2.0}});
  p.grad = Matrix{{std::nan("")}};
  Optimizer::Options opts;
  opts.learning_rate = 0.1;
  SgdOptimizer sgd(opts);
  EXPECT_EQ(sgd.Step({&p}).code(), StatusCode::kNumericalError);
  // No partial update: value intact, grad preserved for inspection.
  EXPECT_DOUBLE_EQ(p.value(0, 0), 2.0);
  EXPECT_TRUE(std::isnan(p.grad(0, 0)));
}

TEST(AdamTest, NonFiniteGradLeavesParamsAndMomentsUntouched) {
  ad::Param p("p", Matrix{{1.0}});
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = 0.1;
  AdamOptimizer adam(opts);
  // One healthy step to materialize moment state.
  p.grad = Matrix{{0.5}};
  ASSERT_TRUE(adam.Step({&p}).ok());
  const double after_first = p.value(0, 0);
  // Poisoned step must fail without moving the value.
  p.grad = Matrix{{std::numeric_limits<double>::infinity()}};
  EXPECT_EQ(adam.Step({&p}).code(), StatusCode::kNumericalError);
  EXPECT_DOUBLE_EQ(p.value(0, 0), after_first);
  // Recovery: a finite grad afterwards steps normally.
  p.grad = Matrix{{0.5}};
  EXPECT_TRUE(adam.Step({&p}).ok());
  EXPECT_LT(p.value(0, 0), after_first);
}

TEST(AdamTest, FirstStepMovesByLearningRate) {
  // With bias correction, the very first Adam step is ~lr * sign(g).
  ad::Param p("p", Matrix{{0.0}});
  p.grad = Matrix{{2.0}};
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = 0.1;
  opts.clip_norm = 0.0;
  AdamOptimizer adam(opts);
  ASSERT_TRUE(adam.Step({&p}).ok());
  EXPECT_NEAR(p.value(0, 0), -0.1, 1e-6);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize f(x) = 0.5 * sum((x - t)^2) to the target t.
  ad::Param p("p", Matrix{{5.0, -3.0}});
  const Matrix target{{1.0, 2.0}};
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = 0.05;
  AdamOptimizer adam(opts);
  for (int step = 0; step < 2000; ++step) {
    p.grad = p.value - target;
    ASSERT_TRUE(adam.Step({&p}).ok());
  }
  EXPECT_NEAR(p.value(0, 0), 1.0, 1e-3);
  EXPECT_NEAR(p.value(0, 1), 2.0, 1e-3);
}

TEST(AdamTest, HandlesMultipleParamsIndependently) {
  ad::Param a("a", Matrix{{4.0}});
  ad::Param b("b", Matrix{{-4.0}});
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = 0.1;
  AdamOptimizer adam(opts);
  for (int step = 0; step < 800; ++step) {
    a.grad = Matrix{{a.value(0, 0)}};
    b.grad = Matrix{{b.value(0, 0)}};
    ASSERT_TRUE(adam.Step({&a, &b}).ok());
  }
  EXPECT_NEAR(a.value(0, 0), 0.0, 1e-2);
  EXPECT_NEAR(b.value(0, 0), 0.0, 1e-2);
}

TEST(AdamTest, PooledStepBitIdenticalToSerial) {
  // The same trajectory must fall out whether each param's rows update
  // serially or split across a pool.
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = 0.1;
  opts.weight_decay = 0.01;
  AdamOptimizer serial(opts);
  AdamOptimizer pooled(opts);
  ExpectPooledStepsBitIdentical(&serial, &pooled);
}

TEST(SgdTest, PooledStepBitIdenticalToSerial) {
  Optimizer::Options opts;
  opts.learning_rate = 0.1;
  opts.weight_decay = 0.01;
  SgdOptimizer serial(opts);
  SgdOptimizer pooled(opts);
  ExpectPooledStepsBitIdentical(&serial, &pooled);
}

TEST(AdamTest, AdaptsToGradientScale) {
  // Adam's per-coordinate normalization moves tiny-gradient coordinates
  // at a comparable pace to large-gradient ones.
  ad::Param p("p", Matrix{{1.0, 1.0}});
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = 0.01;
  opts.clip_norm = 0.0;
  AdamOptimizer adam(opts);
  for (int step = 0; step < 100; ++step) {
    p.grad = Matrix{{1000.0 * p.value(0, 0), 0.001 * p.value(0, 1)}};
    ASSERT_TRUE(adam.Step({&p}).ok());
  }
  // Both coordinates should have moved substantially toward zero.
  EXPECT_LT(p.value(0, 0), 0.7);
  EXPECT_LT(p.value(0, 1), 0.7);
}

TEST(OptimizerNamesTest, Stable) {
  EXPECT_EQ(SgdOptimizer(Optimizer::Options{}).name(), "SGD");
  EXPECT_EQ(AdamOptimizer(AdamOptimizer::AdamOptions{}).name(), "Adam");
}

}  // namespace
}  // namespace lkpdpp
