// train_lkp: ExperimentRunner::Run of LkP-PS on the GCN backbone with the
// Figure-2 spec (k = n = 5, dim 16, batch 64) on the Beauty-like
// synthetic set at scale 8 (about 2k users and 1.4k items), validating
// only at the end of each Run; caller + ThreadPool(2), leaving one of
// four cores free as the serving workloads do (see serve.cc).
//
// An end-to-end run spends all of --seconds on repeated 1-epoch Run
// calls: throughput is training instances / train_seconds, latency the
// time of each minibatch step inside Run, read off the library's own
// batch counter (StepWatcher). The passes of a traced run spend only
// their first kRunShare on Run calls, then replay the runner's epoch
// loop through the same public calls
// (BuildEpoch, StartBatch, AccumulateBatchGradients, Batch::Finish,
// AdamOptimizer::Step) to time every minibatch step. The replay must
// reproduce Run's epoch losses bit for bit, so its per-layer numbers
// describe the code Run executes. The traced pass adds spans around the
// replayed calls and around each LkpCriterion::Evaluate.

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "common/thread_pool.h"
#include "core/criterion.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "obs/metrics.h"
#include "opt/optimizer.h"
#include "opt/parallel_batch.h"
#include "sampling/ground_set_builder.h"
#include "workloads.h"

namespace lkpbench {
namespace {

using lkpdpp::Dataset;
using lkpdpp::ExperimentRunner;
using lkpdpp::ExperimentSpec;
using lkpdpp::Matrix;
using lkpdpp::Result;
using lkpdpp::ThreadPool;
using lkpdpp::Vector;
using Clock = std::chrono::steady_clock;

constexpr double kDatasetScale = 8.0;
constexpr int kRunEpochs = 1;
// Share of a traced run's pass spent on Run calls; the rest replays epochs.
constexpr double kRunShare = 0.3;
// Set-ups per untraced run (setup_s is their median): one takes ~0.2 s,
// so a median of many costs little and steadies the figure.
constexpr int kSetupRepeats = 9;

uint64_t Bits(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

long CounterValue(const char* name) {
  return lkpdpp::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

struct TrainSetup {
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<ExperimentRunner> runner;
  const lkpdpp::DiversityKernel* kernel = nullptr;
  ExperimentSpec spec;
  double untrained_ndcg = 0.0;
};

/// The inputs are the fixed Figure-2 setup: the dataset seed changes the
/// graph size and the training seed the trajectory, and either moved the
/// cost per instance by up to 20-50% across seeds, which would hide the
/// regressions this workload exists to catch. --seed only labels the run.
std::unique_ptr<TrainSetup> BuildTrain() {
  auto t = std::make_unique<TrainSetup>();
  t->dataset = std::make_unique<Dataset>(
      OrDie(lkpdpp::GenerateSyntheticDataset(
                lkpdpp::BeautyLikeConfig(kDatasetScale)),
            "beauty-like dataset"));
  t->pool = std::make_unique<ThreadPool>(2);
  t->runner = std::make_unique<ExperimentRunner>(t->dataset.get());
  t->runner->SetThreadPool(t->pool.get());
  t->kernel = OrDie(t->runner->GetDiversityKernel(), "diversity kernel");

  ExperimentSpec& spec = t->spec;
  spec.model = lkpdpp::ModelKind::kGcn;
  spec.criterion = lkpdpp::CriterionKind::kLkp;
  spec.lkp_mode = lkpdpp::LkpMode::kPositiveOnly;
  spec.k = 5;
  spec.n = 5;
  spec.embedding_dim = 16;
  spec.batch_size = 64;
  spec.learning_rate = 0.01;
  spec.epochs = kRunEpochs;
  spec.eval_every = kRunEpochs;  // Validate once, at the end.
  spec.patience = 0;

  std::unique_ptr<lkpdpp::RecModel> untrained =
      OrDie(t->runner->MakeModel(spec), "untrained model");
  lkpdpp::Evaluator evaluator(t->dataset.get());
  evaluator.SetThreadPool(t->pool.get());
  t->untrained_ndcg = evaluator.ValidationNdcg(untrained.get(), 10);
  return t;
}

/// Times the minibatch steps inside ExperimentRunner::Run from outside:
/// a thread of its own polls the library's lkp_train_batches_total
/// counter (one increment per AccumulateBatchGradients call) and records
/// the time between successive increments, i.e. one whole step: prefix
/// forward, per-instance gradients, prefix backward and the Adam step.
/// Runs on the core the workload leaves free.
class StepWatcher {
 public:
  StepWatcher() : thread_([this] { Loop(); }) {}
  ~StepWatcher() { Stop(); }
  StepWatcher(const StepWatcher&) = delete;
  StepWatcher& operator=(const StepWatcher&) = delete;

  /// Called before each Run: the next interval spans model creation,
  /// epoch construction or evaluation, not a step, and is dropped.
  void MarkRunStart() { boundary_.store(true, std::memory_order_relaxed); }

  /// Stops polling and returns the step times in ms.
  std::vector<double> Stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
    }
    return steps_ms_;
  }

 private:
  void Loop() {
    lkpdpp::obs::Counter* batches =
        lkpdpp::obs::MetricsRegistry::Global().GetCounter(
            "lkp_train_batches_total");
    long last = batches->Value();
    Clock::time_point last_at = Clock::now();
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      const long now_value = batches->Value();
      if (now_value == last) continue;
      const Clock::time_point now = Clock::now();
      const bool boundary =
          boundary_.exchange(false, std::memory_order_relaxed);
      // Two increments between polls cannot be told apart: drop them.
      if (!boundary && now_value == last + 1) {
        steps_ms_.push_back(MsBetween(last_at, now));
      }
      last = now_value;
      last_at = now;
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<bool> boundary_{true};
  std::vector<double> steps_ms_;
  std::thread thread_;  // Last: starts once the members above exist.
};

struct TrainPass {
  bool replay = false;  // Traced runs' passes replay the epoch loop.
  long runs = 0;
  long failed_runs = 0;
  long run_instances = 0;
  double train_seconds = 0.0;
  // Per Run call: instances / train_seconds, and the call's wall time.
  std::vector<double> run_rates;
  std::vector<double> run_ms;
  // Minibatch steps inside the Run calls (StepWatcher), in order.
  std::vector<double> run_step_ms;
  // Median of the probes between Run calls relative to the reference:
  // one factor for the pass. Per-call factors carried the probe's own
  // noise into every call and spread results more.
  double slowdown = 1.0;
  bool runs_identical = true;
  lkpdpp::ExperimentResult first;
  long replay_instances = 0;
  long failed_instances = 0;  // Aborted batches' instances.
  double replay_wall_s = 0.0;
  long replay_batches = 0;
  long skipped = 0;  // Soft-skipped instances, both phases.
  std::vector<double> step_ms;
  std::vector<Window> windows;  // Replay steps, probe-rescaled.
  std::vector<double> epoch_loss;
  long pool_tasks = 0;
  long pool_steals = 0;
  int root = -1;
};

Matrix VectorToColumn(const Vector& v) {
  Matrix m(v.size(), 1);
  for (int r = 0; r < v.size(); ++r) m(r, 0) = v[r];
  return m;
}

/// The runner's epoch loop (exp/runner.cc, pre-learned kernel branch),
/// replayed through the same public calls so each can be timed.
void ReplayEpochs(TrainSetup& t, Clock::time_point t0, double until_s,
                  SpanRecorder* rec, TrainPass* p) {
  const ExperimentSpec& spec = t.spec;
  std::unique_ptr<lkpdpp::RecModel> model =
      OrDie(t.runner->MakeModel(spec), "replay model");
  const std::unique_ptr<lkpdpp::RankingCriterion> criterion =
      t.runner->MakeCriterion(spec, model->PreferredQuality());
  const lkpdpp::GroundSetBuilder builder(t.dataset.get(), spec.k, spec.n,
                                         spec.target_mode);
  lkpdpp::AdamOptimizer::AdamOptions adam;
  adam.learning_rate = spec.learning_rate;
  adam.weight_decay = spec.weight_decay;
  adam.clip_norm = spec.clip_norm;
  lkpdpp::AdamOptimizer optimizer(adam);
  optimizer.SetThreadPool(t.pool.get());
  const std::vector<lkpdpp::ad::Param*> params = model->Params();
  lkpdpp::Rng rng(spec.seed ^ 0xD1B54A32D192ED03ULL);

  const long tasks0 = CounterValue("lkp_pool_tasks_total");
  const long steals0 = CounterValue("lkp_pool_steals_total");
  const Clock::time_point r0 = Clock::now();
  const double window_s =
      std::max(until_s - SecondsSince(t0), 1e-3) / kWindows;
  double probe = TimedProbe(rec, p->root);
  Window window;
  Clock::time_point w0 = Clock::now();
  const auto close_window = [&] {
    window.seconds = SecondsSince(w0);
    const double next = TimedProbe(rec, p->root);
    window.slowdown = Slowdown(probe, next);
    probe = next;
    p->windows.push_back(std::move(window));
    window = Window();
    w0 = Clock::now();
  };
  for (int epoch = 0;
       epoch < kRunEpochs || SecondsSince(t0) < until_s; ++epoch) {
    std::vector<lkpdpp::TrainingInstance> instances;
    {
      ScopedSpan span(rec, kTrainBuildEpoch, p->root, epoch);
      instances = OrDie(builder.BuildEpoch(&rng), "epoch instances");
      rng.Shuffle(&instances);
    }
    double loss_sum = 0.0;
    long counted = 0;
    for (size_t start = 0; start < instances.size();
         start += static_cast<size_t>(spec.batch_size)) {
      const Clock::time_point s0 = Clock::now();
      const size_t end = std::min(
          instances.size(), start + static_cast<size_t>(spec.batch_size));
      const int count = static_cast<int>(end - start);
      const double inv_batch = 1.0 / static_cast<double>(count);
      const long b = p->replay_batches++;
      p->replay_instances += count;
      std::unique_ptr<lkpdpp::RecModel::Batch> batch;
      {
        ScopedSpan span(rec, kTrainPrefixForward, p->root, b);
        batch = model->StartBatch();
      }
      int accumulate_span = -1;
      auto build = [&](int i, lkpdpp::ad::Graph* graph)
          -> Result<lkpdpp::InstanceGrad> {
        const lkpdpp::TrainingInstance& inst =
            instances[start + static_cast<size_t>(i)];
        lkpdpp::ad::Tensor score_t =
            batch->ScoreItems(graph, inst.user, inst.items);
        const Matrix& column = score_t.value();
        lkpdpp::CriterionInput in;
        in.scores = Vector(column.rows());
        for (int r = 0; r < column.rows(); ++r) in.scores[r] = column(r, 0);
        in.num_pos = inst.num_pos;
        Matrix k_sub = t.kernel->Submatrix(inst.items);
        k_sub *= spec.kernel_blend_alpha;
        k_sub.AddDiagonal(1.0 - spec.kernel_blend_alpha);
        in.diversity = &k_sub;
        const double c0 = rec != nullptr ? rec->Now() : 0.0;
        Result<lkpdpp::CriterionOutput> out = criterion->Evaluate(in);
        if (rec != nullptr) {
          rec->Add(kTrainCriterion, accumulate_span,
                   static_cast<long>(start) + i, c0, rec->Now());
        }
        lkpdpp::InstanceGrad grad;
        if (!out.ok()) {
          grad.skip_reason = out.status();
          return grad;
        }
        grad.loss = out->loss;
        grad.seeds.emplace_back(score_t,
                                VectorToColumn(out->dscore) * inv_batch);
        return grad;
      };
      Result<lkpdpp::BatchGradSummary> summary = [&] {
        ScopedSpan span(rec, kTrainAccumulate, p->root, b);
        accumulate_span = span.index();
        return lkpdpp::AccumulateBatchGradients(count, t.pool.get(), build);
      }();
      if (!summary.ok()) {
        p->failed_instances += count;
        continue;
      }
      if (summary->contributed == 0) continue;
      loss_sum += summary->loss_sum;
      counted += summary->contributed;
      lkpdpp::Status finished;
      {
        ScopedSpan span(rec, kTrainPrefixBackward, p->root, b);
        finished = batch->Finish();
      }
      lkpdpp::Status stepped;
      if (finished.ok()) {
        ScopedSpan span(rec, kTrainStep, p->root, b);
        stepped = optimizer.Step(params);
      }
      if (!finished.ok() || !stepped.ok()) {
        p->failed_instances += count;
        continue;
      }
      p->step_ms.push_back(MsBetween(s0, Clock::now()));
      window.latency_ms.push_back(p->step_ms.back());
      if (SecondsSince(w0) >= window_s) close_window();
    }
    p->epoch_loss.push_back(
        counted > 0 ? loss_sum / static_cast<double>(counted) : 0.0);
  }
  if (!window.latency_ms.empty()) close_window();
  p->replay_wall_s = SecondsSince(r0);
  p->pool_tasks = CounterValue("lkp_pool_tasks_total") - tasks0;
  p->pool_steals = CounterValue("lkp_pool_steals_total") - steals0;
}

TrainPass RunTrainPass(TrainSetup& t, double seconds, bool replay,
                       SpanRecorder* rec) {
  TrainPass p;
  p.replay = replay;
  const long skipped0 = CounterValue("lkp_train_skipped_total");
  const Clock::time_point t0 = Clock::now();
  p.root = rec != nullptr ? rec->Open(kBench, -1, 0) : -1;
  const long instances0 = CounterValue("lkp_train_instances_total");
  std::vector<double> probes = {TimedProbe(rec, p.root)};
  StepWatcher watcher;
  do {
    const long before = CounterValue("lkp_train_instances_total");
    watcher.MarkRunStart();
    const Clock::time_point c0 = Clock::now();
    Result<lkpdpp::ExperimentResult> result = [&] {
      ScopedSpan span(rec, kExpRun, p.root, p.runs);
      return t.runner->Run(t.spec, {10});
    }();
    const double call_ms = MsBetween(c0, Clock::now());
    ++p.runs;
    if (!result.ok()) {
      std::printf("Run failed: %s\n", result.status().ToString().c_str());
      ++p.failed_runs;
      break;
    }
    p.train_seconds += result->train_seconds;
    const long instances = CounterValue("lkp_train_instances_total") - before;
    if (result->train_seconds > 0) {
      p.run_rates.push_back(instances / result->train_seconds);
    }
    p.run_ms.push_back(call_ms);
    probes.push_back(TimedProbe(rec, p.root));
    if (p.runs == 1) {
      p.first = *result;
    } else if (Bits(result->final_train_loss) !=
                   Bits(p.first.final_train_loss) ||
               result->validation_history != p.first.validation_history) {
      p.runs_identical = false;
    }
  } while (SecondsSince(t0) < (replay ? kRunShare : 1.0) * seconds);
  p.run_step_ms = watcher.Stop();
  p.run_instances = CounterValue("lkp_train_instances_total") - instances0;
  p.slowdown = MedianOf(probes) / kProbeReferenceMs;
  if (replay) ReplayEpochs(t, t0, seconds, rec, &p);
  p.skipped = CounterValue("lkp_train_skipped_total") - skipped0;
  if (rec != nullptr) rec->Close(p.root);
  return p;
}

/// Digest of what Run returned; the replay is checked against Run itself.
uint64_t PassDigest(const TrainPass& p) {
  Digest d;
  d.Mix(Bits(p.first.final_train_loss));
  for (double v : p.first.validation_history) d.Mix(Bits(v));
  return d.value();
}

void CheckPass(const TrainSetup& t, const TrainPass& p, Report* report) {
  report->AddAttempted(p.run_instances + p.replay_instances);
  report->AddFailed(p.skipped + p.failed_instances);
  report->Check(p.failed_runs == 0, "ExperimentRunner::Run failed");
  report->Check(std::isfinite(p.first.final_train_loss),
                "final training loss is not finite");
  std::printf("validation NDCG@10: trained %.5f vs untrained %.5f\n",
              p.first.best_validation_ndcg, t.untrained_ndcg);
  report->Check(p.first.best_validation_ndcg > t.untrained_ndcg,
                "training did not beat the untrained model's validation "
                "NDCG@10");
  report->Check(p.runs_identical, "repeated Run calls were not bit-identical");
  std::printf("runs=%ld (%d epochs each) train_s=%.4f instances=%ld\n",
              p.runs, kRunEpochs, p.train_seconds, p.run_instances);
  if (!p.replay) return;
  const bool replayed = static_cast<int>(p.epoch_loss.size()) >= kRunEpochs;
  report->Check(replayed && Bits(p.epoch_loss[kRunEpochs - 1]) ==
                                Bits(p.first.final_train_loss),
                "epoch replay diverged from ExperimentRunner::Run");
  std::printf("replay epochs=%zu batches=%ld instances=%ld wall=%.3f s\n",
              p.epoch_loss.size(), p.replay_batches, p.replay_instances,
              p.replay_wall_s);
}

/// Throughput is the median over Run calls. Step latency p50 and p99 are
/// medians over kWindows consecutive runs of steps, so a burst of
/// interference in a few of them moves neither. All three are rescaled
/// to reference speed by the pass's slowdown.
void ReportEndToEnd(const TrainPass& p, Report* report) {
  const Distribution calls(p.run_ms);
  const Distribution steps(p.run_step_ms);
  std::printf("throughput over all Runs: %.1f instances/s; Run call p50=%.3f "
              "ms max=%.3f ms (n=%zu); steps over all Runs p50=%.4f ms "
              "p99=%.4f ms; slowdown vs reference %.3f\n",
              p.train_seconds > 0 ? p.run_instances / p.train_seconds : 0.0,
              calls.Percentile(0.5), calls.Percentile(1.0), calls.size(),
              steps.Percentile(0.5), steps.Percentile(0.99), p.slowdown);
  std::vector<Window> windows(kWindows);
  for (size_t i = 0; i < p.run_step_ms.size(); ++i) {
    Window& w = windows[i * kWindows / p.run_step_ms.size()];
    w.latency_ms.push_back(p.run_step_ms[i]);
    w.seconds += p.run_step_ms[i] * 1e-3;
    w.slowdown = p.slowdown;
  }
  const WindowedSummary w = SummarizeWindows(windows);
  const long n = static_cast<long>(steps.size());
  report->Set("ops_per_s", MedianOf(p.run_rates) * p.slowdown, "1/s",
              static_cast<long>(p.run_rates.size()));
  report->Set("latency_p50_ms", w.p50, "ms", n);
  report->Set("latency_p99_ms", w.p99, "ms", n);
  if (p.replay) {
    const Distribution replayed(p.step_ms);
    std::printf("replayed minibatch steps: p50=%.4f ms p99=%.4f ms (n=%zu)\n",
                replayed.Percentile(0.5), replayed.Percentile(0.99),
                replayed.size());
  }
}

void ReportLayers(const TrainPass& p, const SpanRecorder& rec,
                  Report* report) {
  const SpanSummary spans = Summarize(rec.Snapshot(), p.root);
  const double epochs = std::max<double>(1.0, p.epoch_loss.size());
  const auto per_epoch_ms = [&](int name) {
    return spans.total_s[static_cast<size_t>(name)] * 1e3 / epochs;
  };
  report->Set("train.build_epoch_ms", per_epoch_ms(kTrainBuildEpoch), "ms");
  report->Set("train.prefix_forward_ms", per_epoch_ms(kTrainPrefixForward),
              "ms");
  report->Set("train.accumulate_ms", per_epoch_ms(kTrainAccumulate), "ms");
  report->Set("train.criterion_ms", per_epoch_ms(kTrainCriterion), "ms");
  report->Set("train.prefix_backward_ms", per_epoch_ms(kTrainPrefixBackward),
              "ms");
  report->Set("train.step_ms", per_epoch_ms(kTrainStep), "ms");
  const double batches = std::max<double>(1.0, p.replay_batches);
  report->Set("pool.tasks_per_batch", p.pool_tasks / batches, "1/batch");
  report->Set("pool.steals_per_batch", p.pool_steals / batches, "1/batch");
}

}  // namespace

void RunTrainLkp(const Options& opts, Report* report) {
  PrintHeader(opts,
              "caller(main) + ThreadPool(2) = 3 busy, + step watcher "
              "(polls every 50 us) = 4");
  if (!opts.trace) {
    std::unique_ptr<TrainSetup> t =
        RepeatSetup(opts, kSetupRepeats, report, [] { return BuildTrain(); });
    std::printf("dataset users=%d items=%d\n", t->dataset->num_users(),
                t->dataset->num_items());
    const TrainPass p = RunTrainPass(*t, opts.seconds, false, nullptr);
    CheckPass(*t, p, report);
    ReportEndToEnd(p, report);
    CheckDigest(opts, true, PassDigest(p), report);
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }
  std::unique_ptr<TrainSetup> t = BuildTrain();
  const TrainPass untraced = RunTrainPass(*t, opts.seconds, true, nullptr);
  CheckPass(*t, untraced, report);
  t = BuildTrain();
  SpanRecorder rec;
  const TrainPass traced = RunTrainPass(*t, opts.seconds, true, &rec);
  CheckPass(*t, traced, report);
  ReportEndToEnd(traced, report);
  report->Check(PassDigest(untraced) == PassDigest(traced),
                "traced and untraced passes trained differently");
  CheckDigest(opts, true, PassDigest(traced), report);
  ReportLayers(traced, rec, report);
  const double base = SummarizeWindows(untraced.windows).rate_per_s;
  report->Set("trace_overhead_frac",
              base > 0 ? 1.0 - SummarizeWindows(traced.windows).rate_per_s /
                                   base
                       : 0.0,
              "ratio");
  ReportSpans(opts, rec, traced.root, report);
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace lkpbench
