// A fixed reference computation timed inside every run, so that results
// can be rescaled to a reference machine speed.
//
// On a 4-vCPU x86 VM that shares its host, the same binary ran 1.5-4x
// slower for minutes at a time, and run-to-run spreads of 30-40%
// followed. Results are rescaled by the probe times measured around the
// work (see SummarizeWindows in stats.h). The probe is the benchmark's
// own code, so no change to the library can move it.
//
// The probe runs on the calling thread only. A version that also started
// two fresh threads read either ~6 ms or ~15 ms on the same idle VM,
// depending on where the scheduler first put the new threads, while the
// workloads' long-lived threads ran at one speed; the single-thread probe
// read 4.8-6.1 ms throughout.

#ifndef LKPBENCH_PROBE_H_
#define LKPBENCH_PROBE_H_

namespace lkpbench {

/// The probe's time on a quiet 4-vCPU x86 VM: work measured at this speed
/// is reported unscaled.
inline constexpr double kProbeReferenceMs = 5.5;

/// Milliseconds the reference computation takes on the calling thread:
/// a stream over an L2-sized buffer with floating-point work and
/// dependent random reads. Median of three tries.
double ProbeMs();

/// How much slower than the reference the machine runs between two
/// probes (1 = reference speed).
inline double Slowdown(double probe_before_ms, double probe_after_ms) {
  return 0.5 * (probe_before_ms + probe_after_ms) / kProbeReferenceMs;
}

}  // namespace lkpbench

#endif  // LKPBENCH_PROBE_H_
