/**
 * @file
 * The benchmark's workloads. Each runs its set-up, measures for the
 * requested seconds, checks its outputs against the references in
 * reference.h, and fills a RunResult with every metric it reaches.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>

#include "common.h"

namespace perfbench {

/**
 * Run a workload's @p setup. With --setup-only, print the monotonic
 * clock at its end (the parent's setup_s timing reads it) and return
 * true: the workload then returns without measuring.
 */
bool runSetup(const Options &options, const std::function<void()> &setup);

/** Paper figure set: solver, usage, ablations, OTP Monte Carlo. */
RunResult runFigures(const Options &options);

/** lemons-fleet campaign over the smartphone cohorts. */
RunResult runFleet(const Options &options);

/** In-process lemonsd under closed-loop load; @p slowCaller adds one
 *  caller that trickles its requests in small pieces. */
RunResult runServe(const Options &options, bool slowCaller);

/** Check every correctness check against a wrong reference; 0 = ok. */
int runSelfTest(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
