/**
 * @file
 * Prometheus text-exposition renderer for the metrics registry.
 *
 * lemonsd's GET /metrics endpoint (and anything else that wants to be
 * scraped) renders the process-global Registry in the Prometheus text
 * format, version 0.0.4:
 *
 *   # HELP lemons_sim_mc_trials lemons counter sim.mc.trials
 *   # TYPE lemons_sim_mc_trials counter
 *   lemons_sim_mc_trials 1048576
 *
 * Mapping rules (pinned by tests/test_prometheus.cc):
 *   - Counter           -> counter
 *   - Timer             -> summary: <name>_seconds_sum (seconds, not
 *                          nanoseconds — Prometheus wants base units)
 *                          and <name>_seconds_count
 *
 * Metric names are sanitized: every character outside
 * [a-zA-Z0-9_:] becomes '_' (dotted registry names therefore read as
 * underscore-joined), a leading digit gets a '_' prefix, and everything
 * is prefixed "lemons_" so scrapes from mixed fleets cannot collide.
 * The original dotted name is preserved in the HELP line.
 */

#ifndef LEMONS_OBS_PROMETHEUS_H_
#define LEMONS_OBS_PROMETHEUS_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace lemons::obs {

/**
 * Sanitize one registry metric name into a legal Prometheus metric
 * name (without the "lemons_" prefix): [a-zA-Z0-9_:] kept, everything
 * else mapped to '_', leading digit prefixed with '_'.
 */
std::string prometheusName(std::string_view name);

/** Render @p snapshot in the Prometheus text exposition format. */
std::string toPrometheus(const Snapshot &snapshot);

} // namespace lemons::obs

#endif // LEMONS_OBS_PROMETHEUS_H_
