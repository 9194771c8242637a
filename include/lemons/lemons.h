/**
 * @file
 * Umbrella header for the lemons library.
 *
 * Downstream consumers (the shipped examples, external experiments)
 * include this single header instead of reaching into per-module
 * paths, so internal file moves never break user code:
 *
 *     #include "lemons/lemons.h"
 *
 * Modules are listed bottom-up in dependency order. Internal-only
 * headers (util/mutex.h, util/thread_annotations.h, lint/spec_file.h,
 * and the ir and verify modules) are deliberately excluded: they back
 * the CLI tools, not the public modelling API.
 */

#ifndef LEMONS_LEMONS_H
#define LEMONS_LEMONS_H

// util: RNG, statistics, math helpers, tables.
#include "util/checksum.h"
#include "util/math.h"
#include "util/require.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

// obs: counters, timers, and the metrics registry.
#include "obs/json.h"
#include "obs/metrics.h"

// wearout: Weibull device models, process variation, environments.
#include "wearout/device.h"
#include "wearout/environment.h"
#include "wearout/mixture.h"
#include "wearout/population.h"
#include "wearout/weibull.h"

// gf / rs / shamir: finite fields, Reed-Solomon, secret sharing.
#include "gf/gf256.h"
#include "gf/gf65536.h"
#include "gf/poly.h"
#include "rs/reed_solomon.h"
#include "shamir/shamir.h"
#include "shamir/shamir16.h"

// crypto: one-time pads, hashing, password/guessing models.
#include "crypto/hmac.h"
#include "crypto/otp.h"
#include "crypto/password_model.h"
#include "crypto/sha256.h"

// fault: fault plans and faulty-device wrappers.
#include "fault/fault_plan.h"
#include "fault/faulty_device.h"

// engine: pooled, batched Monte Carlo execution substrate.
#include "engine/batch.h"
#include "engine/engine.h"
#include "engine/thread_pool.h"

// sim: the Monte Carlo front end, workloads, empirical distributions.
#include "sim/empirical.h"
#include "sim/monte_carlo.h"
#include "sim/workload.h"

// fleet: crash-safe fleet lifecycle campaigns and checkpointing.
#include "fleet/campaign.h"
#include "fleet/chaos.h"
#include "fleet/checkpoint.h"

// arch: wearout structures, their samplers, and cost models.
#include "arch/cost_model.h"
#include "arch/htree.h"
#include "arch/share_store.h"
#include "arch/shift_register.h"
#include "arch/structures.h"
#include "arch/structures_sim.h"

// lint: design-rule checking for DesignRequest specs.
#include "lint/diagnostics.h"
#include "lint/rules.h"

// core: solvers, gates, connections, and application models.
#include "core/calibration.h"
#include "core/connection.h"
#include "core/decision_tree.h"
#include "core/design_solver.h"
#include "core/explorer.h"
#include "core/forward_secrecy.h"
#include "core/gate.h"
#include "core/mway.h"
#include "core/otp_chip.h"
#include "core/programmable_gate.h"
#include "core/software_baseline.h"
#include "core/targeting.h"
#include "core/usage_bounds.h"

// api / serve: the JSON service facade and the embeddable HTTP
// server behind lemonsd (lemons-api/1 envelopes, S-code errors).
#include "api/codec.h"
#include "api/json.h"
#include "api/service.h"
#include "api/types.h"
#include "serve/quota.h"
#include "serve/server.h"

#endif // LEMONS_LEMONS_H
