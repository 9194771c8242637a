/**
 * @file
 * Usage-profile ablation: does the paper's fixed budget really cover
 * its own usage assumption?
 *
 * Section 1 sizes the connection at 91,250 = 50/day x 365 x 5 exactly.
 * With stochastic daily usage (Poisson 50/day) that budget is a coin
 * flip — half of all users exhaust it before year five. This bench
 * quantifies the shortfall, the budget a 99 %/99.9 % survival target
 * actually needs, and how M-way replication (Section 4.1.5) absorbs
 * heavier and burstier profiles. Every number is exact (closed-form
 * survival and quantiles), so the tables do not depend on --quick.
 */

#include "bench/harness.h"
#include "core/mway.h"
#include "sim/workload.h"
#include "util/table.h"

using namespace lemons;
using namespace lemons::sim;

namespace {

struct Profile
{
    const char *label;
    UsageProfile profile;
};

constexpr Profile kProfiles[] = {
    {"nominal 50/day", {50.0, 0.0, 1.0}},
    {"light 30/day", {30.0, 0.0, 1.0}},
    {"heavy 60/day", {60.0, 0.0, 1.0}},
    {"bursty 50/day (5% days x4)", {50.0, 0.05, 4.0}},
    {"power user 120/day", {120.0, 0.0, 1.0}},
};

constexpr uint64_t kHorizonDays = 5 * 365;

// survivalProbability / budgetForSurvival are exact and ignore it.
const MonteCarlo kUnusedEngine(20170624, 1);

} // namespace

LEMONS_BENCH(usageSurvival, "usage.survival_probability")
{
    ctx.out() << "=== Usage profiles vs the 91,250-access budget "
                 "(5-year horizon) ===\n\n";
    ctx.out() << "--- survival probability of fixed budgets ---\n";
    Table table({"profile", "eff. mean/day", "P(91,250 lasts)",
                 "P(2x lasts)", "budget for 99%"});
    for (const Profile &p : kProfiles) {
        const auto p1 =
            survivalProbability(p.profile, 91250, kHorizonDays, kUnusedEngine);
        const auto p2 =
            survivalProbability(p.profile, 2 * 91250, kHorizonDays,
                                kUnusedEngine);
        const uint64_t needed =
            budgetForSurvival(p.profile, kHorizonDays, 0.99, kUnusedEngine);
        ctx.keep(p1.estimate + p2.estimate +
                 static_cast<double>(needed));
        table.addRow({p.label,
                      formatGeneral(p.profile.effectiveDailyMean(), 4),
                      formatGeneral(p1.estimate, 3),
                      formatGeneral(p2.estimate, 3),
                      formatCount(needed)});
    }
    table.print(ctx.out());
}

LEMONS_BENCH(usageMway, "usage.mway_factors")
{
    ctx.out() << "--- implied M-way replication factors "
                 "(Section 4.1.5) ---\n";
    Table mway({"profile", "budget for 99.9%", "M needed",
                "re-encrypt every"});
    for (const Profile &p : kProfiles) {
        const uint64_t needed =
            budgetForSurvival(p.profile, kHorizonDays, 0.999, kUnusedEngine);
        const uint64_t m = (needed + 91249) / 91250;
        ctx.keep(static_cast<double>(needed));
        mway.addRow({p.label, formatCount(needed), formatCount(m),
                     formatGeneral(60.0 / static_cast<double>(m), 3) +
                         " months"});
    }
    mway.print(ctx.out());

    ctx.out()
        << "\nThe nominal profile needs only ~1% extra budget (Poisson "
           "noise is sqrt(91k) ~ 300 accesses), so a\nsingle module plus "
           "the paper's own minimum-reliability margin suffices; heavy "
           "and bursty users map\ndirectly onto the M-way replication "
           "table above.\n";
}
