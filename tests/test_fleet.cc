/**
 * @file
 * Unit tests for lemons::fleet campaigns: the closed-form device
 * sampler against the per-day simulation it replaced, device
 * apportionment, thread-count invariance of every reported number,
 * in-process interrupt/resume equivalence, checkpoint config
 * fingerprinting, the [fleet]/[cohort] spec front end, and the L8xx
 * lint rules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "fleet/campaign.h"
#include "fleet/checkpoint.h"
#include "lint/diagnostics.h"
#include "lint/rules.h"
#include "lint/spec_file.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "wearout/mixture.h"
#include "wearout/weibull.h"

namespace lemons::fleet {
namespace {

namespace fs = std::filesystem;

/** A throwaway directory per test, removed on destruction. */
class TempDir
{
  public:
    TempDir()
    {
        root = fs::temp_directory_path() /
               ("lemons-fleet-test-" + std::to_string(counter()++));
        fs::create_directories(root);
    }
    ~TempDir()
    {
        std::error_code ignored;
        fs::remove_all(root, ignored);
    }
    std::string path(const std::string &name) const
    {
        return (root / name).string();
    }

  private:
    static int &counter()
    {
        static int value = 0;
        return value;
    }
    fs::path root;
};

/** A small heterogeneous spec that runs in well under a second. */
lint::FleetSpec
smallSpec()
{
    lint::FleetSpec spec;
    spec.devices = 1500;
    spec.seed = 7;
    spec.chunkSize = 32;
    spec.checkpointEveryChunks = 2;
    spec.horizonDays = 400;
    spec.prematureDays = 200;

    // Lifetime mixtures are at fielded-unit scale (accesses the
    // composed design survives), not the single-device alpha = 10.
    lint::FleetCohortSpec heavy;
    heavy.name = "heavy";
    heavy.weight = 0.6;
    heavy.staggerDays = 30.0;
    heavy.accessBound = 9000;
    heavy.usage.meanPerDay = 40.0;
    heavy.usage.burstProbability = 0.1;
    heavy.usage.burstMultiplier = 4.0;
    heavy.lifetime.infantFraction = 0.05;
    heavy.lifetime.infant = {9000.0, 0.8};
    heavy.lifetime.main = {500000.0, 12.0};

    lint::FleetCohortSpec light;
    light.name = "light";
    light.weight = 0.4;
    light.staggerDays = 0.0;
    light.accessBound = 91250;
    light.usage.meanPerDay = 20.0;
    light.lifetime.infantFraction = 0.0;
    light.lifetime.infant = {9000.0, 0.8};
    light.lifetime.main = {200000.0, 12.0};
    light.reprovisionDay = 100.0;
    light.reprovisionUsageScale = 2.0;

    spec.cohorts = {heavy, light};
    return spec;
}

/**
 * The per-day simulation that sampleDeviceLifetime replaced, kept as
 * its oracle: each day from entry into service draws a burst Bernoulli
 * and a Poisson demand, and the device locks out on the first day its
 * cumulative demand reaches the budget. Same stagger and wear-life
 * draws, same counter semantics, and the same 0 service days for a
 * device that enters service after the horizon.
 */
DeviceLifetime
referenceSimulateDevice(Rng &rng, const lint::FleetSpec &spec,
                        const lint::FleetCohortSpec &cohort,
                        const wearout::BathtubModel &lifetime)
{
    const double entryDay = cohort.staggerDays > 0.0
                                ? rng.nextDouble() * cohort.staggerDays
                                : 0.0;
    const double wearLife = lifetime.sample(rng);
    const double bound = static_cast<double>(cohort.accessBound);
    const uint64_t budget = static_cast<uint64_t>(
        std::max(0.0, std::min(bound, wearLife)));

    DeviceLifetime device;
    const uint64_t firstDay = static_cast<uint64_t>(entryDay);
    uint64_t spent = 0;
    for (uint64_t day = firstDay; day < spec.horizonDays; ++day) {
        double mean = cohort.usage.meanPerDay;
        if (cohort.reprovisionDay &&
            static_cast<double>(day) >= *cohort.reprovisionDay) {
            device.reprovisioned = true;
            mean *= cohort.reprovisionUsageScale;
        }
        if (cohort.usage.burstProbability > 0.0 &&
            rng.nextBernoulli(cohort.usage.burstProbability))
            mean *= cohort.usage.burstMultiplier;
        spent += sim::poissonSample(rng, mean);
        if (spent >= budget) {
            device.replaced = true;
            device.premature = day < spec.prematureDays;
            device.serviceDays = static_cast<double>(day - firstDay);
            return device;
        }
    }
    if (firstDay < spec.horizonDays)
        device.serviceDays =
            static_cast<double>(spec.horizonDays - firstDay);
    return device;
}

using DeviceSampler = DeviceLifetime (*)(Rng &, const lint::FleetSpec &,
                                         const lint::FleetCohortSpec &,
                                         const wearout::BathtubModel &);

wearout::BathtubModel
lifetimeOf(const lint::FleetCohortSpec &cohort)
{
    return wearout::BathtubModel(
        cohort.lifetime.infantFraction,
        wearout::Weibull(cohort.lifetime.infant.alpha,
                         cohort.lifetime.infant.beta),
        wearout::Weibull(cohort.lifetime.main.alpha,
                         cohort.lifetime.main.beta));
}

/** Per-device outcomes of one sampler over one cohort. */
struct CohortDraws
{
    std::vector<double> serviceDays;
    uint64_t replaced = 0;
    uint64_t premature = 0;
    uint64_t reprovisioned = 0;
};

CohortDraws
drawCohort(DeviceSampler sampler, const lint::FleetSpec &spec,
           const lint::FleetCohortSpec &cohort, uint64_t devices,
           uint64_t seed)
{
    // Per-trial engine streams: the draws are the same at any thread
    // count, so the verdicts below are deterministic.
    const wearout::BathtubModel lifetime = lifetimeOf(cohort);
    std::atomic<uint64_t> replaced{0};
    std::atomic<uint64_t> premature{0};
    std::atomic<uint64_t> reprovisioned{0};
    engine::McRunOptions options;
    options.trials = devices;
    options.threads = 4;
    const engine::TrialReport report = engine::runTrials(
        seed, options, [&](Rng &rng, uint64_t) {
            const DeviceLifetime device =
                sampler(rng, spec, cohort, lifetime);
            replaced += device.replaced ? 1 : 0;
            premature += device.premature ? 1 : 0;
            reprovisioned += device.reprovisioned ? 1 : 0;
            return device.serviceDays;
        });
    return {report.samples, replaced.load(), premature.load(),
            reprovisioned.load()};
}

/** Pearson chi-square of a 2x2 table: hits a of n vs b of m. */
double
chiSquare2x2(uint64_t a, uint64_t n, uint64_t b, uint64_t m)
{
    const double total = static_cast<double>(n + m);
    const double hits = static_cast<double>(a + b);
    if (hits == 0.0 || hits == total)
        return 0.0; // both samples all-in or all-out: identical
    const double observed[2][2] = {
        {static_cast<double>(a), static_cast<double>(n - a)},
        {static_cast<double>(b), static_cast<double>(m - b)}};
    const double rows[2] = {static_cast<double>(n), static_cast<double>(m)};
    const double columns[2] = {hits, total - hits};
    double chi = 0.0;
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 2; ++c) {
            const double expected = rows[r] * columns[c] / total;
            chi += (observed[r][c] - expected) *
                   (observed[r][c] - expected) / expected;
        }
    return chi;
}

/** Two-sample Kolmogorov-Smirnov statistic sup |F_x - F_y| (ties
 *  stepped together, so integer-valued samples are handled exactly). */
double
ksStatistic(std::vector<double> x, std::vector<double> y)
{
    std::sort(x.begin(), x.end());
    std::sort(y.begin(), y.end());
    size_t i = 0;
    size_t j = 0;
    double sup = 0.0;
    while (i < x.size() && j < y.size()) {
        const double value = std::min(x[i], y[j]);
        while (i < x.size() && x[i] == value)
            ++i;
        while (j < y.size() && y[j] == value)
            ++j;
        sup = std::max(
            sup, std::abs(static_cast<double>(i) /
                              static_cast<double>(x.size()) -
                          static_cast<double>(j) /
                              static_cast<double>(y.size())));
    }
    return sup;
}

/** The shipped smartphone fleet: retail and secondhand cohorts. */
lint::FleetSpec
smartphoneSpec()
{
    lint::Report report;
    const lint::ParsedSpec parsed = lint::parseSpecFile(
        std::string(LEMONS_CONFIG_DIR) + "/fleet_smartphone.lemons",
        report);
    if (report.hasErrors() || parsed.fleets.size() != 1)
        throw std::runtime_error("fleet_smartphone.lemons: " +
                                 report.format());
    return parsed.fleets.front();
}

/**
 * Closed form vs per-day oracle on one cohort, at fixed seeds (so the
 * verdict is deterministic): the replaced, premature and reprovisioned
 * counts by 2x2 chi-square, the service days by two-sample KS, both at
 * the 99.9 % level.
 */
void
expectSamplersAgree(const lint::FleetSpec &spec,
                    const lint::FleetCohortSpec &cohort)
{
    constexpr uint64_t kDevices = 20000;
    constexpr double kChiSquare999 = 10.828; // 1 df
    constexpr double kKs999 = 1.9495;        // c(0.001)
    const CohortDraws closed =
        drawCohort(&sampleDeviceLifetime, spec, cohort, kDevices, 0x5eed1);
    const CohortDraws oracle = drawCohort(&referenceSimulateDevice, spec,
                                          cohort, kDevices, 0x5eed2);
    const auto expectCounts = [&](const char *what, uint64_t a,
                                  uint64_t b) {
        EXPECT_LT(chiSquare2x2(a, kDevices, b, kDevices), kChiSquare999)
            << cohort.name << " " << what << ": closed form " << a
            << " vs per-day " << b << " of " << kDevices;
    };
    expectCounts("replaced", closed.replaced, oracle.replaced);
    expectCounts("premature", closed.premature, oracle.premature);
    expectCounts("reprovisioned", closed.reprovisioned,
                 oracle.reprovisioned);
    const double n = static_cast<double>(kDevices);
    EXPECT_LT(ksStatistic(closed.serviceDays, oracle.serviceDays),
              kKs999 * std::sqrt(2.0 / n))
        << cohort.name << " service days";
}

TEST(FleetDeviceSampler, MatchesPerDayOracleOnSmartphoneCohorts)
{
    const lint::FleetSpec spec = smartphoneSpec();
    ASSERT_EQ(spec.cohorts.size(), 2u);
    for (const lint::FleetCohortSpec &cohort : spec.cohorts)
        expectSamplersAgree(spec, cohort);
}

TEST(FleetDeviceSampler, MatchesPerDayOracleOnBurstHeavyUsage)
{
    const lint::FleetSpec spec = smartphoneSpec();
    lint::FleetCohortSpec bursty = spec.cohorts[0];
    bursty.name = "burst-heavy";
    bursty.usage.meanPerDay = 25.0;
    bursty.usage.burstProbability = 0.3;
    bursty.usage.burstMultiplier = 5.0;
    expectSamplersAgree(spec, bursty);
}

TEST(FleetDeviceSampler, MatchesPerDayOracleReprovisionedInsidePrematureWindow)
{
    const lint::FleetSpec spec = smartphoneSpec();
    lint::FleetCohortSpec early = spec.cohorts[1];
    early.name = "early-second-owner";
    early.reprovisionDay = 200.5; // before premature_days = 365
    early.reprovisionUsageScale = 4.0;
    early.usage.burstProbability = 0.1;
    early.usage.burstMultiplier = 2.0;
    expectSamplersAgree(spec, early);
}

TEST(FleetDeviceSampler, MatchesPerDayOracleOnInfantHeavySmallBudgets)
{
    const lint::FleetSpec spec = smartphoneSpec();
    lint::FleetCohortSpec infant = spec.cohorts[0];
    infant.name = "infant-heavy";
    infant.staggerDays = 60.0;
    infant.lifetime.infantFraction = 0.5;
    infant.lifetime.infant = {400.0, 0.8};
    infant.usage.burstProbability = 0.1;
    infant.reprovisionDay = 20.0; // some devices enter after it
    infant.reprovisionUsageScale = 0.5;
    expectSamplersAgree(spec, infant);
}

TEST(FleetDeviceSampler, MatchesPerDayOracleOnTinyBudgets)
{
    // A LAB of 3 at 0.05 accesses a day: the lockout is the 3rd access
    // (or an earlier one for the infant leg's budgets of 0 to 2), weeks
    // apart, so the exhaustion day is resolved to the single access.
    const lint::FleetSpec spec = smartphoneSpec();
    lint::FleetCohortSpec tiny = spec.cohorts[1];
    tiny.name = "tiny-budget";
    tiny.accessBound = 3;
    tiny.usage.meanPerDay = 0.05;
    tiny.usage.burstProbability = 0.1;
    tiny.usage.burstMultiplier = 3.0;
    tiny.lifetime.infantFraction = 0.5;
    tiny.lifetime.infant = {2.0, 0.8};
    expectSamplersAgree(spec, tiny);
}

/** Run both samplers on the same per-device streams. */
template <typename Check>
void
forEachDevicePair(const lint::FleetSpec &spec,
                  const lint::FleetCohortSpec &cohort, Check check)
{
    const wearout::BathtubModel lifetime = lifetimeOf(cohort);
    const Rng parent(0xed9e);
    for (uint64_t i = 0; i < 2000; ++i) {
        Rng closedRng = parent.split(i);
        Rng oracleRng = parent.split(i);
        check(sampleDeviceLifetime(closedRng, spec, cohort, lifetime),
              referenceSimulateDevice(oracleRng, spec, cohort, lifetime));
    }
}

void
expectSameDevice(const DeviceLifetime &a, const DeviceLifetime &b)
{
    EXPECT_EQ(a.serviceDays, b.serviceDays);
    EXPECT_EQ(a.replaced, b.replaced);
    EXPECT_EQ(a.premature, b.premature);
    EXPECT_EQ(a.reprovisioned, b.reprovisioned);
}

TEST(FleetDeviceSampler, ZeroBudgetLocksOutOnTheEntryDay)
{
    // The premature threshold and the re-provisioning day both fall
    // inside the 30-day stagger, so the entry day decides both flags.
    lint::FleetSpec spec = smartphoneSpec();
    spec.prematureDays = 15;
    lint::FleetCohortSpec cohort = spec.cohorts[1];
    cohort.accessBound = 0;
    cohort.reprovisionDay = 10.0;
    uint64_t premature = 0;
    forEachDevicePair(spec, cohort,
                      [&](const DeviceLifetime &closed,
                          const DeviceLifetime &oracle) {
                          EXPECT_EQ(closed.serviceDays, 0.0);
                          EXPECT_TRUE(closed.replaced);
                          expectSameDevice(closed, oracle);
                          premature += closed.premature ? 1 : 0;
                      });
    EXPECT_GT(premature, 0u);
    EXPECT_LT(premature, 2000u);
}

TEST(FleetDeviceSampler, ZeroUsageNeverLocksOut)
{
    const lint::FleetSpec spec = smartphoneSpec();
    lint::FleetCohortSpec cohort = spec.cohorts[0];
    cohort.usage.meanPerDay = 0.0;
    cohort.reprovisionDay = 45.0;
    forEachDevicePair(spec, cohort,
                      [&](const DeviceLifetime &closed,
                          const DeviceLifetime &oracle) {
                          EXPECT_FALSE(closed.replaced);
                          EXPECT_GT(closed.serviceDays,
                                    static_cast<double>(spec.horizonDays) -
                                        cohort.staggerDays - 1.0);
                          expectSameDevice(closed, oracle);
                      });
}

TEST(FleetDeviceSampler, EveryDayBurstsMatchAScaledNoBurstCohort)
{
    const lint::FleetSpec spec = smartphoneSpec();
    lint::FleetCohortSpec always = spec.cohorts[1];
    always.usage.burstProbability = 1.0;
    always.usage.burstMultiplier = 2.5;
    lint::FleetCohortSpec scaled = always;
    scaled.usage.burstProbability = 0.0;
    scaled.usage.burstMultiplier = 1.0;
    scaled.usage.meanPerDay = always.usage.meanPerDay * 2.5;
    const wearout::BathtubModel lifetime = lifetimeOf(always);
    const Rng parent(0xb0057);
    uint64_t replaced = 0;
    for (uint64_t i = 0; i < 2000; ++i) {
        Rng a = parent.split(i);
        Rng b = parent.split(i);
        const DeviceLifetime burst =
            sampleDeviceLifetime(a, spec, always, lifetime);
        expectSameDevice(burst,
                         sampleDeviceLifetime(b, spec, scaled, lifetime));
        replaced += burst.replaced ? 1 : 0;
    }
    // 100 accesses a day exhausts the 91,250 LAB before the horizon.
    EXPECT_EQ(replaced, 2000u);
}

TEST(FleetCampaign, ApportionmentIsExactAndDeterministic)
{
    lint::FleetSpec spec = smallSpec();
    spec.devices = 10001;
    spec.cohorts[0].weight = 1.0 / 3.0;
    spec.cohorts[1].weight = 2.0 / 3.0;
    const FleetCampaign campaign(spec);
    const std::vector<uint64_t> &trials = campaign.cohortTrials();
    ASSERT_EQ(trials.size(), 2u);
    EXPECT_EQ(std::accumulate(trials.begin(), trials.end(),
                              uint64_t{0}),
              10001u);
    // floor(10001/3) = 3333, largest remainder tops it up to 3334.
    EXPECT_EQ(trials[0], 3334u);
    EXPECT_EQ(trials[1], 6667u);
}

TEST(FleetCampaign, InvalidSpecIsRejectedAtConstruction)
{
    lint::FleetSpec bad = smallSpec();
    bad.cohorts[0].weight = 0.9; // weights now sum to 1.3
    EXPECT_THROW(FleetCampaign{bad}, std::invalid_argument);

    lint::FleetSpec zeroInterval = smallSpec();
    zeroInterval.checkpointEveryChunks = 0;
    EXPECT_THROW(FleetCampaign{zeroInterval}, std::invalid_argument);
}

TEST(FleetCampaign, DigestIsThreadCountInvariant)
{
    const FleetCampaign campaign(smallSpec());
    CampaignOptions base;
    base.threads = 1;
    const FleetSummary reference = campaign.run(base);
    ASSERT_TRUE(reference.complete());
    ASSERT_EQ(reference.devices, 1500u);
    ASSERT_EQ(reference.cohorts.size(), 2u);
    // The heavy cohort's budget dies well before the horizon; the
    // light cohort's LAB comfortably outlives 400 days.
    EXPECT_GT(reference.cohorts[0].replacementRate(), 0.9);
    EXPECT_LT(reference.cohorts[1].replacementRate(), 0.1);
    EXPECT_GT(reference.cohorts[1].reprovisioned, 0u);

    for (unsigned threads : {2u, 8u}) {
        CampaignOptions options;
        options.threads = threads;
        const FleetSummary summary = campaign.run(options);
        EXPECT_EQ(summary.digest(), reference.digest())
            << "digest diverged at " << threads << " threads";
        ASSERT_EQ(summary.cohorts.size(), reference.cohorts.size());
        for (size_t i = 0; i < summary.cohorts.size(); ++i) {
            EXPECT_EQ(summary.cohorts[i].replaced,
                      reference.cohorts[i].replaced);
            EXPECT_EQ(summary.cohorts[i].premature,
                      reference.cohorts[i].premature);
            EXPECT_EQ(summary.cohorts[i].reprovisioned,
                      reference.cohorts[i].reprovisioned);
        }
    }
}

TEST(FleetCampaign, DevicesEnteringAfterTheHorizonServeNoDays)
{
    // A stagger window twice the horizon puts about half of each
    // cohort into service after the campaign ends: those devices serve
    // 0 days and count as neither replaced nor re-provisioned.
    lint::FleetSpec spec = smallSpec();
    const double horizon = static_cast<double>(spec.horizonDays);
    for (lint::FleetCohortSpec &cohort : spec.cohorts)
        cohort.staggerDays = 2.0 * horizon;
    const FleetSummary summary = FleetCampaign(spec).run();
    ASSERT_TRUE(summary.complete());
    for (const CohortResult &cohort : summary.cohorts) {
        SCOPED_TRACE(cohort.name);
        EXPECT_GE(cohort.serviceDays.min(), 0.0);
        EXPECT_LE(cohort.serviceDays.max(), horizon);
        EXPECT_LE(cohort.serviceDays.mean(), horizon / 2.0);
        EXPECT_LE(cohort.premature, cohort.replaced);
        EXPECT_LT(static_cast<double>(cohort.replaced),
                  0.6 * static_cast<double>(cohort.devices));
        EXPECT_LT(static_cast<double>(cohort.reprovisioned),
                  0.6 * static_cast<double>(cohort.devices));
    }
    EXPECT_GT(summary.cohorts[1].reprovisioned, 0u);
}

TEST(FleetCampaign, DeadlineInterruptThenResumeMatchesUninterrupted)
{
    const TempDir dir;
    const FleetCampaign campaign(smallSpec());
    const FleetSummary reference = campaign.run(CampaignOptions{});

    // An already-expired deadline stops the campaign at the first
    // wave boundary, leaving a zero-progress (but valid) checkpoint.
    CampaignOptions interrupted;
    interrupted.checkpointPath = dir.path("fleet.ckpt");
    interrupted.deadline = std::chrono::steady_clock::now() -
                           std::chrono::milliseconds(1);
    const FleetSummary partial = campaign.run(interrupted);
    EXPECT_FALSE(partial.complete());
    EXPECT_EQ(partial.interrupt,
              engine::InterruptReason::DeadlineExceeded);
    ASSERT_TRUE(fs::exists(dir.path("fleet.ckpt")));

    // Resuming without a deadline completes and matches bit-for-bit.
    CampaignOptions resume;
    resume.checkpointPath = dir.path("fleet.ckpt");
    resume.resume = true;
    const FleetSummary resumed = campaign.run(resume);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.digest(), reference.digest());
}

TEST(FleetCampaign, CancellationMidCampaignResumesBitIdentically)
{
    const TempDir dir;
    const FleetCampaign campaign(smallSpec());
    const FleetSummary reference = campaign.run(CampaignOptions{});

    // Cancel from inside the run: the token fires after the first
    // checkpoint lands, so the interrupt point is mid-campaign.
    engine::CancelToken token;
    CampaignOptions interrupted;
    interrupted.checkpointPath = dir.path("fleet.ckpt");
    interrupted.cancel = &token;
    std::thread canceller([&token] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        token.cancel();
    });
    const FleetSummary partial = campaign.run(interrupted);
    canceller.join();

    FleetSummary outcome = partial;
    if (!partial.complete()) {
        EXPECT_EQ(partial.interrupt,
                  engine::InterruptReason::Cancelled);
        CampaignOptions resume;
        resume.checkpointPath = dir.path("fleet.ckpt");
        resume.resume = true;
        outcome = campaign.run(resume);
        EXPECT_TRUE(outcome.resumed);
    }
    EXPECT_TRUE(outcome.complete());
    EXPECT_EQ(outcome.digest(), reference.digest());
}

TEST(FleetCampaign, ResumeRejectsForeignCheckpoint)
{
    const TempDir dir;
    const FleetCampaign original(smallSpec());
    CampaignOptions options;
    options.checkpointPath = dir.path("fleet.ckpt");
    static_cast<void>(original.run(options));

    // Same path, different experiment: the config fingerprint must
    // refuse the mix-up with the C105 taxonomy code.
    lint::FleetSpec other = smallSpec();
    other.seed = 8;
    const FleetCampaign foreign(other);
    CampaignOptions resume = options;
    resume.resume = true;
    try {
        static_cast<void>(foreign.run(resume));
        FAIL() << "foreign checkpoint must be rejected";
    } catch (const CheckpointError &error) {
        EXPECT_NE(std::string(error.what()).find("C105"),
                  std::string::npos)
            << error.what();
    }
}

TEST(FleetCampaign, SealedCheckpointResumeSkipsAllWork)
{
    const TempDir dir;
    const FleetCampaign campaign(smallSpec());
    CampaignOptions options;
    options.checkpointPath = dir.path("fleet.ckpt");
    const FleetSummary first = campaign.run(options);

    CampaignOptions resume = options;
    resume.resume = true;
    const FleetSummary second = campaign.run(resume);
    EXPECT_TRUE(second.resumed);
    EXPECT_TRUE(second.complete());
    EXPECT_EQ(second.digest(), first.digest());
}

TEST(FleetSpecFile, FleetAndCohortSectionsParse)
{
    const std::string text = "[fleet]\n"
                             "devices = 5000\n"
                             "seed = 11\n"
                             "chunk_size = 128\n"
                             "checkpoint_interval = 4\n"
                             "horizon_days = 1825\n"
                             "premature_days = 365\n"
                             "[cohort]\n"
                             "name = retail\n"
                             "weight = 0.75\n"
                             "stagger_days = 90\n"
                             "access_bound = 91250\n"
                             "mean_per_day = 50\n"
                             "burst_probability = 0.05\n"
                             "burst_multiplier = 3\n"
                             "infant_fraction = 0.02\n"
                             "[cohort]\n"
                             "name = secondhand\n"
                             "weight = 0.25\n"
                             "mean_per_day = 30\n"
                             "reprovision_day = 900\n"
                             "reprovision_scale = 1.5\n";
    lint::Report report;
    const lint::ParsedSpec parsed =
        lint::parseSpec(text, "f", report);
    EXPECT_FALSE(report.hasErrors()) << report.format();
    ASSERT_EQ(parsed.fleets.size(), 1u);
    const lint::FleetSpec &fleet = parsed.fleets[0];
    EXPECT_EQ(fleet.devices, 5000u);
    EXPECT_EQ(fleet.seed, 11u);
    EXPECT_EQ(fleet.chunkSize, 128u);
    EXPECT_EQ(fleet.checkpointEveryChunks, 4u);
    ASSERT_EQ(fleet.cohorts.size(), 2u);
    EXPECT_EQ(fleet.cohorts[0].name, "retail");
    EXPECT_DOUBLE_EQ(fleet.cohorts[0].weight, 0.75);
    EXPECT_DOUBLE_EQ(fleet.cohorts[0].staggerDays, 90.0);
    EXPECT_EQ(fleet.cohorts[1].name, "secondhand");
    ASSERT_TRUE(fleet.cohorts[1].reprovisionDay.has_value());
    EXPECT_DOUBLE_EQ(*fleet.cohorts[1].reprovisionDay, 900.0);
    EXPECT_DOUBLE_EQ(fleet.cohorts[1].reprovisionUsageScale, 1.5);

    // The parsed spec is directly runnable.
    const FleetCampaign campaign(fleet);
    EXPECT_EQ(std::accumulate(campaign.cohortTrials().begin(),
                              campaign.cohortTrials().end(),
                              uint64_t{0}),
              5000u);
}

TEST(FleetSpecFile, CohortBeforeFleetIsASyntaxError)
{
    lint::Report report;
    lint::parseSpec("[cohort]\nname = orphan\nweight = 1\n", "f", report);
    EXPECT_TRUE(report.hasCode(lint::Code::L902));
    EXPECT_TRUE(report.hasErrors());
}

TEST(FleetLintRules, CatchBadFleetParameters)
{
    using lint::Code;
    lint::FleetSpec spec = smallSpec();
    spec.devices = 0;
    spec.horizonDays = 0;
    spec.checkpointEveryChunks = 0;
    lint::Report report = lint::checkFleet(spec);
    EXPECT_TRUE(report.hasCode(Code::L801));
    EXPECT_TRUE(report.hasCode(Code::L802));
    EXPECT_TRUE(report.hasCode(Code::L803));

    lint::FleetSpec weights = smallSpec();
    weights.cohorts[0].weight = 1.5;
    report = lint::checkFleet(weights);
    EXPECT_TRUE(report.hasCode(Code::L804));
    EXPECT_TRUE(report.hasCode(Code::L805));

    lint::FleetSpec stagger = smallSpec();
    stagger.cohorts[0].staggerDays = -3.0;
    stagger.cohorts[1].accessBound = 0;
    report = lint::checkFleet(stagger);
    EXPECT_TRUE(report.hasCode(Code::L806));
    EXPECT_TRUE(report.hasCode(Code::L807));

    lint::FleetSpec noCohorts = smallSpec();
    noCohorts.cohorts.clear();
    EXPECT_TRUE(lint::checkFleet(noCohorts).hasCode(Code::L808));

    lint::FleetSpec lateReprovision = smallSpec();
    lateReprovision.cohorts[1].reprovisionDay = 1e9;
    EXPECT_TRUE(
        lint::checkFleet(lateReprovision).hasCode(Code::L809));

    lint::FleetSpec premature = smallSpec();
    premature.prematureDays = premature.horizonDays;
    EXPECT_TRUE(lint::checkFleet(premature).hasCode(Code::L810));

    lint::FleetSpec scale = smallSpec();
    scale.cohorts[1].reprovisionUsageScale = -1.0;
    EXPECT_TRUE(lint::checkFleet(scale).hasCode(Code::L811));

    // The clean small spec fires nothing.
    EXPECT_TRUE(lint::checkFleet(smallSpec()).empty())
        << lint::checkFleet(smallSpec()).format();
}

} // namespace
} // namespace lemons::fleet
