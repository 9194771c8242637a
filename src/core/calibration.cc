#include "core/calibration.h"

#include "arch/structures.h"
#include "wearout/weibull.h"

namespace lemons::core {

CalibrationReport
calibrateAndRedesign(const std::vector<double> &observedLifetimes,
                     const DesignRequest &assumed)
{
    CalibrationReport report;

    const wearout::Weibull fitted =
        wearout::Weibull::fit(observedLifetimes);
    report.fitted = {fitted.alpha(), fitted.beta()};

    report.nominalDesign = DesignSolver(assumed).solve();
    if (report.nominalDesign.feasible) {
        const Design &nominal = report.nominalDesign;
        const arch::ParallelStructure copy(fitted, nominal.width,
                                           nominal.threshold);
        report.nominalReliabilityAtBound =
            copy.reliabilityAt(static_cast<double>(nominal.perCopyBound));
        report.nominalResidualPastBound = copy.reliabilityAt(
            static_cast<double>(nominal.deathCheckAccess));
        report.nominalStillMeetsCriteria =
            report.nominalReliabilityAtBound >=
                assumed.criteria.minReliability &&
            report.nominalResidualPastBound <=
                assumed.criteria.maxResidualReliability;
    }

    DesignRequest refitted = assumed;
    refitted.device = report.fitted;
    report.recalibratedDesign = DesignSolver(refitted).solve();
    if (report.nominalDesign.feasible &&
        report.recalibratedDesign.feasible) {
        report.redesignCostRatio =
            static_cast<double>(report.recalibratedDesign.totalDevices) /
            static_cast<double>(report.nominalDesign.totalDevices);
    }
    return report;
}

} // namespace lemons::core
