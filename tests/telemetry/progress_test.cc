/** @file Unit tests for the live sweep progress meter and its mode
 *  resolution. Rendering is exercised via renderLine() (no TTY in
 *  test runs); the sticky-line plumbing itself lives in common/log
 *  and is covered by the log tests. */

#include <gtest/gtest.h>

#include <string>

#include "telemetry/progress.hh"

namespace stms::telemetry
{
namespace
{

TEST(ProgressMode, ExplicitModesIgnoreTty)
{
    EXPECT_TRUE(progressEnabled(ProgressMode::On));
    EXPECT_FALSE(progressEnabled(ProgressMode::Off));
    // Auto depends on isatty(stderr); under ctest that is false.
    // (Not asserted: a developer may run the binary on a TTY.)
}

TEST(ProgressMeter, DisabledMeterIsInertStub)
{
    ProgressMeter meter(false, "fig7", 4, 2);
    EXPECT_FALSE(meter.enabled());
    meter.noteRun(1000, 0.1, 0.2);  // Swallowed: no state change.
    EXPECT_NE(meter.renderLine().find("0/4 runs"), std::string::npos);
    meter.finish();  // No sticky line was drawn; nothing to erase.
}

TEST(ProgressMeter, RenderLineReportsCountsAndStages)
{
    ProgressMeter meter(true, "fig7", 4, 2);
    meter.noteRun(4096, 0.0, 0.0);
    meter.noteRun(4096, 0.0, 0.0);
    meter.finish();

    const std::string line = meter.renderLine();
    EXPECT_NE(line.find("[fig7]"), std::string::npos);
    EXPECT_NE(line.find("2/4 runs"), std::string::npos);
    EXPECT_NE(line.find("rec/s"), std::string::npos);
    EXPECT_NE(line.find("ETA"), std::string::npos);
    EXPECT_NE(line.find("acq"), std::string::npos);
    EXPECT_NE(line.find("sim"), std::string::npos);
    EXPECT_EQ(line.find("enc"), std::string::npos);
}

TEST(ProgressMeter, FinishIsIdempotent)
{
    ProgressMeter meter(true, "fig9", 1, 1);
    meter.noteRun(128, 0.0, 0.0);
    meter.finish();
    meter.finish();  // Second call: no-op (destructor calls it too).
}

} // namespace
} // namespace stms::telemetry
