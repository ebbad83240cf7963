/**
 * @file
 * Golden-report regression tests: per-preset CSVs and the single-run
 * text report from a fixed-seed smoke configuration, checked in under
 * tests/golden/, must match the current simulator bit-for-bit. A
 * perf-motivated refactor that changes simulated results now fails
 * here instead of slipping through silently.
 *
 * Regenerating after an *intentional* behavior change (one command):
 *
 *   IMPSIM_REGEN_GOLDEN=1 ./build/test_golden_regression
 *
 * then review and commit the tests/golden/ diff. The regen path
 * writes into the source tree via IMPSIM_SOURCE_DIR.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/config_file.hpp"
#include "sim/experiment_runner.hpp"

namespace impsim {
namespace {

/** The fixed-seed smoke machine every golden run shares. */
constexpr char kSmokeBase[] =
    "app   = spmv\n"
    "cores = 4\n"
    "scale = 0.05\n"
    "seed  = 42\n";

std::string
goldenDir()
{
    return std::string(IMPSIM_SOURCE_DIR) + "/tests/golden/";
}

bool
regenRequested()
{
    const char *env = std::getenv("IMPSIM_REGEN_GOLDEN");
    return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/**
 * Runs config @p text (origin @p name) and returns its output: CSV,
 * or for a one-run config with @p csv false, the text report.
 */
std::string
currentOutput(const std::string &name, const std::string &text,
              bool csv = true)
{
    Experiment exp =
        bindExperiment(ConfigFile::parseString(text, name));
    std::ostringstream os;
    ExperimentRunOptions opt;
    opt.csv = csv;
    EXPECT_TRUE(runExperiment(exp, os, opt));
    return os.str();
}

/** Compares @p output with tests/golden/@p file (or rewrites it). */
void
expectMatchesGolden(const std::string &file, const std::string &output)
{
    const std::string path = goldenDir() + file;
    if (regenRequested()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << output;
        SUCCEED() << "regenerated " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path
                    << " is missing; regenerate with "
                       "IMPSIM_REGEN_GOLDEN=1 ./test_golden_regression";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(output, golden.str())
        << "simulated results changed for " << file
        << "; if intentional, regenerate tests/golden/ with "
           "IMPSIM_REGEN_GOLDEN=1 ./test_golden_regression and commit "
           "the diff";
}

class GoldenPreset : public ::testing::TestWithParam<const char *>
{
};

TEST_P(GoldenPreset, CsvMatchesCheckedInGolden)
{
    const std::string preset = GetParam();
    const std::string text =
        "[system]\npreset = " + preset + "\n" + kSmokeBase;
    std::string stem = preset;
    for (char &c : stem)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    expectMatchesGolden(stem + ".csv",
                        currentOutput("golden:" + preset, text));
}

// One golden per preset the paper's figures lean on (the partial
// modes ride on IMP and are covered by their own suites).
INSTANTIATE_TEST_SUITE_P(Presets, GoldenPreset,
                         ::testing::Values("NoPref", "Base", "SWPref",
                                           "IMP", "GHB", "PerfPref"));

TEST(GoldenOoo, SixteenCoreOooMatchesCheckedInGolden)
{
    // The 16-core out-of-order configuration (Fig 13's machine) pins
    // the ROB model, the OoO completion callbacks and the full-mesh
    // NoC/coherence paths that the 4-core smoke machine only grazes.
    const std::string text =
        "[system]\n"
        "preset     = IMP\n"
        "core_model = ooo\n"
        "app        = spmv\n"
        "cores      = 16\n"
        "scale      = 0.05\n"
        "seed       = 42\n";
    expectMatchesGolden("imp_ooo_16c.csv",
                        currentOutput("golden:ooo16", text));
}

TEST(GoldenSweep, ShippedSmokeConfigMatchesCheckedInGolden)
{
    // The shipped smoke sweep (2 presets x 2 PT sizes) locks the
    // sweep path end-to-end: expansion order, labels, CSV framing.
    std::ifstream in(std::string(IMPSIM_SOURCE_DIR) +
                         "/examples/configs/smoke.imp.ini",
                     std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream text;
    text << in.rdbuf();
    expectMatchesGolden("smoke_sweep.csv",
                        currentOutput("golden:smoke", text.str()));
}

TEST(GoldenReport, SingleRunReportMatchesCheckedInGolden)
{
    // The text report a one-run config prints, on the IMP smoke
    // machine: its layout and every counter it lists.
    const std::string text = "[system]\npreset = IMP\n" +
                             std::string(kSmokeBase);
    expectMatchesGolden("imp_report.txt",
                        currentOutput("golden:report", text, false));
}

TEST(GoldenReport, TlbOnReportMatchesCheckedInGolden)
{
    // The same machine with the TLB model on adds the TLB section.
    const std::string text = "[system]\npreset = IMP\n" +
                             std::string(kSmokeBase) +
                             "[tlb]\nenable = true\n";
    expectMatchesGolden("imp_tlb_report.txt",
                        currentOutput("golden:report-tlb", text, false));
}

} // namespace
} // namespace impsim
