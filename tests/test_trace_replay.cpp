/**
 * @file
 * Record-then-replay differential tests: recording a synthetic app to
 * an IMPTRACE file and replaying it must reproduce the generated
 * workload bit-exactly — per-core access streams, barrier flags,
 * tail-instruction counts, and the golden CSV a simulation of it
 * produces. Plus the config-binding surface: "trace:<path>" app specs
 * resolve, validate and fail with file:line:col diagnostics at bind
 * time, exactly like every other config error.
 *
 * The golden CSV (tests/golden/trace_replay.csv) regenerates with:
 *
 *   IMPSIM_REGEN_GOLDEN=1 ./build/test_trace_replay
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/config_file.hpp"
#include "sim/experiment_runner.hpp"
#include "workloads/trace_io.hpp"
#include "workloads/workload.hpp"

namespace impsim {
namespace {

/** A unique temp file per fixture; removed on destruction. */
class TempTrace
{
  public:
    explicit TempTrace(const char *tag, const char *ext = ".imptrace")
        : path_("/tmp/impsim_replay_" + std::string(tag) + "_" +
                std::to_string(::getpid()) + ext)
    {
    }
    ~TempTrace() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

bool
regenRequested()
{
    const char *env = std::getenv("IMPSIM_REGEN_GOLDEN");
    return env != nullptr && *env != '\0' && std::string(env) != "0";
}

void
expectMatchesGolden(const std::string &stem, const std::string &csv)
{
    const std::string path = std::string(IMPSIM_SOURCE_DIR) +
                             "/tests/golden/" + stem + ".csv";
    if (regenRequested()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << csv;
        SUCCEED() << "regenerated " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path
                    << " is missing; regenerate with "
                       "IMPSIM_REGEN_GOLDEN=1 ./test_trace_replay";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(csv, golden.str())
        << "trace replay results changed for " << stem
        << "; if intentional, regenerate with "
           "IMPSIM_REGEN_GOLDEN=1 ./test_trace_replay and commit the "
           "diff";
}

/** Runs config @p text (origin @p name) and returns its CSV. */
std::string
csvFor(const std::string &name, const std::string &text)
{
    Experiment exp = bindExperiment(ConfigFile::parseString(text, name));
    std::ostringstream os;
    ExperimentRunOptions opt;
    opt.csv = true;
    EXPECT_TRUE(runExperiment(exp, os, opt));
    return os.str();
}

void
expectSameStreams(const Workload &direct, const Workload &replayed)
{
    ASSERT_EQ(replayed.traces.size(), direct.traces.size());
    for (std::size_t c = 0; c < direct.traces.size(); ++c) {
        const CoreTrace &a = direct.traces[c];
        const CoreTrace &b = replayed.traces[c];
        EXPECT_EQ(b.tailInstructions, a.tailInstructions)
            << "core " << c;
        ASSERT_EQ(b.accesses.size(), a.accesses.size()) << "core " << c;
        for (std::size_t i = 0; i < a.accesses.size(); ++i) {
            const MemAccess &x = a.accesses[i];
            const MemAccess &y = b.accesses[i];
            const bool same = x.addr == y.addr && x.pc == y.pc &&
                              x.gap == y.gap && x.dep == y.dep &&
                              x.size == y.size && x.flags == y.flags &&
                              x.type == y.type;
            ASSERT_TRUE(same) << "core " << c << " access " << i;
        }
    }
}

class RecordReplayDifferential
    : public ::testing::TestWithParam<AppId>
{
};

TEST_P(RecordReplayDifferential, ReplayedStreamsAreBitIdentical)
{
    const AppId app = GetParam();
    WorkloadParams params;
    params.numCores = 4;
    params.scale = 0.05;
    params.seed = 42;
    Workload direct = makeWorkload(app, params);

    TempTrace file(appName(app));
    recordTrace(file.path(), direct.traces, *direct.mem);

    WorkloadParams replayParams;
    replayParams.numCores = 4;
    replayParams.tracePath = file.path();
    Workload replayed = makeTraceReplay(replayParams);
    expectSameStreams(direct, replayed);

    // The replayed memory image answers reads identically at every
    // recorded access address — what IMP's pattern detector sees.
    for (const CoreTrace &t : direct.traces) {
        for (const MemAccess &a : t.accesses) {
            std::uint32_t want = 0, got = 0;
            direct.mem->read(a.addr, &want, sizeof(want));
            replayed.mem->read(a.addr, &got, sizeof(got));
            ASSERT_EQ(got, want) << "addr " << a.addr;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, RecordReplayDifferential,
                         ::testing::Values(AppId::Spmv,
                                           AppId::Pagerank));

TEST(RecordReplay, GzipRecordingReplaysIdentically)
{
    WorkloadParams params;
    params.numCores = 4;
    params.scale = 0.05;
    params.seed = 42;
    Workload direct = makeWorkload(AppId::Spmv, params);

    TempTrace file("spmv_gz", ".imptrace.gz");
    recordTrace(file.path(), direct.traces, *direct.mem);

    WorkloadParams replayParams;
    replayParams.numCores = 4;
    replayParams.tracePath = file.path();
    expectSameStreams(direct, makeTraceReplay(replayParams));
}

TEST(RecordReplay, SimulatedCsvMatchesDirectRunModuloLabel)
{
    // The headline differential: simulating the replayed trace under
    // [Base, IMP] produces byte-identical CSV rows to simulating the
    // generating app directly — only the app label differs.
    WorkloadParams params;
    params.numCores = 4;
    params.scale = 0.05;
    params.seed = 42;
    Workload direct = makeWorkload(AppId::Spmv, params);
    TempTrace file("csvdiff");
    recordTrace(file.path(), direct.traces, *direct.mem);

    const std::string sweep = "cores  = 4\n"
                              "\n"
                              "[sweep]\n"
                              "preset = [Base, IMP]\n";
    std::string directCsv =
        csvFor("direct", "[system]\napp = spmv\nscale = 0.05\n"
                         "seed = 42\n" +
                             sweep);
    std::string replayCsv =
        csvFor("replay", "[system]\napp = \"trace:" + file.path() +
                             "\"\n" + sweep);

    auto stripAppLabel = [](const std::string &csv) {
        std::istringstream in(csv);
        std::ostringstream out;
        std::string line;
        while (std::getline(in, line)) {
            std::size_t slash = line.find('/');
            out << (slash == std::string::npos ? line
                                               : line.substr(slash))
                << "\n";
        }
        return out.str();
    };
    ASSERT_FALSE(directCsv.empty());
    EXPECT_EQ(stripAppLabel(replayCsv), stripAppLabel(directCsv));
    EXPECT_NE(replayCsv.find("trace:"), std::string::npos);
}

TEST(RecordReplay, ShippedSampleTraceMatchesCheckedInGolden)
{
    // The committed sample trace + config lock the whole frontend
    // end-to-end: decompression, decoding, replay, binding (relative
    // path against the config's directory), labels and CSV framing.
    const std::string cfg = std::string(IMPSIM_SOURCE_DIR) +
                            "/examples/configs/trace_smoke.ini";
    Experiment exp = bindExperiment(ConfigFile::parseFile(cfg));
    ASSERT_EQ(exp.runs.size(), 2u);
    std::ostringstream os;
    ExperimentRunOptions opt;
    opt.csv = true;
    ASSERT_TRUE(runExperiment(exp, os, opt));
    expectMatchesGolden("trace_replay", os.str());
}

TEST(TraceBinding, MissingTraceFailsAtBindTimeWithLocation)
{
    try {
        bindExperiment(ConfigFile::parseString(
            "[system]\n"
            "app   = \"trace:/nonexistent/impsim.imptrace\"\n"
            "cores = 4\n",
            "bind.ini"));
        FAIL() << "bind accepted a missing trace";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.origin(), "bind.ini");
        EXPECT_EQ(e.line(), 2) << e.what();
        EXPECT_NE(e.message().find("/nonexistent/impsim.imptrace"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceBinding, CoreCountMismatchNamesBothCounts)
{
    WorkloadParams params;
    params.numCores = 4;
    params.scale = 0.05;
    Workload w = makeWorkload(AppId::Spmv, params);
    TempTrace file("cores");
    recordTrace(file.path(), w.traces, *w.mem);

    try {
        bindExperiment(ConfigFile::parseString(
            "[system]\napp = \"trace:" + file.path() +
                "\"\ncores = 16\n",
            "bind.ini"));
        FAIL() << "bind accepted a core-count mismatch";
    } catch (const ConfigError &e) {
        EXPECT_NE(e.message().find("recorded for 4 cores"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(e.message().find("16"), std::string::npos) << e.what();
    }
}

TEST(TraceBinding, CorruptHeaderFailsAtBindTime)
{
    TempTrace file("badmagic");
    std::ofstream out(file.path(), std::ios::binary);
    out << "NOT A TRACE FILE AT ALL.........................";
    out.close();
    EXPECT_THROW(bindExperiment(ConfigFile::parseString(
                     "[system]\napp = \"trace:" + file.path() +
                         "\"\ncores = 4\n",
                     "bind.ini")),
                 ConfigError);
}

TEST(TraceBinding, EmptyTraceSpecAndUnknownAppStayDiagnosed)
{
    EXPECT_THROW(bindExperiment(ConfigFile::parseString(
                     "[system]\napp = \"trace:\"\ncores = 4\n",
                     "bind.ini")),
                 ConfigError);
    EXPECT_THROW(bindExperiment(ConfigFile::parseString(
                     "[system]\napp = nosuchapp\ncores = 4\n",
                     "bind.ini")),
                 ConfigError);
}

TEST(TraceBinding, NulByteInTracePathIsDiagnosed)
{
    // The OS would open only the part before the NUL; found by
    // ConfigFuzz as a diagnostic whose message was empty.
    const std::string text = std::string("[system]\napp = \"trace:") +
                             '\0' + "x.imptrace\"\ncores = 4\n";
    try {
        bindExperiment(ConfigFile::parseString(text, "bind.ini"));
        FAIL() << "bind accepted a NUL in a trace path";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.line(), 2) << e.what();
        EXPECT_EQ(e.message(), "trace path contains a NUL byte");
    }
}

TEST(TraceBinding, TraceRunsAreLabelledByBasename)
{
    WorkloadParams params;
    params.numCores = 4;
    params.scale = 0.05;
    Workload w = makeWorkload(AppId::Spmv, params);
    TempTrace file("label");
    recordTrace(file.path(), w.traces, *w.mem);

    Experiment exp = bindExperiment(ConfigFile::parseString(
        "[system]\npreset = IMP\napp = \"trace:" + file.path() +
            "\"\ncores = 4\n",
        "bind.ini"));
    ASSERT_EQ(exp.runs.size(), 1u);
    const std::string &label = exp.runs[0].label;
    // Basename only: a CSV produced here must not embed /tmp paths.
    EXPECT_EQ(label.find("/tmp"), std::string::npos) << label;
    EXPECT_EQ(label.rfind("trace:impsim_replay_label_", 0), 0u) << label;
    EXPECT_EQ(exp.runs[0].app, AppId::Trace);
    EXPECT_EQ(exp.runs[0].tracePath, file.path());
}

} // namespace
} // namespace impsim
