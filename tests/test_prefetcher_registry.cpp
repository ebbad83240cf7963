/**
 * @file
 * Prefetcher factory: name list, error reporting, `+`-composition,
 * blank-segment handling, host decoupling (every engine builds against
 * a FakeHost), spec precedence per level, per-core heterogeneous
 * systems, and the docs' engine lists.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "common/config_file.hpp"
#include "core/composite_prefetcher.hpp"
#include "core/ghb.hpp"
#include "core/imp.hpp"
#include "core/prefetcher_registry.hpp"
#include "core/stream_prefetcher.hpp"
#include "fake_host.hpp"
#include "sim/presets.hpp"
#include "sim/system.hpp"
#include "workloads/workload.hpp"

namespace impsim {
namespace {

SystemConfig
testConfig()
{
    SystemConfig cfg;
    cfg.numCores = 4;
    return cfg;
}

std::unique_ptr<Prefetcher>
make(const std::string &spec, PrefetchHost &host)
{
    static const SystemConfig cfg = testConfig();
    return makePrefetcher(spec, host, cfg, AttachLevel::L1);
}

TEST(Registry, KnowsEveryBuiltin)
{
    std::vector<std::string> names = prefetcherNames();
    EXPECT_EQ(names,
              (std::vector<std::string>{"ghb", "imp", "none", "stream"}));
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()))
        << "diagnostics list the names in this order";
}

TEST(Registry, UnknownNameDiesListingKnownNames)
{
    FakeHost host;
    EXPECT_EXIT(make("bogus", host), ::testing::ExitedWithCode(1),
                "unknown prefetcher 'bogus' in spec 'bogus'; known "
                "prefetchers: ghb imp none stream");
}

TEST(Registry, UnknownComponentInsideSpecDies)
{
    FakeHost host;
    EXPECT_EXIT(make("stream+bogus", host), ::testing::ExitedWithCode(1),
                "unknown prefetcher 'bogus' in spec 'stream\\+bogus'");
}

TEST(Registry, PerfectIsNotAnEngineAtBindTime)
{
    // The PerfPref preset idealises memory (perfectMemory); there is
    // no "perfect" prefetch engine, so the binder refuses the name
    // and lists the real ones.
    CliOverrides cli;
    ASSERT_EQ(addOverride(cli, "l1", "perfect"), "");
    try {
        bindExperiment(ConfigFile::parseString("[system]\ncores = 4\n"),
                       cli);
        FAIL() << "expected a ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unknown prefetcher 'perfect' in spec 'perfect' "
                      "(known: ghb, imp, none, stream)"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Registry, SplitSpecTrimsAndSplits)
{
    EXPECT_EQ(splitPrefetcherSpec("imp"),
              (std::vector<std::string>{"imp"}));
    EXPECT_EQ(splitPrefetcherSpec("stream+ghb"),
              (std::vector<std::string>{"stream", "ghb"}));
    EXPECT_EQ(splitPrefetcherSpec(" stream + ghb "),
              (std::vector<std::string>{"stream", "ghb"}));
    EXPECT_EQ(splitPrefetcherSpec("stream+"),
              (std::vector<std::string>{"stream", ""}));
    EXPECT_EQ(splitPrefetcherSpec(""),
              (std::vector<std::string>{""}));
}

TEST(Registry, BlankSegmentsBuildNoEngineInsteadOfDying)
{
    // Regression: "stream+", " + " and "" used to die with the
    // confusing fatal "unknown prefetcher ''".
    FakeHost host;
    auto pf = make("stream+", host);
    EXPECT_NE(dynamic_cast<StreamPrefetcher *>(pf.get()), nullptr);
    EXPECT_EQ(dynamic_cast<CompositePrefetcher *>(pf.get()), nullptr);

    EXPECT_EQ(make(" + ", host), nullptr);
    EXPECT_EQ(make("", host), nullptr);
}

TEST(Registry, EveryBuiltinConstructsAgainstAFakeHost)
{
    FakeHost host;
    SystemConfig cfg = testConfig();
    for (AttachLevel level : {AttachLevel::L1, AttachLevel::L2}) {
        EXPECT_EQ(makePrefetcher("none", host, cfg, level), nullptr);
        EXPECT_NE(dynamic_cast<StreamPrefetcher *>(
                      makePrefetcher("stream", host, cfg, level).get()),
                  nullptr);
        EXPECT_NE(dynamic_cast<ImpPrefetcher *>(
                      makePrefetcher("imp", host, cfg, level).get()),
                  nullptr);
        EXPECT_NE(dynamic_cast<GhbPrefetcher *>(
                      makePrefetcher("ghb", host, cfg, level).get()),
                  nullptr);
    }
}

TEST(Registry, NoneComponentsAreDroppedFromStacks)
{
    FakeHost host;
    // A stack whose only survivor is stream comes back bare.
    auto pf = make("none+stream", host);
    EXPECT_NE(dynamic_cast<StreamPrefetcher *>(pf.get()), nullptr);
    EXPECT_EQ(dynamic_cast<CompositePrefetcher *>(pf.get()), nullptr);

    EXPECT_EQ(make("none+none", host), nullptr);
}

/** Appends its tag to a shared log on every hook (order probe). */
class RecordingPrefetcher final : public Prefetcher
{
  public:
    RecordingPrefetcher(std::vector<std::string> &log, std::string tag)
        : log_(log), tag_(std::move(tag))
    {}

    void onAccess(const AccessInfo &) override { log_.push_back(tag_); }

  private:
    std::vector<std::string> &log_;
    std::string tag_;
};

TEST(Registry, CompositionPreservesSpecOrder)
{
    std::vector<std::string> log;
    std::vector<std::unique_ptr<Prefetcher>> children;
    children.push_back(std::make_unique<RecordingPrefetcher>(log, "b"));
    children.push_back(std::make_unique<RecordingPrefetcher>(log, "a"));
    CompositePrefetcher composite(std::move(children));
    composite.onAccess(AccessInfo{});
    EXPECT_EQ(log, (std::vector<std::string>{"b", "a"}));

    FakeHost host;
    for (const char *spec : {"ghb+stream", "stream+ghb"}) {
        auto pf = make(spec, host);
        auto *stack = dynamic_cast<CompositePrefetcher *>(pf.get());
        ASSERT_NE(stack, nullptr) << spec;
        ASSERT_EQ(stack->childCount(), 2u);
        bool ghb_first = spec[0] == 'g';
        Prefetcher &ghb = stack->child(ghb_first ? 0 : 1);
        Prefetcher &stream = stack->child(ghb_first ? 1 : 0);
        EXPECT_NE(dynamic_cast<GhbPrefetcher *>(&ghb), nullptr) << spec;
        EXPECT_NE(dynamic_cast<StreamPrefetcher *>(&stream), nullptr)
            << spec;
    }
}

/** The backquoted names on @p file's "Built-in engines:" line, sorted. */
std::vector<std::string>
documentedEngines(const std::string &file)
{
    std::ifstream in(std::string(IMPSIM_SOURCE_DIR) + "/" + file);
    EXPECT_TRUE(in) << file;
    std::vector<std::string> names;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Built-in engines:", 0) != 0)
            continue;
        EXPECT_TRUE(names.empty()) << file << " lists the engines twice";
        std::size_t open = line.find('`');
        while (open != std::string::npos) {
            std::size_t close = line.find('`', open + 1);
            names.push_back(line.substr(open + 1, close - open - 1));
            open = line.find('`', close + 1);
        }
    }
    std::sort(names.begin(), names.end());
    return names;
}

TEST(Registry, DocsListEveryBuiltinEngine)
{
    for (const char *file : {"docs/prefetcher_specs.md", "README.md"})
        EXPECT_EQ(documentedEngines(file), prefetcherNames()) << file;
}

TEST(Registry, EffectiveSpecPrecedence)
{
    SystemConfig cfg = testConfig();
    EXPECT_EQ(cfg.effectivePrefetcherSpec(0), "stream")
        << "the paper's Baseline engine is the default";

    cfg.prefetcherSpec = "imp";
    EXPECT_EQ(cfg.effectivePrefetcherSpec(0), "imp");

    cfg.corePrefetcherSpecs = {"", "stream"};
    EXPECT_EQ(cfg.effectivePrefetcherSpec(0), "imp")
        << "empty per-core entry falls through";
    EXPECT_EQ(cfg.effectivePrefetcherSpec(1), "stream");
    EXPECT_EQ(cfg.effectivePrefetcherSpec(2), "imp")
        << "cores past the vector use the global spec";
}

TEST(Registry, EffectiveL2SpecPrecedence)
{
    SystemConfig cfg = testConfig();
    EXPECT_EQ(cfg.effectiveL2PrefetcherSpec(0), "none")
        << "the L2 is unprefetched by default";

    cfg.l2PrefetcherSpec = "imp";
    cfg.l2SlicePrefetcherSpecs = {"", "stream"};
    EXPECT_EQ(cfg.effectiveL2PrefetcherSpec(0), "imp")
        << "empty per-slice entry falls through";
    EXPECT_EQ(cfg.effectiveL2PrefetcherSpec(1), "stream");
    EXPECT_EQ(cfg.effectiveL2PrefetcherSpec(2), "imp")
        << "tiles past the vector use the global L2 spec";
}

TEST(Registry, HeterogeneousPerCoreSystemRuns)
{
    WorkloadParams wp;
    wp.numCores = 4;
    wp.scale = 0.05;
    Workload w = makeWorkload(AppId::Spmv, wp);

    SystemConfig cfg = makePreset(ConfigPreset::Baseline, 4);
    cfg.corePrefetcherSpecs = {"imp", "stream", "none", "stream+ghb"};

    System sys(cfg, w.traces, *w.mem);
    SimStats s = sys.run();
    EXPECT_GT(s.cycles, 0u);

    EXPECT_NE(dynamic_cast<ImpPrefetcher *>(
                  sys.hierarchy().l1(0).prefetcher()),
              nullptr);
    EXPECT_NE(dynamic_cast<StreamPrefetcher *>(
                  sys.hierarchy().l1(1).prefetcher()),
              nullptr);
    EXPECT_EQ(sys.hierarchy().l1(2).prefetcher(), nullptr);
    EXPECT_NE(dynamic_cast<CompositePrefetcher *>(
                  sys.hierarchy().l1(3).prefetcher()),
              nullptr);
}

TEST(Registry, PresetSpecMatchesExplicitSpecExactly)
{
    WorkloadParams wp;
    wp.numCores = 4;
    wp.scale = 0.05;
    Workload w = makeWorkload(AppId::Pagerank, wp);

    SystemConfig preset = makePreset(ConfigPreset::Ghb, 4);
    System preset_sys(preset, w.traces, *w.mem);
    SimStats a = preset_sys.run();

    SystemConfig spec = makePreset(ConfigPreset::NoPrefetch, 4);
    spec.prefetcherSpec = "stream+ghb";
    System spec_sys(spec, w.traces, *w.mem);
    SimStats b = spec_sys.run();

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1.hits, b.l1.hits);
    EXPECT_EQ(a.l1.misses, b.l1.misses);
    EXPECT_EQ(a.l1.prefIssued, b.l1.prefIssued);
}

} // namespace
} // namespace impsim
