/**
 * @file
 * Config files: parse round-trips for every section, diagnostics with
 * line numbers instead of crashes, sweep expansion, and CLI-vs-config
 * equivalence (docs/config_format.md is the format reference).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>

#include "common/config_file.hpp"
#include "sim/presets.hpp"

namespace impsim {
namespace {

Experiment
bind(const std::string &text, const CliOverrides &cli = {})
{
    return bindExperiment(ConfigFile::parseString(text), cli);
}

/** Parses + binds @p text expecting a ConfigError, which is returned. */
ConfigError
bindError(const std::string &text, const CliOverrides &cli = {})
{
    try {
        bindExperiment(ConfigFile::parseString(text), cli);
    } catch (const ConfigError &e) {
        return e;
    }
    [] { FAIL() << "expected a ConfigError"; }();
    throw std::logic_error("unreachable");
}

// ---- Parser -----------------------------------------------------------

TEST(ConfigParse, ValueKindsAndComments)
{
    ConfigFile f = ConfigFile::parseString("# leading comment\n"
                                           "[system]\n"
                                           "app = spmv   ; trailing\n"
                                           "cores = 16\n"
                                           "scale = 0.5\n"
                                           "\n"
                                           "[imp]\n"
                                           "pc_resync = false\n"
                                           "shifts = [2, 3, 4, -3]\n"
                                           "[prefetch]\n"
                                           "l1 = \"imp+stream\"\n");
    ASSERT_EQ(f.sections().size(), 3u);
    const ConfigSection *sys = f.find("system");
    ASSERT_NE(sys, nullptr);
    ASSERT_NE(sys->find("app"), nullptr);
    EXPECT_EQ(sys->find("app")->kind, ConfigValue::Kind::String);
    EXPECT_EQ(sys->find("app")->text, "spmv"); // comment stripped
    EXPECT_EQ(sys->find("cores")->kind, ConfigValue::Kind::Int);
    EXPECT_EQ(sys->find("cores")->integer, 16);
    EXPECT_EQ(sys->find("cores")->line, 4);
    EXPECT_EQ(sys->find("scale")->kind, ConfigValue::Kind::Float);
    EXPECT_DOUBLE_EQ(sys->find("scale")->real, 0.5);
    const ConfigSection *imp = f.find("imp");
    ASSERT_NE(imp, nullptr);
    EXPECT_EQ(imp->find("pc_resync")->kind, ConfigValue::Kind::Bool);
    EXPECT_FALSE(imp->find("pc_resync")->boolean);
    const ConfigValue *shifts = imp->find("shifts");
    ASSERT_NE(shifts, nullptr);
    ASSERT_EQ(shifts->kind, ConfigValue::Kind::List);
    ASSERT_EQ(shifts->items.size(), 4u);
    EXPECT_EQ(shifts->items[3].integer, -3);
    EXPECT_EQ(f.find("prefetch")->find("l1")->text, "imp+stream");
}

TEST(ConfigParse, SyntaxErrorsCarryLineNumbers)
{
    struct Case
    {
        const char *text;
        int line;
    };
    const Case cases[] = {
        {"key_before_section = 1\n", 1},
        {"[system\n", 1},
        {"[system]\nno_equals\n", 2},
        {"[system]\ncores =\n", 2},
        {"[system]\ncores = 4\ncores = 16\n", 3},
        {"[system]\n[system]\n", 2},
        {"[prefetch]\nl1 = \"imp\ncores = 4\n", 2},
        {"[imp]\nshifts = [2, 3\n", 2},
        {"[system]\ncores = 4 extra\n", 2},
        {"[system]\ncores = 99999999999999999999\n", 2},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.text);
        try {
            ConfigFile::parseString(c.text);
            FAIL() << "expected a ConfigError";
        } catch (const ConfigError &e) {
            EXPECT_EQ(e.line(), c.line);
            EXPECT_EQ(e.origin(), "<string>");
        }
    }
}

TEST(ConfigParse, FileRoundTripAndMissingFile)
{
    const std::string path = "test_config_file_roundtrip.imp.ini";
    {
        std::ofstream out(path);
        out << "[system]\napp = lsh\ncores = 4\n";
    }
    ConfigFile f = ConfigFile::parseFile(path);
    EXPECT_EQ(f.origin(), path);
    EXPECT_EQ(f.find("system")->find("app")->text, "lsh");
    std::remove(path.c_str());

    try {
        ConfigFile::parseFile("does_not_exist.imp.ini");
        FAIL() << "expected a ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("does_not_exist"),
                  std::string::npos);
    }
}

// ---- Binding every section --------------------------------------------

TEST(ConfigBind, EverySectionRoundTrips)
{
    Experiment exp = bind("[system]\n"
                          "preset     = IMP\n"
                          "app        = graph500\n"
                          "cores      = 16\n"
                          "scale      = 0.25\n"
                          "seed       = 7\n"
                          "core_model = ooo\n"
                          "dram_model = ddr3\n"
                          "partial    = noc+dram\n"
                          "[imp]\n"
                          "pt_entries            = 32\n"
                          "ipd_entries           = 8\n"
                          "base_addr_slots       = 2\n"
                          "shifts                = [1, 2, 3, -4]\n"
                          "max_prefetch_distance = 24\n"
                          "max_indirect_ways     = 3\n"
                          "max_indirect_levels   = 1\n"
                          "stream_threshold      = 4\n"
                          "indirect_threshold    = 3\n"
                          "indirect_counter_max  = 16\n"
                          "backoff_initial       = 8\n"
                          "backoff_max           = 128\n"
                          "pc_resync             = false\n"
                          "secondary_indirection = false\n"
                          "[gp]\n"
                          "samples         = 8\n"
                          "l1_sector_bytes = 16\n"
                          "l2_sector_bytes = 64\n"
                          "dram_min_bytes  = 64\n"
                          "[stream]\n"
                          "degree              = 6\n"
                          "max_stride_bytes    = 16\n"
                          "l2_degree           = 2\n"
                          "l2_max_stride_bytes = 128\n"
                          "[ghb]\n"
                          "history_entries = 512\n"
                          "index_entries   = 128\n"
                          "degree          = 4\n"
                          "[prefetch]\n"
                          "l1        = \"imp+stream\"\n"
                          "l2        = stream\n"
                          "core.1    = stream+ghb\n"
                          "l2slice.0 = imp\n");
    ASSERT_EQ(exp.runs.size(), 1u);
    const ExperimentRun &r = exp.runs[0];
    EXPECT_EQ(r.label, "graph500/IMP/16c/ooo");
    EXPECT_EQ(r.app, AppId::Graph500);
    EXPECT_DOUBLE_EQ(r.scale, 0.25);
    EXPECT_EQ(r.seed, 7u);
    EXPECT_FALSE(r.swPrefetch);

    const SystemConfig &cfg = r.cfg;
    EXPECT_EQ(cfg.numCores, 16u);
    EXPECT_EQ(cfg.coreModel, CoreModel::OutOfOrder);
    EXPECT_EQ(cfg.dramModel, DramModelKind::Ddr3);
    EXPECT_EQ(cfg.partial, PartialMode::NocAndDram);

    EXPECT_EQ(cfg.imp.ptEntries, 32u);
    EXPECT_EQ(cfg.imp.ipdEntries, 8u);
    EXPECT_EQ(cfg.imp.baseAddrSlots, 2u);
    EXPECT_EQ(cfg.imp.shifts[0], 1);
    EXPECT_EQ(cfg.imp.shifts[3], -4);
    EXPECT_EQ(cfg.imp.maxPrefetchDistance, 24u);
    EXPECT_EQ(cfg.imp.maxIndirectWays, 3u);
    EXPECT_EQ(cfg.imp.maxIndirectLevels, 1u);
    EXPECT_EQ(cfg.imp.streamThreshold, 4u);
    EXPECT_EQ(cfg.imp.indirectThreshold, 3u);
    EXPECT_EQ(cfg.imp.indirectCounterMax, 16u);
    EXPECT_EQ(cfg.imp.backoffInitial, 8u);
    EXPECT_EQ(cfg.imp.backoffMax, 128u);
    EXPECT_FALSE(cfg.imp.pcResync);
    EXPECT_FALSE(cfg.imp.secondaryIndirection);

    EXPECT_EQ(cfg.gp.samples, 8u);
    EXPECT_EQ(cfg.gp.l1SectorBytes, 16u);
    EXPECT_EQ(cfg.gp.l2SectorBytes, 64u);
    EXPECT_EQ(cfg.gp.dramMinBytes, 64u);

    EXPECT_EQ(cfg.stream.prefetchDegree, 6u);
    EXPECT_EQ(cfg.stream.maxStrideBytes, 16u);
    EXPECT_EQ(cfg.l2Stream.prefetchDegree, 2u);
    EXPECT_EQ(cfg.l2Stream.maxStrideBytes, 128u);

    EXPECT_EQ(cfg.ghb.historyEntries, 512u);
    EXPECT_EQ(cfg.ghb.indexEntries, 128u);
    EXPECT_EQ(cfg.ghb.degree, 4u);

    EXPECT_EQ(cfg.prefetcherSpec, "imp+stream");
    EXPECT_EQ(cfg.l2PrefetcherSpec, "stream");
    EXPECT_EQ(cfg.effectivePrefetcherSpec(1), "stream+ghb");
    EXPECT_EQ(cfg.effectivePrefetcherSpec(0), "imp+stream");
    EXPECT_EQ(cfg.effectiveL2PrefetcherSpec(0), "imp");
    cfg.validate(); // bound configs must be runnable
}

TEST(ConfigBind, DefaultsWithoutPresetMatchSystemConfig)
{
    Experiment exp = bind("[system]\ncores = 4\n");
    ASSERT_EQ(exp.runs.size(), 1u);
    const ExperimentRun &r = exp.runs[0];
    EXPECT_EQ(r.label, "spmv/custom/4c");
    EXPECT_EQ(r.app, AppId::Spmv);
    SystemConfig def;
    EXPECT_EQ(r.cfg.prefetcherSpec, def.prefetcherSpec);
    EXPECT_EQ(r.cfg.l2PrefetcherSpec, def.l2PrefetcherSpec);
    EXPECT_EQ(r.cfg.imp.ptEntries, def.imp.ptEntries);
}

TEST(ConfigBind, PresetDefaultsThenFileOverrides)
{
    // File keys override the preset base (here: IMP's partial mode
    // stays, the PT size changes).
    Experiment exp = bind("[system]\n"
                          "preset = Partial-NoC\n"
                          "cores  = 4\n"
                          "[imp]\n"
                          "pt_entries = 8\n");
    const SystemConfig &cfg = exp.runs.at(0).cfg;
    EXPECT_EQ(cfg.prefetcherSpec, "imp");
    EXPECT_EQ(cfg.partial, PartialMode::NocOnly);
    EXPECT_EQ(cfg.imp.ptEntries, 8u);
    EXPECT_TRUE(exp.runs[0].swPrefetch == false);

    Experiment sw = bind("[system]\npreset = SWPref\ncores = 4\n");
    EXPECT_TRUE(sw.runs.at(0).swPrefetch);
}

// ---- Diagnostics (errors, not crashes) --------------------------------

TEST(ConfigBind, UnknownSectionKeyAndTypeErrorsCiteLines)
{
    ConfigError sec = bindError("[system]\ncores = 4\n[frobnicate]\n");
    EXPECT_EQ(sec.line(), 3);
    EXPECT_NE(sec.message().find("unknown section"), std::string::npos);

    ConfigError key = bindError("[imp]\npt_size = 8\n");
    EXPECT_EQ(key.line(), 2);
    EXPECT_NE(key.message().find("unknown key 'pt_size'"),
              std::string::npos);

    ConfigError type = bindError("[imp]\npt_entries = lots\n");
    EXPECT_EQ(type.line(), 2);
    EXPECT_NE(type.message().find("needs an int"), std::string::npos);

    ConfigError b = bindError("[imp]\npc_resync = 1\n");
    EXPECT_EQ(b.line(), 2);
    EXPECT_NE(b.message().find("true or false"), std::string::npos);
}

TEST(ConfigBind, DomainErrorsCiteLines)
{
    EXPECT_EQ(bindError("[system]\ncores = 12\n").line(), 2);
    EXPECT_NE(bindError("[system]\ncores = 12\n")
                  .message()
                  .find("perfect square"),
              std::string::npos);
    EXPECT_EQ(bindError("[system]\napp = doom\n").line(), 2);
    EXPECT_EQ(bindError("[system]\npreset = Fast\n").line(), 2);
    EXPECT_EQ(bindError("[system]\ncore_model = vliw\n").line(), 2);
    EXPECT_EQ(bindError("[system]\ndram_model = hbm\n").line(), 2);
    EXPECT_EQ(bindError("[system]\npartial = maybe\n").line(), 2);
    EXPECT_EQ(bindError("[system]\nscale = -1.0\n").line(), 2);
    EXPECT_EQ(bindError("[system]\nscale = nan\n").line(), 2);
    EXPECT_EQ(bindError("[system]\nscale = 2048\n").line(), 2);
    EXPECT_NE(bindError("[system]\nscale = 2048\n")
                  .message()
                  .find("must be at most 1024, got 2048"),
              std::string::npos);
    EXPECT_EQ(bindError("[system]\nseed = -4\n").line(), 2);
    EXPECT_EQ(bindError("[imp]\npt_entries = 0\n").line(), 2);
    EXPECT_EQ(bindError("[imp]\nshifts = [2, 3]\n").line(), 2);
    EXPECT_EQ(bindError("[imp]\nshifts = [2, 3, 4, 99]\n").line(), 2);
    EXPECT_EQ(bindError("[gp]\nl1_sector_bytes = 24\n").line(), 2);
    EXPECT_EQ(bindError("[prefetch]\nl1 = warp\n").line(), 2);
    EXPECT_NE(bindError("[prefetch]\nl1 = warp\n")
                  .message()
                  .find("unknown prefetcher"),
              std::string::npos);
    ConfigError range =
        bindError("[system]\ncores = 4\n[prefetch]\ncore.4 = imp\n");
    EXPECT_EQ(range.line(), 4);
    EXPECT_NE(range.message().find("out of range"), std::string::npos);
}

TEST(ConfigBind, SweepErrorsCiteLines)
{
    EXPECT_EQ(bindError("[sweep]\nwarp = [1, 2]\n").line(), 2);
    EXPECT_NE(bindError("[sweep]\nwarp = [1, 2]\n")
                  .message()
                  .find("unknown sweep axis"),
              std::string::npos);
    EXPECT_EQ(bindError("[sweep]\npt = 8\n").line(), 2);
    EXPECT_EQ(bindError("[sweep]\npt = []\n").line(), 2);
    // The same knob twice, once bare and once dotted.
    EXPECT_EQ(
        bindError("[sweep]\npt = [8]\nimp.pt_entries = [16]\n").line(), 3);
    // Axis values are type-checked like scalars.
    EXPECT_EQ(bindError("[sweep]\npt = [8, big]\n").line(), 2);
}

// ---- Sweep expansion --------------------------------------------------

TEST(ConfigSweep, ExpandsCartesianProductFirstAxisSlowest)
{
    Experiment exp = bind("[system]\n"
                          "app   = spmv\n"
                          "cores = 4\n"
                          "[sweep]\n"
                          "preset = [Base, IMP]\n"
                          "pt     = [8, 16, 32]\n");
    ASSERT_EQ(exp.runs.size(), 6u);
    EXPECT_EQ(exp.runs[0].label, "spmv/Base/4c/pt=8");
    EXPECT_EQ(exp.runs[1].label, "spmv/Base/4c/pt=16");
    EXPECT_EQ(exp.runs[2].label, "spmv/Base/4c/pt=32");
    EXPECT_EQ(exp.runs[3].label, "spmv/IMP/4c/pt=8");
    EXPECT_EQ(exp.runs[5].label, "spmv/IMP/4c/pt=32");
    EXPECT_EQ(exp.runs[3].cfg.imp.ptEntries, 8u);
    EXPECT_EQ(exp.runs[5].cfg.imp.ptEntries, 32u);
    EXPECT_EQ(exp.runs[0].cfg.prefetcherSpec, "stream");
    EXPECT_EQ(exp.runs[3].cfg.prefetcherSpec, "imp");
}

TEST(ConfigSweep, PresetAxisMatchesCliPresetListLabels)
{
    // A single-axis preset sweep must label rows exactly like the
    // CLI's --preset list, so the two modes produce identical CSV.
    Experiment exp = bind("[system]\napp = spmv\ncores = 16\n"
                          "[sweep]\npreset = [PerfPref, Base, IMP]\n");
    ASSERT_EQ(exp.runs.size(), 3u);
    EXPECT_EQ(exp.runs[0].label, "spmv/PerfPref/16c");
    EXPECT_EQ(exp.runs[1].label, "spmv/Base/16c");
    EXPECT_EQ(exp.runs[2].label, "spmv/IMP/16c");
}

TEST(ConfigSweep, DottedAxesAndAppAxis)
{
    Experiment exp = bind("[system]\ncores = 4\npreset = IMP\n"
                          "[sweep]\n"
                          "app = [spmv, lsh]\n"
                          "imp.max_indirect_ways = [1, 2]\n");
    ASSERT_EQ(exp.runs.size(), 4u);
    EXPECT_EQ(exp.runs[0].app, AppId::Spmv);
    EXPECT_EQ(exp.runs[3].app, AppId::Lsh);
    EXPECT_EQ(exp.runs[0].label, "spmv/IMP/4c/imp.max_indirect_ways=1");
    EXPECT_EQ(exp.runs[3].cfg.imp.maxIndirectWays, 2u);
}

// ---- CLI overrides ----------------------------------------------------

TEST(ConfigCli, FlagsOverrideFileAndCollapseAxes)
{
    CliOverrides cli;
    cli.settings = {"app=lsh", "cores=16", "pt=64"};
    Experiment exp = bind("[system]\napp = spmv\ncores = 4\n"
                          "[sweep]\npt = [8, 16, 32]\npreset = [Base, IMP]\n",
                          cli);
    // The pt axis collapsed; the preset axis survived.
    ASSERT_EQ(exp.runs.size(), 2u);
    EXPECT_EQ(exp.runs[0].label, "lsh/Base/16c");
    EXPECT_EQ(exp.runs[1].label, "lsh/IMP/16c");
    for (const ExperimentRun &r : exp.runs) {
        EXPECT_EQ(r.app, AppId::Lsh);
        EXPECT_EQ(r.cfg.numCores, 16u);
        EXPECT_EQ(r.cfg.imp.ptEntries, 64u);
    }
}

TEST(ConfigCli, EquivalentFlagsAndFileProduceTheSameConfig)
{
    // Flag path: what `--preset IMP --cores 16 --ooo --pt 32
    // --prefetcher stream+ghb` builds in the CLI.
    SystemConfig flags = makePreset(ConfigPreset::Imp, 16,
                                    CoreModel::OutOfOrder);
    flags.imp.ptEntries = 32;
    flags.prefetcherSpec = "stream+ghb";

    // Config path A: the same experiment as a file.
    Experiment file = bind("[system]\n"
                           "preset     = IMP\n"
                           "cores      = 16\n"
                           "core_model = ooo\n"
                           "[imp]\n"
                           "pt_entries = 32\n"
                           "[prefetch]\n"
                           "l1 = stream+ghb\n");
    // Config path B: an empty file plus the CLI overrides.
    CliOverrides cli;
    cli.settings = {"preset=IMP", "cores=16", "system.core_model=ooo",
                    "pt=32", "l1=stream+ghb"};
    Experiment overridden = bind("", cli);

    for (const Experiment *exp : {&file, &overridden}) {
        ASSERT_EQ(exp->runs.size(), 1u);
        const SystemConfig &cfg = exp->runs[0].cfg;
        EXPECT_EQ(cfg.numCores, flags.numCores);
        EXPECT_EQ(cfg.coreModel, flags.coreModel);
        EXPECT_EQ(cfg.imp.ptEntries, flags.imp.ptEntries);
        EXPECT_EQ(cfg.prefetcherSpec, flags.prefetcherSpec);
        EXPECT_EQ(cfg.partial, flags.partial);
        EXPECT_TRUE(cfg.corePrefetcherSpecs.empty());
    }
    // File-set engines don't tag the label; CLI overrides do, the
    // same way flag mode appends "/spec".
    EXPECT_EQ(file.runs[0].label, "spmv/IMP/16c/ooo");
    EXPECT_EQ(overridden.runs[0].label, "spmv/IMP/16c/ooo/stream+ghb");
}

TEST(ConfigCli, CommaListAssignsStacksRoundRobin)
{
    CliOverrides cli;
    cli.settings = {"cores=4", "l1=imp,stream"};
    Experiment exp = bind("[prefetch]\ncore.0 = ghb\n", cli);
    const SystemConfig &cfg = exp.runs.at(0).cfg;
    // The CLI list replaces the file's per-core assignment wholesale.
    ASSERT_EQ(cfg.corePrefetcherSpecs.size(), 4u);
    EXPECT_EQ(cfg.corePrefetcherSpecs[0], "imp");
    EXPECT_EQ(cfg.corePrefetcherSpecs[1], "stream");
    EXPECT_EQ(cfg.corePrefetcherSpecs[2], "imp");

    cli.settings = {"cores=4", "l1=imp,"};
    EXPECT_THROW(bind("", cli), ConfigError);
}

TEST(ConfigCli, RepeatedOverrideLastWinsAndNamesResolveLikeAxes)
{
    // A repeated flag keeps its last value, and only that one is
    // checked; a dotted name reaches the same key as its short name;
    // a structural override also spares the file's value the check.
    CliOverrides cli;
    cli.settings = {"pt=0", "imp.pt_entries=24", "cores=15", "cores=4"};
    Experiment exp =
        bind("[system]\ncores = 12\n[sweep]\npt = [8, 16]\n", cli);
    ASSERT_EQ(exp.runs.size(), 1u);
    EXPECT_EQ(exp.runs[0].cfg.imp.ptEntries, 24u);
    EXPECT_EQ(exp.runs[0].cfg.numCores, 4u);

    // Only keys an impsim_cli flag overrides take overrides.
    for (const char *bad : {"warp=1", "tlb.enable=true", "page=4096"}) {
        cli.settings = {bad};
        ConfigError e = bindError("", cli);
        EXPECT_EQ(e.origin(), "<command line>");
        EXPECT_NE(e.message().find("names no overridable key"),
                  std::string::npos)
            << e.message();
    }
}

// ---- The key table against docs/config_format.md ----------------------

namespace {

/** The backquoted text of each "| `...` |" cell of a markdown row. */
std::vector<std::string>
codeCells(const std::string &row)
{
    std::vector<std::string> cells;
    std::size_t bar = row.find('|');
    while (bar != std::string::npos) {
        std::size_t next = row.find('|', bar + 1);
        if (next == std::string::npos)
            break;
        std::string cell = row.substr(bar + 1, next - bar - 1);
        std::size_t open = cell.find('`');
        std::size_t close = cell.find('`', open + 1);
        if (open != std::string::npos && close != std::string::npos)
            cells.push_back(cell.substr(open + 1, close - open - 1));
        bar = next;
    }
    return cells;
}

} // namespace

TEST(ConfigDocs, KeyAndAliasTablesMatchTheKeyTable)
{
    std::ifstream in(std::string(IMPSIM_SOURCE_DIR) +
                     "/docs/config_format.md");
    ASSERT_TRUE(in);
    // "section.key" from each `## [section]` table's first column, and
    // alias -> "section.key" from the [sweep] alias table.
    std::set<std::string> docKeys;
    std::map<std::string, std::string> docAliases;
    std::string section, line;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0) {
            std::size_t open = line.find("`[");
            std::size_t close = line.find("]`");
            section = open != std::string::npos && close != std::string::npos
                          ? line.substr(open + 2, close - open - 2)
                          : "";
            continue;
        }
        if (section.empty() || line.rfind("| `", 0) != 0)
            continue;
        std::vector<std::string> cells = codeCells(line);
        if (section != "sweep") {
            EXPECT_TRUE(docKeys.insert(section + "." + cells.at(0)).second)
                << "documented twice: " << line;
            continue;
        }
        for (std::size_t i = 0; i + 1 < cells.size(); i += 2)
            docAliases[cells[i]] = cells[i + 1];
    }

    std::set<std::string> keys;
    std::map<std::string, std::string> aliases;
    for (const ConfigKey &k : configKeys()) {
        std::string path = std::string(k.section) + "." + k.key;
        keys.insert(path);
        if (k.alias)
            aliases[k.alias] = path;
    }
    for (const std::string &k : keys)
        EXPECT_TRUE(docKeys.count(k)) << "undocumented key " << k;
    for (const std::string &k : docKeys)
        EXPECT_TRUE(keys.count(k)) << "documented key not in the table " << k;
    EXPECT_EQ(docAliases, aliases);
    EXPECT_EQ(docKeys.size(), keys.size());
}

} // namespace
} // namespace impsim
