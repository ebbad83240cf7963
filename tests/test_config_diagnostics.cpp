/**
 * @file
 * Pins the full text of every config and binder diagnostic: a fixed,
 * machine-independent corpus of bad inputs is bound and each
 * diagnostic is compared byte for byte with
 * tests/golden/config_diagnostics.txt. Config texts bind in-process;
 * flag-mode inputs run the real impsim_cli binary, so the golden is
 * exactly what a user sees on stderr.
 *
 * Regenerating after an *intentional* diagnostic change:
 *
 *   IMPSIM_REGEN_GOLDEN=1 ./build/test_config_diagnostics
 *
 * then review and commit the tests/golden/ diff.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "common/config_file.hpp"

namespace impsim {
namespace {

/** Malformed config texts, bound with origin "<string>". */
const std::vector<std::string> &
configCorpus()
{
    static const std::vector<std::string> corpus = [] {
        std::vector<std::string> c = {
            // Syntax.
            "key_before_section = 1\n",
            "[system\n",
            "[system]\nno_equals\n",
            "[system]\ncores =\n",
            "[system]\ncores = 4\ncores = 16\n",
            "[system]\n[system]\n",
            "[prefetch]\nl1 = \"imp\ncores = 4\n",
            "[imp]\nshifts = [2, 3\n",
            "[system]\ncores = 4 extra\n",
            "[system]\ncores = 99999999999999999999\n",
            "[a b]\n",
            "[system] x\n",
            "[prefetch]\nl1 = \"a\\qb\"\n",
            "[imp]\nshifts = [1 2]\n",
            // Unknown names and value kinds.
            "[system]\ncores = 4\n[frobnicate]\n",
            "[imp]\npt_size = 8\n",
            "[prefetch]\ncore.x = imp\n",
            "[imp]\npt_entries = lots\n",
            "[imp]\npc_resync = 1\n",
            "[system]\napp = 5\n",
            "[system]\npreset = 3\n",
            "[system]\nscale = fast\n",
            "[system]\npartial = 3\n",
            // Ranges and domains.
            "[system]\ncores = 12\n",
            "[system]\ncores = 0\n",
            "[system]\ncores = 4294967296\n",
            "[system]\napp = doom\n",
            "[system]\napp = trace:\n",
            "[system]\npreset = Fast\n",
            "[system]\ncore_model = vliw\n",
            "[system]\ndram_model = hbm\n",
            "[system]\npartial = maybe\n",
            "[system]\nscale = -1.0\n",
            "[system]\nscale = nan\n",
            "[system]\nscale = inf\n",
            "[system]\nscale = 2048\n",
            "[system]\nseed = -4\n",
            "[imp]\npt_entries = 0\n",
            "[imp]\nmax_indirect_ways = -1\n",
            "[imp]\nshifts = [2, 3]\n",
            "[imp]\nshifts = [2, 3, 4, 99]\n",
            "[gp]\nl1_sector_bytes = 24\n",
            "[gp]\nl2_sector_bytes = 128\n",
            "[stream]\nl2_degree = 0\n",
            "[ghb]\ndegree = 0\n",
            "[tlb]\npage_bytes = 8192\n",
            "[tlb]\npage_bytes = -1\n",
            "[tlb]\nprefetch_cross = drop\n",
            "[prefetch]\nl1 = warp\n",
            "[prefetch]\nl2 = imp+warp\n",
            "[system]\ncores = 4\n[prefetch]\ncore.4 = imp\n",
            "[system]\ncores = 4\n[prefetch]\nl2slice.9 = imp\n",
            // Trace app specs: probed at bind time.
            "[system]\napp = \"trace:/nonexistent/run.imptrace\"\n",
            "[system]\ncores = 4\n"
            "[sweep]\napp = [spmv, \"trace:/nonexistent/run.imptrace.xz\"]\n",
            "[system]\ncores = 16\napp = \"trace:" IMPSIM_SOURCE_DIR
            "/tests/traces/lsh_4c_s002.imptrace.xz\"\n",
            // Sweep axes.
            "[sweep]\nwarp = [1, 2]\n",
            "[sweep]\nimp.warp = [1, 2]\n",
            "[sweep]\npt = 8\n",
            "[sweep]\npt = []\n",
            "[sweep]\npt = [8]\nimp.pt_entries = [16]\n",
            "[sweep]\npt = [8, big]\n",
            "[system]\ncores = 4\n[sweep]\ncores = [4, 15]\n",
            "[sweep]\nscale = [0.5, 0]\n",
            "[system]\ncores = 4\n"
            "[sweep]\nsystem.core_model = [inorder, vliw]\n",
        };
        // 300 x 300 combinations: past the expansion cap.
        std::string big = "[";
        for (int i = 1; i <= 300; ++i)
            big += std::to_string(i) + (i < 300 ? ", " : "]");
        c.push_back("[sweep]\npt = " + big + "\nipd = " + big + "\n");
        return c;
    }();
    return corpus;
}

/** impsim_cli flag-mode argument lists that fail at bind time. */
const std::vector<std::string> &
flagCorpus()
{
    static const std::vector<std::string> corpus = {
        "--app doom",
        "--app=",
        "--app trace:/nonexistent/run.imptrace",
        "--preset Fast",
        "--preset IMP,Fast",
        "--ooo --preset Bogus",
        "--cores 15",
        "--cores 0",
        "--scale -1",
        "--scale 0",
        "--scale nan",
        "--scale inf",
        "--scale 9000",
        "--scale 200000",
        "--cores x",
        "--pt 4294967296",
        "--pt 0",
        "--ipd 0",
        "--distance 0",
        "--prefetcher=imp+bogus",
        "--prefetcher imp,",
        "--l2-prefetcher ,stream",
        // Overrides on a config file: the same binder, same origin.
        "--config " IMPSIM_SOURCE_DIR
        "/examples/configs/smoke.imp.ini --check --cores 15",
        "--config " IMPSIM_SOURCE_DIR
        "/examples/configs/smoke.imp.ini --check --pt 0",
        "--config " IMPSIM_SOURCE_DIR
        "/examples/configs/smoke.imp.ini --check --prefetcher imp,",
        "--config " IMPSIM_SOURCE_DIR
        "/examples/configs/smoke.imp.ini --check --ooo --preset Bogus",
    };
    return corpus;
}

/** Replaces every occurrence of @p from in @p s with @p to. */
std::string
replaceAll(std::string s, const std::string &from, const std::string &to)
{
    for (std::size_t at = s.find(from); at != std::string::npos;
         at = s.find(from, at + to.size()))
        s.replace(at, from.size(), to);
    return s;
}

/**
 * One corpus entry: its input on one line (long generated inputs
 * cut at 100 characters), then the diagnostic, indented. The source
 * directory reads "<src>", so the golden is machine-independent.
 */
std::string
entry(const std::string &input, const std::string &diagnostic)
{
    std::string out =
        replaceAll(replaceAll(input, IMPSIM_SOURCE_DIR, "<src>"), "\n",
                   "\\n");
    if (out.size() > 100)
        out = out.substr(0, 97) + "...";
    out += "\n";
    std::istringstream lines(
        replaceAll(diagnostic, IMPSIM_SOURCE_DIR, "<src>"));
    std::string line;
    while (std::getline(lines, line))
        out += "  " + line + "\n";
    return out;
}

std::string
configDiagnostic(const std::string &text)
{
    try {
        bindExperiment(ConfigFile::parseString(text));
    } catch (const ConfigError &e) {
        return e.what();
    }
    ADD_FAILURE() << "no diagnostic for: " << text;
    return "(bound without a diagnostic)";
}

/** Runs impsim_cli with @p args; returns its stderr. */
std::string
flagDiagnostic(const std::string &args)
{
    const std::string cmd =
        "'" IMPSIM_CLI_BIN "' " + args + " 2>&1 >/dev/null";
    std::string err;
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "cannot run " << cmd;
        return err;
    }
    char buf[256];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        err.append(buf, n);
    int st = ::pclose(pipe);
    EXPECT_TRUE(st != -1 && WIFEXITED(st) && WEXITSTATUS(st) == 1)
        << args << ": " << err;
    return err;
}

} // namespace

TEST(ConfigDiagnostics, CorpusMatchesGolden)
{
    std::string text;
    for (const std::string &cfg : configCorpus())
        text += entry("config: " + cfg, configDiagnostic(cfg));
    try {
        ConfigFile::parseFile("does_not_exist.imp.ini");
        ADD_FAILURE() << "missing file parsed";
    } catch (const ConfigError &e) {
        text += entry("file: does_not_exist.imp.ini", e.what());
    }
    for (const std::string &args : flagCorpus())
        text += entry("flags: " + args, flagDiagnostic(args));

    const std::string path = std::string(IMPSIM_SOURCE_DIR) +
                             "/tests/golden/config_diagnostics.txt";
    const char *regen = std::getenv("IMPSIM_REGEN_GOLDEN");
    if (regen != nullptr && *regen != '\0' &&
        std::string(regen) != "0") {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << text;
        SUCCEED() << "regenerated " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path
                    << " is missing; regenerate with "
                       "IMPSIM_REGEN_GOLDEN=1 ./test_config_diagnostics";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(text, golden.str())
        << "a diagnostic changed; if intentional, regenerate with "
           "IMPSIM_REGEN_GOLDEN=1 ./test_config_diagnostics and commit "
           "the diff";
}

} // namespace impsim
