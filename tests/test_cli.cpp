/**
 * @file
 * End-to-end checks of the real impsim_cli binary's flag mode. Flag
 * mode binds the same config binder as --config, so a nonsensical
 * flag value is a config error: exit status 1 and a diagnostic citing
 * "<command line>" — never a panic, an uncaught exception, or a
 * simulation of a machine that cannot exist.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/wait.h>

namespace {

struct CliResult
{
    /** Exit status; -1 if the process did not exit normally. */
    int status = -1;
    std::string stderrText;
};

/** Runs impsim_cli with @p args, discarding stdout. */
CliResult
runCli(const std::string &args)
{
    const std::string cmd =
        "'" IMPSIM_CLI_BIN "' " + args + " 2>&1 >/dev/null";
    CliResult r;
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (!pipe)
        return r;
    char buf[256];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        r.stderrText.append(buf, n);
    int st = ::pclose(pipe);
    if (st != -1 && WIFEXITED(st))
        r.status = WEXITSTATUS(st);
    return r;
}

} // namespace

TEST(CliFlagMode, BadValuesAreCommandLineDiagnostics)
{
    for (const char *bad :
         {"--scale -1", "--scale 0", "--scale nan", "--scale inf",
          "--scale 9000", "--scale 200000", "--cores 15", "--cores x", "--pt 4294967296",
          "--prefetcher=imp+bogus"}) {
        SCOPED_TRACE(bad);
        CliResult r = runCli(std::string("--app spmv --cores 4 ") + bad);
        EXPECT_EQ(r.status, 1) << r.stderrText;
        EXPECT_EQ(r.stderrText.rfind("<command line>:", 0), 0u)
            << r.stderrText;
        EXPECT_EQ(r.stderrText.find("fatal:"), std::string::npos)
            << r.stderrText;
    }
}

TEST(CliRecordTrace, DeadCompressorIsATraceError)
{
    // The compressor's shell cannot create the file and exits at once,
    // so the trace is written into a closed pipe: that must end in the
    // TraceError line and exit 1, not in death by SIGPIPE.
    CliResult r = runCli("--record-trace /nonexistent/dir/t.imptrace.gz "
                         "--app spmv --cores 4 --scale 0.05");
    EXPECT_EQ(r.status, 1) << r.stderrText;
    // "<path>: byte N: ...", not the shell's own complaint.
    EXPECT_NE(r.stderrText.find("/nonexistent/dir/t.imptrace.gz: byte "),
              std::string::npos)
        << r.stderrText;
}
