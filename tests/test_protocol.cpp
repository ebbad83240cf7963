/**
 * @file
 * Wire-protocol unit and property tests: percent-escaping round
 * trips, numeric token validation, SUBMIT/LEASE line round trips,
 * and LineReader framing over a real socketpair (byte-counted
 * payloads, truncated streams, oversized-line rejection).
 *
 * The property tests use a fixed-seed mt19937, so a failure
 * reproduces exactly; each failure message carries the iteration
 * index.
 */
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "server/protocol.hpp"

using namespace impsim;
using namespace impsim::server;

namespace {

/** Random byte string over the full 0..255 range, length <= maxLen. */
std::string
randomBytes(std::mt19937 &rng, std::size_t maxLen)
{
    std::uniform_int_distribution<std::size_t> len(0, maxLen);
    std::uniform_int_distribution<int> byte(0, 255);
    std::string s(len(rng), '\0');
    for (char &c : s)
        c = static_cast<char>(byte(rng));
    return s;
}

} // namespace

// ---- escapeToken / unescapeToken -------------------------------------

TEST(EscapeToken, EscapesSpacePercentAndControls)
{
    EXPECT_EQ(escapeToken("a b"), "a%20b");
    EXPECT_EQ(escapeToken("100%"), "100%25");
    EXPECT_EQ(escapeToken(std::string(1, '\n')), "%0A");
    EXPECT_EQ(escapeToken(std::string(1, '\x7f')), "%7F");
    EXPECT_EQ(escapeToken("plain/path.cfg"), "plain/path.cfg");
}

TEST(EscapeToken, EscapedFormIsOneSpaceFreeToken)
{
    std::mt19937 rng(0xE5CA9Eu);
    for (int iter = 0; iter < 500; ++iter) {
        const std::string raw = randomBytes(rng, 64);
        const std::string esc = escapeToken(raw);
        for (unsigned char c : esc) {
            ASSERT_NE(c, ' ') << "iteration " << iter;
            ASSERT_GE(c, 0x20) << "iteration " << iter;
            ASSERT_NE(c, 0x7f) << "iteration " << iter;
        }
        // Embedded in a frame line, it splits back out as one token.
        std::vector<std::string> tokens =
            splitTokens("CMD " + esc + " tail");
        ASSERT_EQ(tokens.size(), raw.empty() ? 2u : 3u)
            << "iteration " << iter;
        if (!raw.empty()) {
            EXPECT_EQ(tokens[1], esc) << "iteration " << iter;
        }
    }
}

TEST(EscapeToken, RoundTripsRandomBytes)
{
    std::mt19937 rng(0xC0FFEEu);
    for (int iter = 0; iter < 1000; ++iter) {
        const std::string raw = randomBytes(rng, 80);
        EXPECT_EQ(unescapeToken(escapeToken(raw)), raw)
            << "iteration " << iter;
    }
}

TEST(EscapeToken, MalformedEscapesStayLiteral)
{
    EXPECT_EQ(unescapeToken("%"), "%");
    EXPECT_EQ(unescapeToken("%2"), "%2");
    EXPECT_EQ(unescapeToken("%zz"), "%zz");
    EXPECT_EQ(unescapeToken("a%2Gb"), "a%2Gb");
    EXPECT_EQ(unescapeToken("%25"), "%");
    EXPECT_EQ(unescapeToken("%2525"), "%25"); // one pass, not two
}

// ---- parseNumber ------------------------------------------------------

TEST(ParseNumber, AcceptsDigitsOnlyWithinBounds)
{
    std::uint64_t v = 1;
    EXPECT_TRUE(parseNumber("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseNumber("007", v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(parseNumber("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(ParseNumber, RejectsSignsGarbageAndOverflow)
{
    std::uint64_t v = 42;
    EXPECT_FALSE(parseNumber("", v));
    EXPECT_FALSE(parseNumber("-1", v));
    EXPECT_FALSE(parseNumber("+1", v));
    EXPECT_FALSE(parseNumber("1x", v));
    EXPECT_FALSE(parseNumber(" 1", v));
    EXPECT_FALSE(parseNumber("18446744073709551616", v)); // 2^64
    EXPECT_FALSE(parseNumber("99999999999999999999999", v));
    EXPECT_FALSE(parseNumber("11", v, 10)); // above the cap
    EXPECT_TRUE(parseNumber("10", v, 10));  // at the cap
    EXPECT_EQ(v, 10u);
}

// ---- splitTokens ------------------------------------------------------

TEST(SplitTokens, DropsEmptyRuns)
{
    EXPECT_TRUE(splitTokens("").empty());
    EXPECT_TRUE(splitTokens("   ").empty());
    std::vector<std::string> t = splitTokens("  a  b c ");
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0], "a");
    EXPECT_EQ(t[1], "b");
    EXPECT_EQ(t[2], "c");
}

// ---- SUBMIT / LEASE line round trips ---------------------------------

namespace {

/** Random SubmitRequest covering every option, escapes included. */
SubmitRequest
randomSubmit(std::mt19937 &rng)
{
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_int_distribution<int> pr(1, 100);
    std::uniform_int_distribution<std::uint32_t> u32(0, 1u << 20);
    std::uniform_int_distribution<std::uint64_t> u64(
        0, UINT64_MAX);
    SubmitRequest req;
    req.configBytes = u32(rng) % (4u << 20);
    req.origin = "dir with spaces/" + randomBytes(rng, 12) + ".cfg";
    req.csv = coin(rng) != 0;
    req.priority = pr(rng);
    std::vector<std::string> &set = req.cli.settings;
    if (coin(rng))
        set.push_back("app=spmv");
    if (coin(rng))
        set.push_back("preset=imp 100% space");
    if (coin(rng))
        set.push_back("cores=" + std::to_string(u32(rng)));
    if (coin(rng))
        set.push_back("scale=0.0625");
    if (coin(rng))
        req.cli.seed = u64(rng);
    if (coin(rng))
        set.push_back("system.core_model=ooo");
    if (coin(rng))
        set.push_back("pt=" + std::to_string(u32(rng)));
    if (coin(rng))
        set.push_back("ipd=" + std::to_string(u32(rng)));
    if (coin(rng))
        set.push_back("distance=" + std::to_string(u32(rng)));
    if (coin(rng))
        set.push_back("l1=imp,stream");
    if (coin(rng))
        set.push_back("l2=none");
    return req;
}

void
expectSameRequest(const SubmitRequest &a, const SubmitRequest &b,
                  int iter)
{
    EXPECT_EQ(a.configBytes, b.configBytes) << "iteration " << iter;
    EXPECT_EQ(a.origin, b.origin) << "iteration " << iter;
    EXPECT_EQ(a.csv, b.csv) << "iteration " << iter;
    EXPECT_EQ(a.priority, b.priority) << "iteration " << iter;
    EXPECT_EQ(a.cli.settings, b.cli.settings) << "iteration " << iter;
    EXPECT_EQ(a.cli.seed, b.cli.seed) << "iteration " << iter;
}

} // namespace

TEST(SubmitLine, RoundTripsRandomRequests)
{
    std::mt19937 rng(0x5AB317u);
    for (int iter = 0; iter < 300; ++iter) {
        const SubmitRequest req = randomSubmit(rng);
        SubmitRequest back;
        std::string error;
        ASSERT_TRUE(parseSubmitLine(
            splitTokens(formatSubmitLine(req)), back, error))
            << "iteration " << iter << ": " << error;
        expectSameRequest(req, back, iter);
    }
}

TEST(SubmitLine, RejectsMalformedTokens)
{
    SubmitRequest req;
    std::string error;
    EXPECT_FALSE(parseSubmitLine(splitTokens("SUBMIT"), req, error));
    EXPECT_FALSE(parseSubmitLine(splitTokens("SUBMIT x"), req, error));
    EXPECT_FALSE(
        parseSubmitLine(splitTokens("SUBMIT 4194305"), req, error));
    EXPECT_FALSE(
        parseSubmitLine(splitTokens("SUBMIT 10 naked"), req, error));
    EXPECT_FALSE(parseSubmitLine(splitTokens("SUBMIT 10 priority=0"),
                                 req, error));
    EXPECT_FALSE(parseSubmitLine(splitTokens("SUBMIT 10 priority=101"),
                                 req, error));
    EXPECT_FALSE(parseSubmitLine(splitTokens("SUBMIT 10 wat=1"), req,
                                 error));
    EXPECT_FALSE(parseSubmitLine(splitTokens("SUBMIT 10 cores=x"), req,
                                 error));
    EXPECT_FALSE(parseSubmitLine(splitTokens("SUBMIT 10 scale=1..5"),
                                 req, error));
    // The v4 ooo= token is gone (--ooo is system.core_model=ooo), and
    // csv= takes only 0, 1, false or true.
    EXPECT_FALSE(parseSubmitLine(splitTokens("SUBMIT 10 ooo=banana"), req,
                                 error));
    EXPECT_FALSE(parseSubmitLine(splitTokens("SUBMIT 10 csv=banana"), req,
                                 error));
    EXPECT_FALSE(parseSubmitLine(splitTokens("SUBMIT 10 page=4096"), req,
                                 error)); // no flag overrides it
}

TEST(LeaseLine, RoundTripsRandomLeases)
{
    std::mt19937 rng(0x1EA5Eu);
    std::uniform_int_distribution<std::uint64_t> id(1, UINT64_MAX);
    std::uniform_int_distribution<std::size_t> run(0, 1u << 20);
    std::uniform_int_distribution<std::size_t> count(1, 1u << 10);
    for (int iter = 0; iter < 300; ++iter) {
        LeaseRequest req;
        req.leaseId = id(rng);
        req.firstRun = run(rng);
        req.runCount = count(rng);
        req.submit = randomSubmit(rng);
        LeaseRequest back;
        std::string error;
        ASSERT_TRUE(parseLeaseLine(splitTokens(formatLeaseLine(req)),
                                   back, error))
            << "iteration " << iter << ": " << error;
        EXPECT_EQ(req.leaseId, back.leaseId) << "iteration " << iter;
        EXPECT_EQ(req.firstRun, back.firstRun) << "iteration " << iter;
        EXPECT_EQ(req.runCount, back.runCount) << "iteration " << iter;
        expectSameRequest(req.submit, back.submit, iter);
    }
}

TEST(LeaseLine, RejectsEmptyAndOverflowingRanges)
{
    LeaseRequest req;
    std::string error;
    EXPECT_FALSE(parseLeaseLine(splitTokens("LEASE 1 0 4"), req, error));
    EXPECT_FALSE(
        parseLeaseLine(splitTokens("LEASE 1 0 0 10"), req, error));
    EXPECT_FALSE(parseLeaseLine(
        splitTokens("LEASE 1 18446744073709551615 2 10"), req, error));
    EXPECT_FALSE(
        parseLeaseLine(splitTokens("LEASE x 0 4 10"), req, error));
    EXPECT_FALSE(
        parseLeaseLine(splitTokens("LEASE 1 0 4 4194305"), req, error));
    EXPECT_FALSE(parseLeaseLine(splitTokens("LEASE 1 0 4 10 bad"), req,
                                error));
    EXPECT_TRUE(
        parseLeaseLine(splitTokens("LEASE 1 0 4 0"), req, error))
        << error; // empty payload is legal
    EXPECT_EQ(req.submit.configBytes, 0u);
}

// ---- LineReader framing over a socketpair ----------------------------

namespace {

/** A connected socketpair, closed on destruction. */
struct SocketPair
{
    int fds[2] = {-1, -1};

    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }
    ~SocketPair()
    {
        closeWriter();
        if (fds[1] >= 0)
            ::close(fds[1]);
    }
    void
    closeWriter()
    {
        if (fds[0] >= 0) {
            ::close(fds[0]);
            fds[0] = -1;
        }
    }
};

} // namespace

TEST(LineReader, ReadsFramesAndByteCountedPayloads)
{
    SocketPair sp;
    const std::string payload = "line one\nline two, no newline";
    ASSERT_TRUE(writeAll(sp.fds[0],
                         "SUBMIT " + std::to_string(payload.size()) +
                             " origin=a%20b\n" + payload + "NEXT\n"));
    LineReader reader(sp.fds[1]);
    std::string line;
    ASSERT_TRUE(reader.readLine(line));
    std::vector<std::string> tokens = splitTokens(line);
    SubmitRequest req;
    std::string error;
    ASSERT_TRUE(parseSubmitLine(tokens, req, error)) << error;
    EXPECT_EQ(req.origin, "a b");
    // The payload is byte-counted: embedded newlines must not end it.
    std::string body;
    ASSERT_TRUE(reader.readBytes(body, req.configBytes));
    EXPECT_EQ(body, payload);
    ASSERT_TRUE(reader.readLine(line));
    EXPECT_EQ(line, "NEXT");
    sp.closeWriter();
    EXPECT_FALSE(reader.readLine(line)); // clean EOF
}

TEST(LineReader, TruncatedPayloadFailsInsteadOfBlocking)
{
    SocketPair sp;
    ASSERT_TRUE(writeAll(sp.fds[0], "SUBMIT 100 origin=x\npartial"));
    sp.closeWriter(); // peer dies 93 bytes short
    LineReader reader(sp.fds[1]);
    std::string line;
    ASSERT_TRUE(reader.readLine(line));
    std::string body;
    EXPECT_FALSE(reader.readBytes(body, 100));
}

TEST(LineReader, OversizedLineIsRejectedNotBuffered)
{
    SocketPair sp;
    // > 64 KiB with no newline: the reader must refuse rather than
    // grow its buffer until the peer decides to stop.
    const std::string flood(70 * 1024, 'A');
    ASSERT_TRUE(writeAll(sp.fds[0], flood));
    sp.closeWriter();
    LineReader reader(sp.fds[1]);
    std::string line;
    EXPECT_FALSE(reader.readLine(line));
}

TEST(LineReader, OversizedTerminatedLineAlsoRejected)
{
    SocketPair sp;
    const std::string flood(70 * 1024, 'B');
    ASSERT_TRUE(writeAll(sp.fds[0], flood + "\nok\n"));
    LineReader reader(sp.fds[1]);
    std::string line;
    EXPECT_FALSE(reader.readLine(line));
}

// ---- Worker-frame shapes ---------------------------------------------

TEST(WorkerFrames, RowFrameRoundTripsThroughReader)
{
    SocketPair sp;
    const std::string row = "fig14/pt=256,1.2345\n";
    ASSERT_TRUE(writeAll(sp.fds[0],
                         "ROW 7 3 " + std::to_string(row.size()) +
                             "\n" + row + "LEASEDONE 7\n"));
    LineReader reader(sp.fds[1]);
    std::string line;
    ASSERT_TRUE(reader.readLine(line));
    std::vector<std::string> t = splitTokens(line);
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0], "ROW");
    std::uint64_t leaseId = 0, run = 0, nbytes = 0;
    ASSERT_TRUE(parseNumber(t[1], leaseId));
    ASSERT_TRUE(parseNumber(t[2], run));
    ASSERT_TRUE(parseNumber(t[3], nbytes));
    EXPECT_EQ(leaseId, 7u);
    EXPECT_EQ(run, 3u);
    std::string body;
    ASSERT_TRUE(reader.readBytes(body, nbytes));
    EXPECT_EQ(body, row);
    ASSERT_TRUE(reader.readLine(line));
    EXPECT_EQ(line, "LEASEDONE 7");
}

// ---- FLEET lines (the WORKERS reply payload) -------------------------

TEST(FleetLines, FormatAndParseRoundTrip)
{
    FleetEntry e;
    e.workerId = 42;
    e.activeLeases = 1;
    const std::string line = formatFleetLine(e);
    EXPECT_EQ(line, "42 1");

    FleetEntry back;
    std::string error;
    ASSERT_TRUE(parseFleetLine(line, back, error)) << error;
    EXPECT_EQ(back.workerId, 42u);
    EXPECT_EQ(back.activeLeases, 1u);
}

TEST(FleetLines, MalformedLinesAreRejectedWithDiagnostics)
{
    FleetEntry e;
    std::string error;
    EXPECT_FALSE(parseFleetLine("", e, error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseFleetLine("1", e, error));
    // A version-5 line still carries the slot column.
    EXPECT_FALSE(parseFleetLine("1 1 0", e, error));
    EXPECT_FALSE(parseFleetLine("x 1", e, error));
    EXPECT_FALSE(parseFleetLine("1 x", e, error));
    EXPECT_FALSE(parseFleetLine("-1 1", e, error));
    EXPECT_FALSE(parseFleetLine("1 -1", e, error));
}
