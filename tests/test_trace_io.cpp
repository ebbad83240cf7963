/**
 * @file
 * Property/fuzz tests for the IMPTRACE codec (workloads/trace_io) —
 * the one surface that parses untrusted binary bytes. Mirrors
 * test_config_fuzz.cpp: seeded std::mt19937 everywhere, no wall-clock
 * nondeterminism, so every failure replays exactly. The contract
 * under fire:
 *
 *   1. encode -> decode round-trips every record bit-exactly (plain,
 *      gzip and xz paths), and
 *   2. every prefix truncation, every byte mutation and arbitrary
 *      garbage produce a TraceError carrying the path and a byte
 *      offset — never UB, never another exception type, and never an
 *      allocation sized from a corrupted length field.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include <unistd.h>

#include "common/func_mem.hpp"
#include "workloads/trace_io.hpp"

namespace impsim {
namespace {

/** A unique temp file per fixture; removed on destruction. */
class TempTrace
{
  public:
    explicit TempTrace(const char *tag, const char *ext = ".imptrace")
        : path_("/tmp/impsim_trace_" + std::string(tag) + "_" +
                std::to_string(::getpid()) + ext)
    {
    }
    ~TempTrace() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << path;
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

bool
haveTool(const char *name)
{
    std::string cmd =
        std::string("command -v ") + name + " >/dev/null 2>&1";
    return std::system(cmd.c_str()) == 0;
}

/** A seeded stream of structurally valid records over @p cores. */
std::vector<TraceRecord>
randomRecords(std::mt19937 &rng, std::uint32_t cores, std::size_t n)
{
    std::vector<TraceRecord> recs;
    recs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord r;
        r.core = static_cast<std::uint16_t>(rng() % cores);
        switch (rng() % 8) {
          case 0: // branch (taken or not)
            r.kind = TraceRecordKind::Branch;
            r.addr = rng();
            r.pc = rng();
            r.gap = rng() % 1000;
            r.flags = (rng() % 2) ? kTraceFlagBranchTaken : 0;
            break;
          case 1: // tail
            r.kind = TraceRecordKind::Tail;
            r.addr = rng() % 100000;
            break;
          case 2: // software prefetch
            r.kind = TraceRecordKind::SwPrefetch;
            r.addr = rng();
            r.pc = rng();
            r.gap = rng() % 1000;
            r.size = 4;
            r.flags = (rng() % 4 == 0) ? kTraceFlagBarrierBefore : 0;
            break;
          default: // load/store
            r.kind = (rng() % 3 == 0) ? TraceRecordKind::Store
                                      : TraceRecordKind::Load;
            r.addr = (static_cast<std::uint64_t>(rng()) << 32) | rng();
            r.pc = rng();
            r.gap = rng() % 1000;
            r.dep = rng() % 8; // validated against position on replay
            r.size = static_cast<std::uint8_t>(1 + rng() % 64);
            r.flags = (rng() % 4 == 0) ? kTraceFlagBarrierBefore : 0;
            r.type = static_cast<AccessType>(rng() % 3);
            break;
        }
        recs.push_back(r);
    }
    return recs;
}

/** A small deterministic memory image touching several pages. */
FuncMem
sampleMem(std::mt19937 &rng)
{
    FuncMem mem;
    for (int i = 0; i < 32; ++i) {
        std::uint64_t addr = (rng() % 64) * 4096 + (rng() % 4000);
        std::uint32_t value = rng();
        mem.write(addr, &value, sizeof(value));
    }
    return mem;
}

/** Decodes @p path fully; fails the test on any TraceError. */
std::vector<TraceRecord>
decodeAll(const std::string &path, FuncMem *memOut = nullptr)
{
    TraceReader reader(openTraceSource(path));
    FuncMem scratch;
    reader.readMemoryImage(memOut ? *memOut : scratch);
    std::vector<TraceRecord> recs;
    TraceRecord r;
    while (reader.next(r))
        recs.push_back(r);
    EXPECT_EQ(recs.size(), reader.summary().recordCount);
    return recs;
}

/**
 * Feeds @p bytes to the full decode path, asserting the hardening
 * contract: clean TraceError or clean success, nothing else. The
 * variant tag is echoed on failure so any find replays standalone.
 */
void
mustRejectCleanlyOrAccept(const std::string &scratchPath,
                          const std::string &bytes,
                          const std::string &variantTag)
{
    std::ofstream out(scratchPath, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << scratchPath;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    try {
        TraceReader reader(openTraceSource(scratchPath));
        FuncMem mem;
        reader.readMemoryImage(mem);
        TraceRecord r;
        while (reader.next(r)) {
        }
    } catch (const TraceError &e) {
        EXPECT_EQ(e.path(), scratchPath) << variantTag;
        EXPECT_FALSE(e.message().empty()) << variantTag;
        EXPECT_EQ(std::string(e.what()).rfind(scratchPath + ":", 0), 0u)
            << variantTag << " what(): " << e.what();
    } catch (const std::exception &e) {
        ADD_FAILURE() << variantTag << ": non-TraceError "
                      << typeid(e).name() << ": " << e.what();
    } catch (...) {
        ADD_FAILURE() << variantTag << ": non-exception throw";
    }
}

TEST(TraceIo, RoundTripsSeededRandomRecordsBitExactly)
{
    std::mt19937 rng(0xC0FFEEu);
    TempTrace file("roundtrip");
    for (int round = 0; round < 10; ++round) {
        const std::uint32_t cores = 1 + rng() % 8;
        std::vector<TraceRecord> recs =
            randomRecords(rng, cores, 1 + rng() % 500);
        FuncMem mem = sampleMem(rng);
        TraceWriteStats st =
            writeTraceFile(file.path(), cores, recs, &mem);
        EXPECT_EQ(st.recordCount, recs.size());

        FuncMem back;
        std::vector<TraceRecord> decoded = decodeAll(file.path(), &back);
        ASSERT_EQ(decoded.size(), recs.size()) << "round " << round;
        for (std::size_t i = 0; i < recs.size(); ++i)
            EXPECT_TRUE(decoded[i] == recs[i])
                << "round " << round << " record " << i;

        // The memory image round-trips too (per-word spot checks
        // across the written pages).
        std::mt19937 probe(0xC0FFEEu + static_cast<unsigned>(round));
        for (int i = 0; i < 200; ++i) {
            std::uint64_t addr = (probe() % 64) * 4096 + (probe() % 4090);
            std::uint32_t a = 0, b = 0;
            mem.read(addr, &a, sizeof(a));
            back.read(addr, &b, sizeof(b));
            EXPECT_EQ(a, b) << "round " << round << " addr " << addr;
        }
    }
}

TEST(TraceIo, RoundTripsThroughGzipCodec)
{
    if (!haveTool("gzip"))
        GTEST_SKIP() << "gzip not on PATH";
    std::mt19937 rng(0xBEEFu);
    TempTrace file("gzip", ".imptrace.gz");
    std::vector<TraceRecord> recs = randomRecords(rng, 4, 300);
    FuncMem mem = sampleMem(rng);
    writeTraceFile(file.path(), 4, recs, &mem);

    // Really compressed, not just renamed: gzip magic, smaller-ish.
    std::string raw = readFileBytes(file.path());
    ASSERT_GE(raw.size(), 2u);
    EXPECT_EQ(static_cast<unsigned char>(raw[0]), 0x1f);
    EXPECT_EQ(static_cast<unsigned char>(raw[1]), 0x8b);

    std::vector<TraceRecord> decoded = decodeAll(file.path());
    ASSERT_EQ(decoded.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        EXPECT_TRUE(decoded[i] == recs[i]) << "record " << i;
}

TEST(TraceIo, RoundTripsThroughXzCodec)
{
    if (!haveTool("xz"))
        GTEST_SKIP() << "xz not on PATH";
    std::mt19937 rng(0xF00Du);
    TempTrace file("xz", ".imptrace.xz");
    std::vector<TraceRecord> recs = randomRecords(rng, 2, 300);
    writeTraceFile(file.path(), 2, recs, nullptr);
    std::vector<TraceRecord> decoded = decodeAll(file.path());
    ASSERT_EQ(decoded.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        EXPECT_TRUE(decoded[i] == recs[i]) << "record " << i;
}

/**
 * Every prefix truncation, in IMPSIM_PREFIX_SHARDS shards: shard k
 * checks the lengths congruent to k, so together the shards check
 * every length from 0 to size-1 exactly once. The cost is quadratic
 * in the fixture, so ctest runs each shard as an entry of its own
 * (CMakeLists.txt) and -j spreads them.
 */
class TraceIoPrefix : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(TraceIoPrefix, EveryPrefixTruncationRaisesTraceError)
{
    std::mt19937 rng(0x7005EEDu);
    TempTrace file("truncsrc");
    TempTrace scratch("truncvar");
    std::vector<TraceRecord> recs = randomRecords(rng, 2, 40);
    FuncMem mem = sampleMem(rng);
    writeTraceFile(file.path(), 2, recs, &mem);
    const std::string bytes = readFileBytes(file.path());
    ASSERT_GT(bytes.size(), kTraceHeaderBytes);

    // Longest prefix first: truncating one file in place puts each
    // prefix on disk without writing its bytes again.
    std::vector<std::size_t> lens;
    for (std::size_t len = GetParam(); len < bytes.size();
         len += IMPSIM_PREFIX_SHARDS)
        lens.push_back(len);
    writeFileBytes(scratch.path(), bytes);
    for (auto it = lens.rbegin(); it != lens.rend(); ++it) {
        const std::size_t len = *it;
        ASSERT_EQ(::truncate(scratch.path().c_str(),
                             static_cast<off_t>(len)),
                  0)
            << len;
        EXPECT_THROW(
            {
                TraceReader reader(openTraceSource(scratch.path()));
                FuncMem m;
                reader.readMemoryImage(m);
                TraceRecord r;
                while (reader.next(r)) {
                }
            },
            TraceError)
            << "prefix length " << len << " of " << bytes.size();
    }
}

INSTANTIATE_TEST_SUITE_P(
    PrefixShard, TraceIoPrefix,
    ::testing::Range(std::size_t{0}, std::size_t{IMPSIM_PREFIX_SHARDS}));

TEST(TraceIo, ByteMutationRoundsNeverEscapeTraceError)
{
    // Every byte of the file is covered by a checksum (header, chunk,
    // index-seeded record), so 400 seeded mutation rounds per fixture
    // must each end in clean acceptance (a mutation can cancel
    // itself) or a diagnosed TraceError — mirroring the config
    // fuzzer's contract for text input.
    struct Fixture
    {
        const char *tag;
        bool withMem;
        std::size_t records;
    };
    const Fixture fixtures[] = {
        {"small", true, 8},
        {"nomem", false, 64},
        {"bigger", true, 256},
    };
    std::size_t fixtureIndex = 0;
    for (const Fixture &f : fixtures) {
        std::mt19937 rng(0xC0FFEEu + static_cast<unsigned>(fixtureIndex));
        TempTrace file((std::string("mutsrc_") + f.tag).c_str());
        TempTrace scratch((std::string("mutvar_") + f.tag).c_str());
        std::vector<TraceRecord> recs = randomRecords(rng, 4, f.records);
        FuncMem mem = sampleMem(rng);
        writeTraceFile(file.path(), 4, recs,
                       f.withMem ? &mem : nullptr);
        const std::string bytes = readFileBytes(file.path());
        ASSERT_FALSE(bytes.empty()) << f.tag;

        for (int round = 0; round < 400; ++round) {
            std::string variant = bytes;
            int edits = 1 + static_cast<int>(rng() % 4);
            for (int e = 0; e < edits; ++e) {
                std::size_t pos = rng() % variant.size();
                char byte = static_cast<char>(rng() % 256);
                switch (rng() % 3) {
                  case 0: variant[pos] = byte; break;
                  case 1: variant.insert(pos, 1, byte); break;
                  default: variant.erase(pos, 1); break;
                }
                if (variant.empty())
                    break;
            }
            mustRejectCleanlyOrAccept(
                scratch.path(), variant,
                std::string(f.tag) + " mutation round " +
                    std::to_string(round));
        }
        ++fixtureIndex;
    }
}

TEST(TraceIo, GarbageAndAdversarialHeadersNeverAllocateFromClaims)
{
    TempTrace scratch("garbage");

    // Pure garbage, empty file, magic-only.
    mustRejectCleanlyOrAccept(scratch.path(), "", "empty");
    mustRejectCleanlyOrAccept(scratch.path(), "hello world", "text");
    mustRejectCleanlyOrAccept(scratch.path(), "IMPTRACE", "magic only");
    std::mt19937 rng(0xDEADu);
    for (int round = 0; round < 50; ++round) {
        std::string junk(1 + rng() % 4096, '\0');
        for (char &c : junk)
            c = static_cast<char>(rng() % 256);
        mustRejectCleanlyOrAccept(scratch.path(), junk,
                                  "junk round " + std::to_string(round));
    }

    // A forged header claiming 2^60 records with a valid checksum
    // must fail from missing bytes, not from a 2^60-sized reserve.
    TempTrace forgesrc("forgesrc");
    writeTraceFile(forgesrc.path(), 1, {}, nullptr);
    std::string bytes = readFileBytes(forgesrc.path());
    ASSERT_EQ(bytes.size(), kTraceHeaderBytes);
    // recordCount lives at offset 16; rewriting it breaks the header
    // checksum, which is exactly the point: the claim is rejected
    // before any allocation keyed on it.
    for (int i = 0; i < 8; ++i)
        bytes[16 + i] = static_cast<char>(0xff);
    mustRejectCleanlyOrAccept(scratch.path(), bytes, "2^64 records");
}

TEST(TraceIo, TrailingGarbageAfterLastRecordIsAnError)
{
    std::mt19937 rng(0x11u);
    TempTrace file("trailsrc");
    TempTrace scratch("trailvar");
    std::vector<TraceRecord> recs = randomRecords(rng, 2, 10);
    writeTraceFile(file.path(), 2, recs, nullptr);
    std::string bytes = readFileBytes(file.path());
    bytes += "extra";
    writeFileBytes(scratch.path(), bytes);
    EXPECT_THROW(
        {
            TraceReader reader(openTraceSource(scratch.path()));
            FuncMem m;
            reader.readMemoryImage(m);
            TraceRecord r;
            while (reader.next(r)) {
            }
        },
        TraceError);
}

TEST(TraceIo, MissingFileAndFailingCodecAreDiagnosed)
{
    EXPECT_THROW(openTraceSource("/nonexistent/impsim.imptrace"),
                 TraceError);
    EXPECT_THROW(probeTraceHeader("/nonexistent/impsim.imptrace"),
                 TraceError);

    // A codec whose filter dies must surface as TraceError at (or
    // before) end-of-stream, never as a silent truncation.
    registerTraceCodec({".zzfail", "false", "false"});
    TempTrace file("codecfail", ".zzfail");
    writeFileBytes(file.path(), "whatever");
    EXPECT_THROW(
        {
            TraceReader reader(openTraceSource(file.path()));
        },
        TraceError);
    EXPECT_THROW(writeTraceFile(file.path(), 1, {}, nullptr), TraceError);

    // More than a pipe buffer's worth: the writer hits the dead filter
    // mid-stream, which must be EPIPE and a TraceError, not SIGPIPE.
    std::mt19937 rng(0xB16u);
    std::vector<TraceRecord> recs = randomRecords(rng, 1, 20000);
    TempTrace plain("bigplain");
    writeTraceFile(plain.path(), 1, recs, nullptr);
    ASSERT_GT(readFileBytes(plain.path()).size(), 64u << 10);
    EXPECT_THROW(writeTraceFile(file.path(), 1, recs, nullptr), TraceError);
}

TEST(TraceIo, ProbeMatchesFullDecodeSummary)
{
    std::mt19937 rng(0x22u);
    TempTrace file("probe");
    std::vector<TraceRecord> recs = randomRecords(rng, 3, 77);
    FuncMem mem = sampleMem(rng);
    TraceWriteStats st = writeTraceFile(file.path(), 3, recs, &mem);

    TraceSummary sum = probeTraceHeader(file.path());
    EXPECT_EQ(sum.version, kTraceFormatVersion);
    EXPECT_EQ(sum.numCores, 3u);
    EXPECT_EQ(sum.recordCount, recs.size());
    EXPECT_EQ(sum.memChunkCount, st.memChunkCount);
}

} // namespace
} // namespace impsim
