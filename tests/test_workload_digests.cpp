/**
 * @file
 * Pins every generator's output at the generation layer. For each
 * app, core count and software-prefetch setting at two seeds, a
 * digest of every MemAccess field, each core's tail instructions and
 * the functional-memory image is compared line by line with
 * tests/golden/workload_digests.txt. The simulated-output goldens see
 * a changed trace only if it moves a simulated count; this sees it
 * where it is made.
 *
 * Regenerating after an *intentional* generator change:
 *
 *   IMPSIM_REGEN_GOLDEN=1 ./build/test_workload_digests
 *
 * then review and commit the tests/golden/ diff.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "workloads/workload.hpp"

namespace impsim {
namespace {

/** FNV-1a over 64-bit words: every step is a bijection of the state,
 * so any single changed word changes the digest. */
class Digest
{
  public:
    void add(std::uint64_t v) { h_ = (h_ ^ v) * 0x100000001b3ULL; }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
workloadDigest(const Workload &w)
{
    Digest d;
    for (const CoreTrace &t : w.traces) {
        d.add(t.accesses.size());
        for (const MemAccess &a : t.accesses) {
            d.add(a.addr);
            d.add(a.pc);
            d.add(a.gap);
            d.add(a.dep);
            d.add(a.size);
            d.add(a.flags);
            d.add(static_cast<std::uint64_t>(a.type));
        }
        d.add(t.tailInstructions);
    }
    w.mem->forEachPage([&d](Addr base, const std::uint8_t *bytes) {
        d.add(base);
        for (std::uint32_t off = 0; off < FuncMem::kPageBytes; off += 8) {
            std::uint64_t word;
            std::memcpy(&word, bytes + off, sizeof(word));
            d.add(word);
        }
    });
    return d.value();
}

/** One line per generated workload of the pinned grid. */
std::string
digestTable()
{
    std::string text;
    for (std::uint64_t seed : {42ull, 1205ull}) {
        for (AppId app : kAllApps) {
            for (std::uint32_t cores : {1u, 4u, 16u}) {
                for (bool swpf : {false, true}) {
                    WorkloadParams p;
                    p.numCores = cores;
                    p.swPrefetch = swpf;
                    p.scale = 0.05;
                    p.seed = seed;
                    Workload w = makeWorkload(app, p);
                    char line[160];
                    std::snprintf(
                        line, sizeof(line),
                        "%s cores=%u swpf=%d seed=%llu accesses=%llu "
                        "digest=%016llx\n",
                        appName(app), cores, swpf ? 1 : 0,
                        static_cast<unsigned long long>(seed),
                        static_cast<unsigned long long>(
                            w.totalAccesses()),
                        static_cast<unsigned long long>(
                            workloadDigest(w)));
                    text += line;
                }
            }
        }
    }
    return text;
}

TEST(Workloads, DigestsMatchGolden)
{
    const std::string text = digestTable();
    const std::string path = std::string(IMPSIM_SOURCE_DIR) +
                             "/tests/golden/workload_digests.txt";
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
                       "IMPSIM_REGEN_GOLDEN=1 ./test_workload_digests";
    std::istringstream got(text);
    std::string want_line, got_line;
    int line_no = 0;
    while (std::getline(in, want_line)) {
        ++line_no;
        ASSERT_TRUE(std::getline(got, got_line))
            << "golden has more lines than the grid (line " << line_no
            << ")";
        EXPECT_EQ(got_line, want_line)
            << "generated trace or memory image changed at line "
            << line_no << "; if intentional, regenerate with "
            << "IMPSIM_REGEN_GOLDEN=1 ./test_workload_digests";
    }
    EXPECT_FALSE(std::getline(got, got_line))
        << "grid has more lines than the golden: " << got_line;
}

} // namespace
} // namespace impsim
