/**
 * @file
 * ResultStore: terminal-job archive semantics — verbatim payload
 * round-trips, LRU eviction under byte/entry bounds, and on-disk
 * persistence across a (simulated) server restart.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include "server/result_store.hpp"

namespace impsim {
namespace {

using server::ResultStore;
using server::StoredResult;

StoredResult
meta(std::uint64_t id, const std::string &state = "done")
{
    StoredResult m;
    m.id = id;
    m.state = state;
    m.done = 3;
    m.total = 3;
    m.origin = "/tmp/dir with spaces/100%.imp.ini";
    return m;
}

/** A unique temp directory per test; removed recursively on exit. */
class TempDir
{
  public:
    explicit TempDir(const char *tag)
        : path_("/tmp/impsim_store_" + std::string(tag) + "_" +
                std::to_string(::getpid()))
    {
        removeAll();
    }
    ~TempDir() { removeAll(); }
    const std::string &path() const { return path_; }

  private:
    void removeAll() const
    {
        // The store writes a flat "<id>.manifest"/"<id>.csv" layout,
        // so a glob-free remove of the two suffixes suffices.
        for (std::uint64_t id = 0; id < 64; ++id) {
            std::remove(
                (path_ + "/" + std::to_string(id) + ".manifest").c_str());
            std::remove(
                (path_ + "/" + std::to_string(id) + ".csv").c_str());
        }
        ::rmdir(path_.c_str());
    }

    std::string path_;
};

TEST(ResultStore, MemoryModeRoundTripsPayloadVerbatim)
{
    ResultStore store("");
    EXPECT_EQ(store.load(), 0u);
    std::string payload = "label,cycles\r\nweird ";
    payload += '\0'; // embedded NUL must survive the round trip
    payload += " bytes";
    store.put(meta(7), payload);

    StoredResult m;
    std::string back;
    ASSERT_TRUE(store.fetch(7, m, back));
    EXPECT_EQ(back, payload);
    EXPECT_EQ(m.state, "done");
    EXPECT_EQ(m.bytes, payload.size());
    EXPECT_EQ(m.origin, meta(7).origin);

    std::string none;
    EXPECT_FALSE(store.fetch(8, m, none));
}

TEST(ResultStore, ByteBoundEvictsLeastRecentlyUsed)
{
    ResultStore store("", /*maxBytes=*/100);
    store.put(meta(1), std::string(60, 'a'));
    store.put(meta(2), std::string(60, 'b'));

    // 120 > 100: the oldest (1) was evicted, the newest kept.
    StoredResult m;
    std::string payload;
    EXPECT_FALSE(store.fetch(1, m, payload));
    ASSERT_TRUE(store.fetch(2, m, payload));
    EXPECT_EQ(payload, std::string(60, 'b'));
    EXPECT_EQ(store.entries(), 1u);
}

TEST(ResultStore, FetchRefreshesLruOrder)
{
    ResultStore store("", /*maxBytes=*/150);
    store.put(meta(1), std::string(60, 'a'));
    store.put(meta(2), std::string(60, 'b'));

    // Touch 1, then overflow: 2 is now the least recently used.
    StoredResult m;
    std::string payload;
    ASSERT_TRUE(store.fetch(1, m, payload));
    store.put(meta(3), std::string(60, 'c'));
    EXPECT_FALSE(store.fetch(2, m, payload));
    ASSERT_TRUE(store.fetch(1, m, payload));
    EXPECT_EQ(payload, std::string(60, 'a'));
}

TEST(ResultStore, WasEvictedDistinguishesGoneFromNeverSeen)
{
    ResultStore store("", /*maxBytes=*/100);
    store.put(meta(1), std::string(60, 'a'));
    EXPECT_FALSE(store.wasEvicted(1)) << "still archived, not gone";
    EXPECT_FALSE(store.wasEvicted(99)) << "never archived at all";

    store.put(meta(2), std::string(60, 'b')); // pushes 1 out
    EXPECT_TRUE(store.wasEvicted(1));
    EXPECT_FALSE(store.wasEvicted(2));

    // Re-archiving the same id clears the tombstone again.
    store.put(meta(1), "tiny");
    EXPECT_FALSE(store.wasEvicted(1));
    StoredResult m;
    std::string payload;
    ASSERT_TRUE(store.fetch(1, m, payload));
    EXPECT_EQ(payload, "tiny");
}

TEST(ResultStore, EntryBoundCoversZeroByteManifests)
{
    // Cancelled jobs archive zero payload bytes; only the entry cap
    // stops them accumulating forever.
    ResultStore store("", /*maxBytes=*/1 << 20);
    const std::uint64_t n = ResultStore::kMaxEntries + 1;
    for (std::uint64_t id = 1; id <= n; ++id)
        store.put(meta(id, "cancelled"), "");
    EXPECT_EQ(store.entries(), ResultStore::kMaxEntries);
    StoredResult m;
    EXPECT_FALSE(store.manifest(1, m));
    EXPECT_TRUE(store.wasEvicted(1));
    EXPECT_TRUE(store.manifest(2, m));
    EXPECT_TRUE(store.manifest(n, m));
}

TEST(ResultStore, DiskModePersistsAcrossReload)
{
    TempDir dir("persist");
    const std::string payload = "label,cycles\nspmv/IMP,123\n";
    {
        ResultStore store(dir.path());
        EXPECT_EQ(store.load(), 0u);
        store.put(meta(5), payload);
        StoredResult cancelled = meta(9, "cancelled");
        cancelled.done = 1;
        store.put(cancelled, "");
    }

    // A fresh store over the same directory — the restarted server —
    // indexes both jobs and serves the payload bit-identically.
    ResultStore reloaded(dir.path());
    EXPECT_EQ(reloaded.load(), 9u)
        << "job ids must resume above everything on disk";
    StoredResult m;
    std::string back;
    ASSERT_TRUE(reloaded.fetch(5, m, back));
    EXPECT_EQ(back, payload);
    EXPECT_EQ(m.origin, meta(5).origin) << "escaped origin round-trips";
    ASSERT_TRUE(reloaded.manifest(9, m));
    EXPECT_EQ(m.state, "cancelled");
    EXPECT_EQ(m.done, 1u);
    EXPECT_EQ(m.total, 3u);
}

TEST(ResultStore, DiskModeEvictionRemovesFiles)
{
    TempDir dir("evict");
    ResultStore store(dir.path(), /*maxBytes=*/100);
    store.load();
    store.put(meta(1), std::string(60, 'a'));
    store.put(meta(2), std::string(60, 'b'));

    struct stat st;
    EXPECT_NE(::stat((dir.path() + "/1.csv").c_str(), &st), 0)
        << "evicted payload must leave the disk";
    EXPECT_NE(::stat((dir.path() + "/1.manifest").c_str(), &st), 0);
    EXPECT_EQ(::stat((dir.path() + "/2.csv").c_str(), &st), 0);

    // And a reload only sees the survivor.
    ResultStore reloaded(dir.path(), 100);
    EXPECT_EQ(reloaded.load(), 2u);
    EXPECT_EQ(reloaded.entries(), 1u);
}

TEST(ResultStore, TornManifestIsSkippedNotServed)
{
    TempDir dir("torn");
    {
        ResultStore store(dir.path());
        store.load();
        store.put(meta(1), "good");
    }
    // A crash mid-write leaves a ".tmp" (ignored by suffix) or a
    // garbage manifest (fails to parse); neither may be indexed.
    std::ofstream(dir.path() + "/2.manifest") << "not = a manifest\n";
    std::ofstream(dir.path() + "/3.manifest.tmp") << "id = 3\n";

    ResultStore reloaded(dir.path());
    EXPECT_EQ(reloaded.load(), 1u);
    EXPECT_EQ(reloaded.entries(), 1u);
    std::remove((dir.path() + "/2.manifest").c_str());
    std::remove((dir.path() + "/3.manifest.tmp").c_str());
}

} // namespace
} // namespace impsim
