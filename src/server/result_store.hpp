/**
 * @file
 * Persistent result store for the job server.
 *
 * Every job that reaches a terminal state is recorded here: a small
 * manifest (id, state, run counts, payload size, origin, LRU stamp)
 * plus the verbatim result payload — the exact bytes `impsim_cli
 * --config` would have printed, so a FETCHed result stays
 * bit-identical to an in-process run. With a results directory the
 * store is on disk (`<id>.manifest` + `<id>.csv` per job) and
 * survives server restarts, letting a client reconnect days later
 * and still FETCH; without one it is a purely in-memory map with the
 * same interface and bounds.
 *
 * Eviction is least-recently-used (put and fetch both refresh an
 * entry) and size-bounded: total payload bytes and entry count. The
 * most recently touched entry is never evicted, so one oversized
 * result is still fetchable at least once.
 */
#ifndef IMPSIM_SERVER_RESULT_STORE_HPP
#define IMPSIM_SERVER_RESULT_STORE_HPP

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"

namespace impsim {
namespace server {

/** Manifest of one stored terminal job. */
struct StoredResult
{
    std::uint64_t id = 0;
    /** Terminal state: "done" or "cancelled". */
    std::string state = "done";
    /** Expanded runs finished / in the job's grid. */
    std::size_t done = 0;
    std::size_t total = 0;
    /** Payload size in bytes (0 for cancelled jobs). */
    std::uint64_t bytes = 0;
    /** Client-supplied origin (config path) for LIST output. */
    std::string origin;
    /** LRU stamp: larger = more recently touched. */
    std::uint64_t seq = 0;
};

/**
 * Thread-safe terminal-job archive with LRU eviction. All methods
 * may be called from any server thread.
 */
class ResultStore
{
  public:
    /**
     * Manifests kept before LRU eviction: cancelled jobs store zero
     * payload bytes, so a byte bound alone would let them accumulate
     * without limit.
     */
    static constexpr std::size_t kMaxEntries = 4096;

    /**
     * @param dir results directory; empty = in-memory only.
     * @param maxBytes total payload bytes kept before LRU eviction.
     */
    explicit ResultStore(std::string dir,
                         std::uint64_t maxBytes = 256ull << 20);

    /**
     * Creates the directory and indexes existing manifests (no-op in
     * memory mode). Call once before serving.
     * @return the highest stored job id, 0 if none — the server
     *         resumes its id counter above it so reused ids cannot
     *         collide with archived results.
     * @throws std::runtime_error if the directory cannot be created.
     */
    std::uint64_t load() IMPSIM_EXCLUDES(mutex_);

    /** Archives a terminal job (payload empty for cancelled). */
    void put(StoredResult meta, const std::string &payload)
        IMPSIM_EXCLUDES(mutex_);

    /** Manifest lookup without touching LRU order. */
    bool manifest(std::uint64_t id, StoredResult &out) const
        IMPSIM_EXCLUDES(mutex_);

    /**
     * Reads a stored payload back and refreshes its LRU stamp.
     * @return false if @p id is unknown (or its files were removed
     *         behind the store's back).
     */
    bool fetch(std::uint64_t id, StoredResult &meta,
               std::string &payload) IMPSIM_EXCLUDES(mutex_);

    /** All manifests, ascending id. */
    std::vector<StoredResult> list() const IMPSIM_EXCLUDES(mutex_);

    /**
     * True iff @p id was archived here once but has since been
     * evicted (LRU bounds, or its files vanished behind the store's
     * back) — lets FETCH/STATUS answer "gone" instead of the
     * unknown-id error. In-memory bookkeeping only: a restart forgets
     * evictions, and those ids answer as unknown again. One id per
     * evicted job, so the set grows with jobs served, not payload.
     */
    bool wasEvicted(std::uint64_t id) const IMPSIM_EXCLUDES(mutex_);

    std::size_t entries() const IMPSIM_EXCLUDES(mutex_);

  private:
    /** Evicts LRU entries beyond the bounds. */
    void evictLocked() IMPSIM_REQUIRES(mutex_);
    void eraseEntryLocked(std::uint64_t id) IMPSIM_REQUIRES(mutex_);
    std::string manifestPath(std::uint64_t id) const;
    std::string payloadPath(std::uint64_t id) const;
    /** Writes @p meta's manifest file (tmp + rename). */
    bool writeManifest(const StoredResult &meta) const;

    mutable Mutex mutex_;
    const std::string dir_;
    const std::uint64_t maxBytes_;
    std::uint64_t seq_ IMPSIM_GUARDED_BY(mutex_) = 0;
    std::uint64_t bytesTotal_ IMPSIM_GUARDED_BY(mutex_) = 0;
    std::map<std::uint64_t, StoredResult> entries_
        IMPSIM_GUARDED_BY(mutex_);
    /** Memory mode only: payloads keyed like entries_. */
    std::map<std::uint64_t, std::string> payloads_
        IMPSIM_GUARDED_BY(mutex_);
    /** Ids archived once and evicted since (wasEvicted). */
    std::set<std::uint64_t> evicted_ IMPSIM_GUARDED_BY(mutex_);
};

} // namespace server
} // namespace impsim

#endif // IMPSIM_SERVER_RESULT_STORE_HPP
