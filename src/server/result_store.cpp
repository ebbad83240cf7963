/**
 * @file
 * On-disk / in-memory result store with LRU eviction.
 */
#include "server/result_store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include "server/protocol.hpp"

namespace impsim {
namespace server {

namespace {

/** mkdir -p: creates every missing component of @p path. */
bool
makeDirs(const std::string &path)
{
    std::string partial;
    std::size_t i = 0;
    while (i <= path.size()) {
        if (i == path.size() || path[i] == '/') {
            if (!partial.empty() && partial != "/") {
                if (::mkdir(partial.c_str(), 0755) != 0 &&
                    errno != EEXIST)
                    return false;
            }
            if (i == path.size())
                break;
        }
        partial += path[i];
        ++i;
    }
    return true;
}

/** Reads a whole file. @return false if it cannot be opened. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/**
 * Parses one "key = value" manifest. Unknown keys are skipped so old
 * servers can read manifests written by newer ones.
 */
bool
parseManifest(const std::string &text, StoredResult &out)
{
    bool sawId = false;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        auto trim = [](std::string s) {
            std::size_t b = s.find_first_not_of(" \t");
            std::size_t e = s.find_last_not_of(" \t\r");
            return b == std::string::npos
                       ? std::string()
                       : s.substr(b, e - b + 1);
        };
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        std::uint64_t num = 0;
        if (key == "id") {
            if (!parseNumber(value, num))
                return false;
            out.id = num;
            sawId = true;
        } else if (key == "state") {
            out.state = value;
        } else if (key == "done" && parseNumber(value, num)) {
            out.done = static_cast<std::size_t>(num);
        } else if (key == "total" && parseNumber(value, num)) {
            out.total = static_cast<std::size_t>(num);
        } else if (key == "bytes" && parseNumber(value, num)) {
            out.bytes = num;
        } else if (key == "seq" && parseNumber(value, num)) {
            out.seq = num;
        } else if (key == "origin") {
            out.origin = unescapeToken(value);
        }
    }
    return sawId && (out.state == "done" || out.state == "cancelled");
}

} // namespace

ResultStore::ResultStore(std::string dir, std::uint64_t maxBytes)
    : dir_(std::move(dir)), maxBytes_(maxBytes)
{
}

std::string
ResultStore::manifestPath(std::uint64_t id) const
{
    return dir_ + "/" + std::to_string(id) + ".manifest";
}

std::string
ResultStore::payloadPath(std::uint64_t id) const
{
    return dir_ + "/" + std::to_string(id) + ".csv";
}

std::uint64_t
ResultStore::load()
{
    MutexLock lock(mutex_);
    if (dir_.empty())
        return 0;
    if (!makeDirs(dir_))
        throw std::runtime_error("cannot create results dir " + dir_ +
                                 ": " + std::strerror(errno));

    DIR *d = ::opendir(dir_.c_str());
    if (!d)
        throw std::runtime_error("cannot open results dir " + dir_ +
                                 ": " + std::strerror(errno));
    std::uint64_t maxId = 0;
    while (dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        const std::string suffix = ".manifest";
        if (name.size() <= suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        std::string text;
        StoredResult meta;
        if (!readFile(dir_ + "/" + name, text) ||
            !parseManifest(text, meta))
            continue; // torn write or foreign file: skip, don't serve
        entries_[meta.id] = meta;
        bytesTotal_ += meta.bytes;
        seq_ = std::max(seq_, meta.seq);
        maxId = std::max(maxId, meta.id);
    }
    ::closedir(d);
    evictLocked();
    return maxId;
}

bool
ResultStore::writeManifest(const StoredResult &meta) const
{
    // tmp + rename: a crash mid-write leaves either the old manifest
    // or a ".tmp" that load() ignores — never a half manifest that
    // parses to garbage.
    const std::string path = manifestPath(meta.id);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << "id = " << meta.id << "\n"
            << "state = " << meta.state << "\n"
            << "done = " << meta.done << "\n"
            << "total = " << meta.total << "\n"
            << "bytes = " << meta.bytes << "\n"
            << "seq = " << meta.seq << "\n"
            << "origin = " << escapeToken(meta.origin) << "\n";
        if (!out.flush())
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void
ResultStore::put(StoredResult meta, const std::string &payload)
{
    MutexLock lock(mutex_);
    meta.bytes = payload.size();
    meta.seq = ++seq_;
    if (!dir_.empty()) {
        // Disk trouble below drops the entry rather than indexing a
        // payload that cannot be read back verbatim — loudly, so an
        // operator can tell a full disk from normal LRU eviction.
        std::ofstream out(payloadPath(meta.id),
                          std::ios::binary | std::ios::trunc);
        out << payload;
        if (!out.flush()) {
            std::fprintf(stderr,
                         "result store: cannot write %s; job %llu's "
                         "result will not be fetchable\n",
                         payloadPath(meta.id).c_str(),
                         static_cast<unsigned long long>(meta.id));
            std::remove(payloadPath(meta.id).c_str());
            return;
        }
        if (!writeManifest(meta)) {
            std::fprintf(stderr,
                         "result store: cannot write %s; job %llu's "
                         "result will not be fetchable\n",
                         manifestPath(meta.id).c_str(),
                         static_cast<unsigned long long>(meta.id));
            std::remove(payloadPath(meta.id).c_str());
            return;
        }
    } else {
        payloads_[meta.id] = payload;
    }
    auto it = entries_.find(meta.id);
    if (it != entries_.end())
        bytesTotal_ -= it->second.bytes; // overwrite: drop old size
    entries_[meta.id] = meta;
    bytesTotal_ += meta.bytes;
    evicted_.erase(meta.id); // re-archived: no longer "gone"
    evictLocked();
}

bool
ResultStore::manifest(std::uint64_t id, StoredResult &out) const
{
    MutexLock lock(mutex_);
    auto it = entries_.find(id);
    if (it == entries_.end())
        return false;
    out = it->second;
    return true;
}

bool
ResultStore::fetch(std::uint64_t id, StoredResult &meta,
                   std::string &payload)
{
    MutexLock lock(mutex_);
    auto it = entries_.find(id);
    if (it == entries_.end())
        return false;
    if (dir_.empty()) {
        payload = payloads_[id];
    } else if (it->second.bytes == 0) {
        payload.clear();
    } else if (!readFile(payloadPath(id), payload)) {
        // Files vanished behind our back: drop the stale index entry.
        eraseEntryLocked(id);
        return false;
    }
    it->second.seq = ++seq_;
    if (!dir_.empty())
        writeManifest(it->second); // persist the LRU touch
    meta = it->second;
    return true;
}

std::vector<StoredResult>
ResultStore::list() const
{
    MutexLock lock(mutex_);
    std::vector<StoredResult> out;
    out.reserve(entries_.size());
    for (const auto &entry : entries_)
        out.push_back(entry.second);
    return out;
}

std::size_t
ResultStore::entries() const
{
    MutexLock lock(mutex_);
    return entries_.size();
}

bool
ResultStore::wasEvicted(std::uint64_t id) const
{
    MutexLock lock(mutex_);
    return evicted_.count(id) != 0;
}

void
ResultStore::eraseEntryLocked(std::uint64_t id)
{
    auto it = entries_.find(id);
    if (it == entries_.end())
        return;
    bytesTotal_ -= it->second.bytes;
    entries_.erase(it);
    evicted_.insert(id);
    if (dir_.empty()) {
        payloads_.erase(id);
    } else {
        std::remove(payloadPath(id).c_str());
        std::remove(manifestPath(id).c_str());
    }
}

void
ResultStore::evictLocked()
{
    while (entries_.size() > 1 &&
           (bytesTotal_ > maxBytes_ || entries_.size() > kMaxEntries)) {
        // Victim: smallest LRU stamp. The newest entry never goes, so
        // an oversized result is fetchable at least once.
        std::uint64_t victim = 0;
        std::uint64_t best = UINT64_MAX;
        for (const auto &entry : entries_) {
            if (entry.second.seq < best) {
                best = entry.second.seq;
                victim = entry.first;
            }
        }
        eraseEntryLocked(victim);
    }
}

} // namespace server
} // namespace impsim
