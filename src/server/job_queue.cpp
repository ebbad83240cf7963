/**
 * @file
 * Bounded fair job queue: priority buckets, round-robin clients,
 * per-client active quotas.
 */
#include "server/job_queue.hpp"

#include <algorithm>
#include <vector>

namespace impsim {
namespace server {

bool
FairJobQueue::push(std::shared_ptr<ServerJob> job)
{
    {
        MutexLock lock(mutex_);
        if (closed_ || count_ >= capacity_)
            return false;
        Bucket &bucket = buckets_[job->priority];
        std::deque<std::shared_ptr<ServerJob>> &fifo =
            bucket.perClient[job->clientId];
        if (fifo.empty())
            bucket.rotation.push_back(job->clientId);
        fifo.push_back(std::move(job));
        ++count_;
    }
    cv_.notify_one();
    return true;
}

std::shared_ptr<ServerJob>
FairJobQueue::popEligibleLocked()
{
    for (auto &bp : buckets_) {
        Bucket &bucket = bp.second;
        for (std::size_t k = 0; k < bucket.rotation.size(); ++k) {
            std::uint64_t client = bucket.rotation[k];
            // Quota: skip clients already running their share. Skipped
            // clients keep their rotation position. A closed queue is
            // only drained to cancel, so the quota no longer applies.
            if (!closed_ && quota_ > 0) {
                auto it = active_.find(client);
                if (it != active_.end() && it->second >= quota_)
                    continue;
            }
            std::deque<std::shared_ptr<ServerJob>> &fifo =
                bucket.perClient[client];
            std::shared_ptr<ServerJob> job = std::move(fifo.front());
            fifo.pop_front();
            bucket.rotation.erase(
                bucket.rotation.begin() + static_cast<std::ptrdiff_t>(k));
            if (fifo.empty())
                bucket.perClient.erase(client);
            else
                bucket.rotation.push_back(client);
            --count_;
            ++active_[job->clientId];
            int served = bp.first;
            if (bucket.perClient.empty())
                buckets_.erase(served);
            agePassedOverLocked(served);
            return job;
        }
    }
    return nullptr;
}

void
FairJobQueue::agePassedOverLocked(int servedPriority)
{
    // Two passes: detach every job due for promotion first, then
    // reinsert one level up — reinsertion mutates buckets_ and must
    // not run under the iteration.
    std::vector<std::shared_ptr<ServerJob>> promote;
    for (auto &bp : buckets_) {
        if (bp.first >= servedPriority)
            continue; // buckets_ is ordered high-to-low.
        Bucket &bucket = bp.second;
        if (bucket.rotation.empty())
            continue;
        if (++bucket.skipped < kAgingPops)
            continue;
        bucket.skipped = 0;
        // The level's next-in-rotation client's oldest job: promoting
        // front-of-FIFO keeps each client's own submissions in order.
        std::uint64_t client = bucket.rotation.front();
        std::deque<std::shared_ptr<ServerJob>> &fifo =
            bucket.perClient[client];
        promote.push_back(std::move(fifo.front()));
        fifo.pop_front();
        bucket.rotation.pop_front();
        if (fifo.empty())
            bucket.perClient.erase(client);
        else
            bucket.rotation.push_back(client);
    }
    if (promote.empty())
        return;
    for (auto it = buckets_.begin(); it != buckets_.end();) {
        if (it->second.perClient.empty())
            it = buckets_.erase(it);
        else
            ++it;
    }
    for (std::shared_ptr<ServerJob> &job : promote) {
        // The bumped priority sticks: once the job runs it also gets
        // the bigger pool partition, consistent with how it was
        // scheduled.
        job->priority = std::min(job->priority + 1, kMaxPriority);
        Bucket &bucket = buckets_[job->priority];
        std::deque<std::shared_ptr<ServerJob>> &fifo =
            bucket.perClient[job->clientId];
        if (fifo.empty())
            bucket.rotation.push_back(job->clientId);
        fifo.push_back(std::move(job));
    }
}

std::shared_ptr<ServerJob>
FairJobQueue::pop()
{
    MutexLock lock(mutex_);
    for (;;) {
        if (std::shared_ptr<ServerJob> job = popEligibleLocked())
            return job;
        if (closed_ && count_ == 0)
            return nullptr;
        cv_.wait(lock);
    }
}

void
FairJobQueue::finished(std::uint64_t clientId)
{
    {
        MutexLock lock(mutex_);
        auto it = active_.find(clientId);
        if (it != active_.end() && --it->second == 0)
            active_.erase(it);
    }
    // A freed quota slot can make a queued job eligible.
    cv_.notify_all();
}

std::shared_ptr<ServerJob>
FairJobQueue::remove(std::uint64_t id)
{
    MutexLock lock(mutex_);
    for (auto &bp : buckets_) {
        Bucket &bucket = bp.second;
        for (auto it = bucket.perClient.begin();
             it != bucket.perClient.end(); ++it) {
            std::deque<std::shared_ptr<ServerJob>> &fifo = it->second;
            auto jt =
                std::find_if(fifo.begin(), fifo.end(),
                             [&](const std::shared_ptr<ServerJob> &j) {
                                 return j->id == id;
                             });
            if (jt == fifo.end())
                continue;
            std::shared_ptr<ServerJob> job = std::move(*jt);
            fifo.erase(jt);
            if (fifo.empty()) {
                bucket.rotation.erase(std::find(bucket.rotation.begin(),
                                                bucket.rotation.end(),
                                                it->first));
                bucket.perClient.erase(it);
            }
            --count_;
            if (bucket.perClient.empty())
                buckets_.erase(bp.first);
            return job;
        }
    }
    return nullptr;
}

void
FairJobQueue::close()
{
    {
        MutexLock lock(mutex_);
        closed_ = true;
    }
    cv_.notify_all();
}

std::size_t
FairJobQueue::size() const
{
    MutexLock lock(mutex_);
    return count_;
}

} // namespace server
} // namespace impsim
