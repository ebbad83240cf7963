/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A calendar queue tuned for the simulator's schedule shape: events
 * are overwhelmingly near-future (L1/NoC/DRAM latencies of a few
 * cycles to a few thousand), so the queue keeps a power-of-two ring
 * of per-tick FIFOs covering a fixed horizon and spills the rare
 * far-future event (deep bandwidth queueing) to a small binary heap.
 *
 * Storage: every pending callback lives in one 64-byte cell of a
 * slab. A ring slot is an 8-byte {head, tail} pair of cell indices,
 * its FIFO is linked through a parallel array of next indices, and
 * the overflow heap orders 24-byte {tick, seq, cell} keys. A closure
 * is built in its cell, invoked there and destroyed right after it
 * runs; nothing ever moves it.
 *
 * Cells are recycled last-in-first-out, so the next schedule reuses
 * the cell that just ran. The queue's working set is then the few
 * cells in flight plus the ring's index pairs, both of which stay in
 * cache, instead of per-tick buffers that went cold since the ring
 * last came round.
 *
 * The slab grows in fixed-size chunks that are never reallocated: a
 * callback runs from its own cell while it schedules more events, so
 * growing the slab must not move that cell.
 *
 * Ordering contract (unchanged from the binary-heap implementation):
 * events fire in tick order, ties on the same tick in scheduling
 * order, which makes whole-system runs deterministic. An overflow
 * event was scheduled before every ring event of its tick, so it
 * fires ahead of them.
 */
#ifndef IMPSIM_COMMON_EVENT_QUEUE_HPP
#define IMPSIM_COMMON_EVENT_QUEUE_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/small_fn.hpp"
#include "common/types.hpp"

namespace impsim {

/**
 * Callback invoked when an event fires, and the completion type of
 * every memory request: a demand's or a PTE read's `done` is an
 * EventFn that the L1 schedules as is on a hit, so a hit costs one
 * event and no wrapper closure. 48 inline bytes cover every hot
 * capture — the largest is an L2 prefetch's fill (`this`, line,
 * pattern and ready tick, 32 bytes); a core's load completion is 24.
 * Demand retries, upgrade replays, DTLB-miss continuations and
 * PerfPref stores capture a whole EventFn and take SmallFn's heap
 * fallback, but those are corner cases or TLB-miss paths. At this
 * capacity an EventFn is exactly 64 bytes, the queue's cell size.
 */
using EventFn = SmallFn<void(), 48>;

/**
 * Tick-ordered event queue driving the whole simulation.
 *
 * Components schedule callbacks at absolute ticks; System::run() pops
 * until the queue drains or a tick limit is hit.
 */
class EventQueue
{
  public:
    /** Cells per slab chunk; a chunk never moves once allocated. */
    static constexpr std::size_t kChunkCells = 1024;

    EventQueue() = default;
    ~EventQueue() { destroyPending(); }

    // Components hold references to the queue, and a running callback
    // lives in one of its cells: the queue never moves.
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    EventQueue(EventQueue &&) = delete;
    EventQueue &operator=(EventQueue &&) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /** Total events executed so far (for perf diagnostics). */
    std::uint64_t executed() const { return executed_; }

    /**
     * Schedules @p fn at absolute tick @p when. Templated so the
     * callable is constructed directly in its cell — the per-event
     * cost is one construction, not a chain of type-erased moves.
     * @pre when >= now()
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        IMPSIM_CHECK(when >= now_, "event scheduled in the past");
        if (free_ == kNil)
            grow();
        std::uint32_t c = free_;
        ::new (cellAt(c)) EventFn(std::forward<F>(fn));
        free_ = next_[c];
        ++pending_;
        if (when - now_ < kBuckets) {
            // Within the horizon every live ring tick is unique mod
            // kBuckets, so the slot either is empty or already holds
            // tick `when` — appending preserves FIFO either way.
            std::size_t slot = when & kBucketMask;
            Slot &s = ring_[slot];
            next_[c] = kNil;
            if (s.head == kNil) {
                s.head = c;
                markSlot(slot);
            } else {
                next_[s.tail] = c;
            }
            s.tail = c;
        } else {
            overflow_.push_back(FarKey{when, nextSeq_++, c});
            std::push_heap(overflow_.begin(), overflow_.end(),
                           std::greater<>{});
        }
    }

    /** Schedules @p fn @p delta ticks from now. */
    template <typename F>
    void
    scheduleAfter(Tick delta, F &&fn)
    {
        schedule(now_ + delta, std::forward<F>(fn));
    }

    /**
     * Runs events until the queue is empty or now() exceeds @p limit.
     * @return true if the queue drained, false if the limit was hit.
     */
    bool
    run(Tick limit = kNoTick)
    {
        while (pending_ > 0) {
            Tick t = nextTick();
            if (t > limit)
                return false;
            drainTick(t);
        }
        return true;
    }

    /** Executes at most one event; returns false if queue is empty. */
    bool
    step()
    {
        if (pending_ == 0)
            return false;
        Tick t = nextTick();
        std::size_t slot = readySlot(t);
        Slot &s = ring_[slot];
        std::uint32_t c = s.head;
        s.head = next_[c];
        if (s.head == kNil)
            clearSlot(slot);
        fire(c);
        return true;
    }

    /** Resets time and destroys all pending events. */
    void
    reset()
    {
        destroyPending();
        ring_.fill(Slot{});
        bitmap_.fill(0);
        summary_ = 0;
        overflow_.clear();
        free_ = kNil;
        for (std::size_t c = next_.size(); c-- > 0;) {
            next_[c] = free_;
            free_ = static_cast<std::uint32_t>(c);
        }
        now_ = 0;
        nextSeq_ = 0;
        executed_ = 0;
        pending_ = 0;
    }

  private:
    /**
     * Ring horizon in ticks. Covers every latency the memory system
     * composes directly (L1 + NoC + L2 + DRAM plus typical queueing);
     * only deeply queued completions overflow to the heap. Kept small
     * enough that the slots stay cache-resident — the ring is probed
     * on every schedule and drain, and a larger horizon costs more in
     * slot misses than it saves in heap traffic.
     */
    static constexpr std::size_t kBuckets = 2048;
    static constexpr std::size_t kBucketMask = kBuckets - 1;

    /** End-of-list / no-cell index. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** Raw storage for one EventFn; live only while its event pends. */
    struct alignas(EventFn) Cell
    {
        unsigned char bytes[sizeof(EventFn)];
    };
    static_assert(sizeof(Cell) == 64, "an event cell is 64 bytes");
    static_assert((kChunkCells & (kChunkCells - 1)) == 0,
                  "chunk size must be a power of two");

    /**
     * One calendar slot: a FIFO of same-tick cells. `tail` is
     * meaningful only while `head != kNil`, so popping the last cell
     * needs no second store.
     */
    struct Slot
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    /** Overflow heap key; the seq breaks same-tick ties FIFO. */
    struct FarKey
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t cell;

        bool
        operator>(const FarKey &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    void *
    cellAt(std::uint32_t c)
    {
        return chunks_[c / kChunkCells][c % kChunkCells].bytes;
    }

    EventFn &
    fnAt(std::uint32_t c)
    {
        return *std::launder(reinterpret_cast<EventFn *>(cellAt(c)));
    }

    /**
     * Adds one chunk and makes its cells the free list.
     * @pre free_ == kNil
     */
    void
    grow()
    {
        std::size_t base = next_.size();
        IMPSIM_CHECK(base + kChunkCells < kNil, "event slab exhausted");
        chunks_.push_back(std::unique_ptr<Cell[]>(new Cell[kChunkCells]));
        next_.resize(base + kChunkCells);
        for (std::size_t i = base; i + 1 < next_.size(); ++i)
            next_[i] = static_cast<std::uint32_t>(i + 1);
        next_.back() = kNil;
        free_ = static_cast<std::uint32_t>(base);
    }

    /** Runs cell @p c's callback, destroys it and frees the cell. */
    void
    fire(std::uint32_t c)
    {
        --pending_;
        ++executed_;
        EventFn &fn = fnAt(c);
        fn();
        fn.~EventFn();
        next_[c] = free_;
        free_ = c;
    }

    /** Destroys every pending closure (their cells are not freed). */
    void
    destroyPending()
    {
        for (const Slot &s : ring_)
            for (std::uint32_t c = s.head; c != kNil; c = next_[c])
                fnAt(c).~EventFn();
        for (const FarKey &k : overflow_)
            fnAt(k.cell).~EventFn();
    }

    /**
     * Earliest pending tick.
     * @pre pending_ > 0
     */
    Tick
    nextTick() const
    {
        Tick ring = nextRingTick();
        if (!overflow_.empty() && overflow_.front().when < ring)
            return overflow_.front().when;
        return ring;
    }

    /** Earliest non-empty ring tick, or kNoTick if the ring is empty. */
    Tick
    nextRingTick() const
    {
        // A set bit at ring distance d from now_ means tick now_ + d:
        // live ring ticks lie in [now_, now_ + kBuckets), and the slot
        // index determines the tick uniquely within that window.
        std::size_t start = now_ & kBucketMask;
        std::size_t word = start >> 6;
        std::uint64_t w = bitmap_[word] >> (start & 63);
        if (w != 0)
            return now_ + ctz(w);
        // Sparse phases (DRAM-bound single-core stretches) can leave
        // events hundreds of ticks apart; the summary word finds the
        // next non-empty bitmap word in O(1) instead of a linear
        // scan. Circular order from `word`: summary bits strictly
        // above it, then the wrapped tail at or below it (the tail
        // re-covers `word` itself for slot bits below `start`).
        auto wordTick = [&](std::size_t idx) -> Tick {
            std::size_t bit = (idx << 6) + ctz(bitmap_[idx]);
            std::size_t dist = (bit - start + kBuckets) & kBucketMask;
            if (dist == 0)
                dist = kBuckets; // Wrapped fully: bit < start only.
            return now_ + dist;
        };
        std::uint64_t below = (std::uint64_t{2} << word) - 1;
        std::uint64_t s = summary_ & ~below;
        if (s != 0)
            return wordTick(ctz(s));
        s = summary_ & below;
        if (s != 0)
            return wordTick(ctz(s));
        return kNoTick;
    }

    /**
     * Advances now() to @p t and returns its slot, first moving any
     * overflow events due at @p t to the front of the slot's FIFO:
     * they were scheduled strictly earlier than every ring event of
     * the same tick. @p t is the earliest pending tick, so the slot
     * holds tick @p t or nothing.
     */
    std::size_t
    readySlot(Tick t)
    {
        std::size_t slot = t & kBucketMask;
        now_ = t;
        if (overflow_.empty() || overflow_.front().when != t)
            return slot;
        std::uint32_t first = kNil;
        std::uint32_t last = kNil;
        while (!overflow_.empty() && overflow_.front().when == t) {
            std::uint32_t c = overflow_.front().cell;
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          std::greater<>{});
            overflow_.pop_back();
            if (first == kNil)
                first = c;
            else
                next_[last] = c;
            last = c;
        }
        Slot &s = ring_[slot];
        next_[last] = s.head;
        if (s.head == kNil) {
            s.tail = last;
            markSlot(slot);
        }
        s.head = first;
        return slot;
    }

    /** Executes every event at tick @p t, including ones it spawns. */
    void
    drainTick(Tick t)
    {
        std::size_t slot = readySlot(t);
        Slot &s = ring_[slot];
        // Same-tick events a callback schedules append to this FIFO
        // and run in this loop; far events go to other slots or the
        // overflow heap as usual. Not re-entrant: callbacks schedule,
        // they never run() or step().
        while (s.head != kNil) {
            std::uint32_t c = s.head;
            s.head = next_[c];
            fire(c);
        }
        clearSlot(slot);
    }

    /** Flags slot @p slot non-empty in both bitmap levels. */
    void
    markSlot(std::size_t slot)
    {
        std::size_t word = slot >> 6;
        bitmap_[word] |= std::uint64_t{1} << (slot & 63);
        summary_ |= std::uint64_t{1} << word;
    }

    /** Flags slot @p slot empty in both bitmap levels. */
    void
    clearSlot(std::size_t slot)
    {
        std::size_t word = slot >> 6;
        bitmap_[word] &= ~(std::uint64_t{1} << (slot & 63));
        if (bitmap_[word] == 0)
            summary_ &= ~(std::uint64_t{1} << word);
    }

    static int
    ctz(std::uint64_t v)
    {
        return __builtin_ctzll(v);
    }

    // The summary fits one word: nextRingTick()'s two-probe walk
    // relies on it.
    static_assert(kBuckets / 64 <= 64,
                  "summary scan is written for a one-word summary");

    std::array<Slot, kBuckets> ring_{};
    std::array<std::uint64_t, kBuckets / 64> bitmap_{}; ///< Non-empty slots.
    std::uint64_t summary_ = 0; ///< Non-empty words of bitmap_.
    std::vector<std::unique_ptr<Cell[]>> chunks_; ///< The slab.
    std::vector<std::uint32_t> next_; ///< Per cell: FIFO or free link.
    std::uint32_t free_ = kNil;       ///< Free list head (LIFO).
    std::vector<FarKey> overflow_;    ///< Min-heap on (when, seq).
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;
};

} // namespace impsim

#endif // IMPSIM_COMMON_EVENT_QUEUE_HPP
