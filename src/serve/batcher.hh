/**
 * @file
 * Request batching for the serving layer.
 *
 * A Batcher coalesces concurrent requests into per-(matrix, op
 * class) queues (QueueKey): SpMV requests against one matrix merge
 * into one batched multi-RHS call, SpMM blocks concatenate into one
 * wide traversal, SpAdd merges share a queue for ordering.
 *
 * Flush rule (work-conserving for latency-bound work). A batcher
 * built with compute slots (a Session passes its pool size) tracks
 * how many flushed batches are computing; each flush takes a slot
 * and the pipeline hands it back through computeDone() once the
 * batch has computed. A queue flushes:
 *   - inline, when it reaches the maximum batch size (zero added
 *     latency at full load);
 *   - inline, when a kHigh request arrives (it drags any queued
 *     work along with it);
 *   - inline, when a kNormal request arrives and a slot is free —
 *     nothing else is computing that the request could wait for;
 *   - from computeDone(), which flushes the parked queue holding
 *     kNormal/kHigh work with the earliest flush time into the slot
 *     it frees, so batches form only from requests that arrived
 *     while every slot was busy (natural batching);
 *   - from the timer thread, when the queue's wait cap passes —
 *     the backstop that bounds kBatch waits and surfaces requests
 *     whose own deadline expired.
 * kBatch requests never take an idle slot: they wait for the size
 * cap or batch_delay, so bulk work still coalesces deeply. Without
 * slots (compute_slots == 0) there is no idle flush, and kNormal
 * requests wait for the size cap or max_delay.
 *
 * Priority-aware flush ordering: each request's priority caps its
 * queue's wait — kHigh flushes now, kNormal within max_delay,
 * kBatch within batch_delay — and a request's own deadline tightens
 * the cap further so expiring work is surfaced, not hoarded. When
 * several queues are due at once (timer or flushAll), queues
 * holding higher-priority requests flush first.
 *
 * Ownership/threading contract: the Batcher owns its queues and
 * timer thread; requests own their promises until a flush hands
 * them to the callback. enqueue()/flushAll()/computeDone() are
 * thread-safe, and the flush callback always runs with no Batcher
 * lock held (it may re-enter the pool or run compute inline). The
 * callback must outlive the Batcher, and every computeDone() call
 * must return before the Batcher is destroyed; destruction stops
 * the timer, then flushes every remaining queue (counted as manual
 * flushes).
 */

#ifndef SMASH_SERVE_BATCHER_HH
#define SMASH_SERVE_BATCHER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/request.hh"

namespace smash::serve
{

/** Coalesces per-(matrix, op) requests; flushes on size, a free
 *  compute slot, a high-priority arrival, or the wait cap. */
class Batcher
{
  public:
    using Clock = Request::Clock;
    /** Receives a full batch; called with no Batcher lock held. */
    using FlushFn =
        std::function<void(const QueueKey&, std::vector<Request>)>;

    /**
     * @param max_batch   flush threshold (1 disables coalescing:
     *        every request flushes immediately)
     * @param max_delay   wait cap of a queued kNormal request
     * @param batch_delay wait cap of a queued kBatch request
     *        (kHigh requests flush their queue immediately)
     * @param compute_slots batches that may compute at once; every
     *        flush takes one until computeDone() returns it. 0 turns
     *        the idle-slot flush off.
     */
    Batcher(Index max_batch, std::chrono::microseconds max_delay,
            std::chrono::microseconds batch_delay, FlushFn flush,
            int compute_slots = 0);

    Batcher(const Batcher&) = delete;
    Batcher& operator=(const Batcher&) = delete;

    /** Stops the timer and flushes everything still queued. */
    ~Batcher();

    /**
     * Add one request to the (matrix, op) queue of @p key. Flushes
     * inline when the queue reaches max_batch, the request is kHigh
     * priority, or it is kNormal and a compute slot is free;
     * otherwise the queue waits for a slot (kNormal) or the timer
     * (its priority/deadline-capped flush time).
     */
    void enqueue(const QueueKey& key, Request request);

    /**
     * One flushed batch finished computing: return its slot and, if
     * a parked queue holds kNormal or kHigh work, flush the one due
     * first into it (inline, on the calling thread). Call exactly
     * once per flushed batch; a no-op without compute slots.
     */
    void computeDone();

    /** Flush every queue now, highest-priority queues first. */
    void flushAll();

    Index maxBatch() const { return max_batch_; }
    /** Batches flushed by reaching max_batch. Per-instance read-
     *  throughs over the obs counters (which also feed the global
     *  smash_batcher_flushes_total{reason=...} series). */
    std::uint64_t
    sizeFlushes() const
    {
        return count(obs::FlushReason::kSize);
    }
    /** Batches flushed by the timer at a deadline. */
    std::uint64_t
    deadlineFlushes() const
    {
        return count(obs::FlushReason::kDeadline);
    }
    /** Batches flushed inline by a kHigh-priority arrival. */
    std::uint64_t
    priorityFlushes() const
    {
        return count(obs::FlushReason::kPriority);
    }
    /** Batches flushed by explicit flushAll() calls (including the
     *  destructor's final sweep). */
    std::uint64_t
    manualFlushes() const
    {
        return count(obs::FlushReason::kManual);
    }
    /** Batches flushed into a free compute slot (a kNormal arrival
     *  or computeDone()). */
    std::uint64_t
    idleFlushes() const
    {
        return count(obs::FlushReason::kIdle);
    }

  private:
    struct Queue
    {
        std::vector<Request> pending;
        /** Earliest wait cap among the pending requests. */
        Clock::time_point due = Clock::time_point::max();
        /** Best priority among the pending requests. */
        Priority top = Priority::kBatch;
    };

    /** Wait cap of one request, from its priority and deadline. */
    Clock::time_point flushBy(const Request& request) const;
    /** Empty @p q into a batch that takes a compute slot. Caller
     *  holds mutex_. */
    std::vector<Request> takeLocked(Queue& q);
    void timerLoop();
    /** Count one flush: the per-instance counter (accessor API)
     *  plus the process-global reason-labelled series and trace. */
    void noteFlush(obs::FlushReason reason, std::size_t batch_size);
    std::uint64_t
    count(obs::FlushReason reason) const
    {
        return flushes_[static_cast<std::size_t>(reason)].value();
    }

    const Index max_batch_;
    const std::chrono::microseconds max_delay_;
    const std::chrono::microseconds batch_delay_;
    const FlushFn flush_;
    const int slots_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::unordered_map<QueueKey, Queue, QueueKeyHash> queues_;
    /** Flushed batches not yet returned through computeDone(). */
    int computing_ = 0;
    /** Per-instance flush counters by obs::FlushReason (the
     *  accessor API above); the same events also bump the
     *  registry's global series. */
    obs::Counter flushes_[obs::kNumFlushReasons];
    bool stop_ = false;
    std::thread timer_; //!< started in the ctor body, after validation
};

} // namespace smash::serve

#endif // SMASH_SERVE_BATCHER_HH
