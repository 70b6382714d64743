#include "serve/batcher.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace smash::serve
{

namespace
{

/** Registry series of one FlushReason (obs::FlushReason order). */
obs::Counter&
globalFlushCounter(obs::FlushReason reason)
{
    static obs::Counter* by_reason[obs::kNumFlushReasons] = {
        &obs::MetricsRegistry::global().counter(
            "smash_batcher_flushes_total{reason=\"size\"}"),
        &obs::MetricsRegistry::global().counter(
            "smash_batcher_flushes_total{reason=\"deadline\"}"),
        &obs::MetricsRegistry::global().counter(
            "smash_batcher_flushes_total{reason=\"priority\"}"),
        &obs::MetricsRegistry::global().counter(
            "smash_batcher_flushes_total{reason=\"manual\"}"),
        &obs::MetricsRegistry::global().counter(
            "smash_batcher_flushes_total{reason=\"idle\"}"),
    };
    return *by_reason[static_cast<std::size_t>(reason)];
}

/** Best (numerically lowest) priority present in a batch. */
Priority
topPriority(const std::vector<Request>& batch)
{
    Priority best = Priority::kBatch;
    for (const Request& r : batch)
        best = std::min(best, r.options.priority);
    return best;
}

} // namespace

Batcher::Batcher(Index max_batch, std::chrono::microseconds max_delay,
                 std::chrono::microseconds batch_delay, FlushFn flush,
                 int compute_slots)
    : max_batch_(max_batch), max_delay_(max_delay),
      batch_delay_(batch_delay), flush_(std::move(flush)),
      slots_(compute_slots)
{
    // Validate before the timer thread exists: a throw with a
    // joinable thread member would std::terminate during unwinding.
    SMASH_CHECK(max_batch_ >= 1, "batch size must be positive");
    SMASH_CHECK(flush_ != nullptr, "batcher needs a flush callback");
    SMASH_CHECK(slots_ >= 0, "compute slots must be non-negative");
    timer_ = std::thread([this] { timerLoop(); });
}

Batcher::~Batcher()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    timer_.join();
    flushAll(); // the timer is gone; drain whatever is left
}

Batcher::Clock::time_point
Batcher::flushBy(const Request& request) const
{
    // The priority caps the wait; the request's own deadline can
    // only tighten it (an expiring request must surface in time to
    // be failed with kDeadlineExceeded, not rot in the queue).
    Clock::time_point cap;
    switch (request.options.priority) {
      case Priority::kHigh:
        cap = Clock::now();
        break;
      case Priority::kNormal:
        cap = Clock::now() + max_delay_;
        break;
      case Priority::kBatch:
        cap = Clock::now() + batch_delay_;
        break;
    }
    return std::min(cap, request.expiry);
}

std::vector<Request>
Batcher::takeLocked(Queue& q)
{
    std::vector<Request> batch;
    batch.swap(q.pending);
    q.top = Priority::kBatch;
    if (slots_ > 0)
        ++computing_;
    return batch;
}

void
Batcher::noteFlush(obs::FlushReason reason, std::size_t batch_size)
{
    flushes_[static_cast<std::size_t>(reason)].inc();
    globalFlushCounter(reason).inc();
    static obs::Histogram& width =
        obs::MetricsRegistry::global().histogram(
            "smash_batcher_flush_width");
    width.record(batch_size);
    SMASH_TRACE_EVENT(obs::EventKind::kBatchFlush,
                      static_cast<std::uint32_t>(reason),
                      static_cast<std::uint32_t>(batch_size));
}

void
Batcher::enqueue(const QueueKey& key, Request request)
{
    const Priority priority = request.options.priority;
    static obs::Counter& enqueues =
        obs::MetricsRegistry::global().counter(
            "smash_batcher_enqueues_total");
    enqueues.inc();
    SMASH_TRACE_EVENT(obs::EventKind::kBatchEnqueue,
                      static_cast<std::uint32_t>(key.op),
                      static_cast<std::uint32_t>(priority));
    std::vector<Request> batch;
    obs::FlushReason reason;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Queue& q = queues_[key];
        if (q.pending.empty())
            q.due = Clock::time_point::max();
        const Clock::time_point cap = flushBy(request);
        const bool tightened = cap < q.due;
        q.due = std::min(q.due, cap);
        q.top = std::min(q.top, priority);
        q.pending.push_back(std::move(request));
        if (static_cast<Index>(q.pending.size()) >= max_batch_)
            reason = obs::FlushReason::kSize;
        else if (priority == Priority::kHigh)
            reason = obs::FlushReason::kPriority;
        else if (priority == Priority::kNormal && computing_ < slots_)
            reason = obs::FlushReason::kIdle; // nothing to wait for
        else {
            if (tightened)
                cv_.notify_all(); // timer re-evaluates its target
            return;
        }
        batch = takeLocked(q);
    }
    noteFlush(reason, batch.size());
    // Flush inline on the enqueuing thread, outside the lock (the
    // callback may enqueue pool work or run compute).
    flush_(key, std::move(batch));
}

void
Batcher::computeDone()
{
    if (slots_ == 0)
        return;
    QueueKey key;
    std::vector<Request> batch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        SMASH_CHECK(computing_ > 0, "computeDone without a flush");
        if (--computing_ >= slots_)
            return; // timer flushes overbooked the slots
        // The freed slot goes to the parked latency-bound queue
        // that is due first; kBatch-only queues keep coalescing.
        Queue* next = nullptr;
        for (auto& [k, q] : queues_) {
            if (q.pending.empty() || q.top == Priority::kBatch)
                continue;
            if (next == nullptr || q.due < next->due) {
                next = &q;
                key = k;
            }
        }
        if (next == nullptr)
            return;
        batch = takeLocked(*next);
    }
    noteFlush(obs::FlushReason::kIdle, batch.size());
    flush_(key, std::move(batch));
}

void
Batcher::flushAll()
{
    std::vector<std::pair<QueueKey, std::vector<Request>>> due;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& [key, q] : queues_)
            if (!q.pending.empty())
                due.emplace_back(key, takeLocked(q));
    }
    // Priority-aware ordering: queues holding high-priority work
    // reach the pipeline first.
    std::stable_sort(due.begin(), due.end(),
                     [](const auto& a, const auto& b) {
                         return topPriority(a.second) <
                             topPriority(b.second);
                     });
    for (auto& [key, batch] : due) {
        noteFlush(obs::FlushReason::kManual, batch.size());
        flush_(key, std::move(batch));
    }
}

void
Batcher::timerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (stop_)
            return;
        // Earliest flush time among the non-empty queues.
        bool any = false;
        Clock::time_point earliest = Clock::time_point::max();
        for (const auto& [key, q] : queues_) {
            if (!q.pending.empty() && q.due < earliest) {
                earliest = q.due;
                any = true;
            }
        }
        if (!any) {
            cv_.wait(lock); // woken by enqueue() or the destructor
            continue;
        }
        if (cv_.wait_until(lock, earliest) ==
            std::cv_status::no_timeout)
            continue; // new request or stop: recompute the target

        // Flush every queue that is due, best priority first.
        const Clock::time_point now = Clock::now();
        std::vector<std::pair<QueueKey, std::vector<Request>>> due;
        for (auto& [key, q] : queues_)
            if (!q.pending.empty() && q.due <= now)
                due.emplace_back(key, takeLocked(q));
        std::stable_sort(due.begin(), due.end(),
                         [](const auto& a, const auto& b) {
                             return topPriority(a.second) <
                                 topPriority(b.second);
                         });
        lock.unlock();
        for (auto& [key, batch] : due) {
            noteFlush(obs::FlushReason::kDeadline, batch.size());
            flush_(key, std::move(batch));
        }
        lock.lock();
    }
}

} // namespace smash::serve
