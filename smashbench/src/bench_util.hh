/**
 * @file
 * The benchmark's own arithmetic, kept apart from the workloads so
 * its tests can check it without a server: percentiles and the
 * sample-count rule, the per-request tally behind the end-to-end
 * metrics, bit-exact answer comparison, in-memory spans with
 * self-time, and the clustered generator's capacity check.
 */

#ifndef SMASHBENCH_BENCH_UTIL_HH
#define SMASHBENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hh"
#include "formats/coo_matrix.hh"
#include "formats/dense_matrix.hh"

namespace smashbench
{

using smash::Index;
using smash::Value;
using Clock = std::chrono::steady_clock;

inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- Percentiles. ---

/** Nearest-rank quantile @p q in [0, 1] of @p samples (sorted in
 *  place); 0 for an empty sample. */
inline double
quantile(std::vector<double>& samples, double q)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const auto n = samples.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return samples[rank - 1];
}

/** Samples strictly above the nearest-rank @p q quantile of @p n. */
inline std::size_t
samplesBeyond(std::size_t n, double q)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    return n - std::clamp<std::size_t>(rank, n == 0 ? 0 : 1, n);
}

/** A percentile is reported only when at least ten samples lie
 *  beyond it (so p99 needs >= 1000 samples). */
inline bool
supports(std::size_t n, double q)
{
    return samplesBeyond(n, q) >= 10;
}

// --- Per-request tally. ---

/**
 * What the end-to-end metrics are computed from. Every attempted
 * request lands here exactly once: an answer other than kOk (refused,
 * overloaded, expired, transport error) is a failure and misses the
 * latency limit; an ok answer adds a latency sample and counts as
 * within the limit when fast enough. A wrong answer is a mismatch —
 * it fails the whole run rather than counting as a failure.
 */
struct Tally
{
    double limitUs = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t withinLimit = 0;
    std::uint64_t mismatches = 0;
    std::vector<double> latencyUs; //!< ok answers only

    void
    ok(double latency_us)
    {
        ++attempted;
        latencyUs.push_back(latency_us);
        if (latency_us <= limitUs)
            ++withinLimit;
    }

    void
    fail()
    {
        ++attempted;
        ++failed;
    }

    void
    mismatch()
    {
        ++attempted;
        ++mismatches;
    }

    void
    merge(const Tally& o)
    {
        attempted += o.attempted;
        failed += o.failed;
        withinLimit += o.withinLimit;
        mismatches += o.mismatches;
        latencyUs.insert(latencyUs.end(), o.latencyUs.begin(),
                         o.latencyUs.end());
    }

    double
    failedFrac() const
    {
        return attempted ? double(failed) / double(attempted) : 1.0;
    }

    double
    withinLimitFrac() const
    {
        return attempted ? double(withinLimit) / double(attempted) : 0.0;
    }
};

// --- Bit-exact comparison. ---

inline bool
sameBits(const std::vector<Value>& a, const std::vector<Value>& b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Value)) == 0);
}

inline bool
sameBits(const smash::fmt::DenseMatrix& a,
         const smash::fmt::DenseMatrix& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
        sameBits(a.data(), b.data());
}

inline bool
sameBits(const smash::fmt::CooMatrix& a, const smash::fmt::CooMatrix& b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols() ||
        a.nnz() != b.nnz())
        return false;
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        const auto& x = a.entries()[i];
        const auto& y = b.entries()[i];
        if (x.row != y.row || x.col != y.col ||
            std::memcmp(&x.value, &y.value, sizeof(Value)) != 0)
            return false;
    }
    return true;
}

// --- Spans. ---

/** One timed call into a layer's public function. */
struct Span
{
    std::uint32_t name = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1; //!< index of the enclosing span
    std::uint64_t requestId = 0;

    std::int64_t
    durationNs() const
    {
        return endNs - startNs;
    }
};

/**
 * Self time of @p spans[i]: its duration minus the part of its
 * interval covered by its direct children (overlapping children are
 * counted once; parts outside the parent are ignored).
 */
inline std::int64_t
selfNs(const std::vector<Span>& spans, std::size_t i)
{
    const Span& p = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const Span& s : spans)
        if (s.parent == static_cast<std::int32_t>(i))
            kids.emplace_back(std::max(s.startNs, p.startNs),
                              std::min(s.endNs, p.endNs));
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = p.startNs;
    for (const auto& [b, e] : kids) {
        const std::int64_t from = std::max(b, reach);
        if (e > from) {
            covered += e - from;
            reach = e;
        }
    }
    return p.durationNs() - covered;
}

/**
 * Spans held in memory until the run ends. Disabled logs record
 * nothing (the end-to-end runs), so the untraced path costs one
 * branch per call site.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its index (-1 when disabled). */
    std::int32_t
    begin(const std::string& name, std::int32_t parent = -1,
          std::uint64_t request_id = 0)
    {
        if (!enabled_)
            return -1;
        const std::int64_t now = nowNs();
        std::lock_guard<std::mutex> lock(mutex_);
        Span s;
        s.name = intern(name);
        s.startNs = now;
        s.endNs = now;
        s.parent = parent;
        s.requestId = request_id;
        spans_.push_back(s);
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    void
    end(std::int32_t index)
    {
        if (index < 0)
            return;
        const std::int64_t now = nowNs();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(index)].endNs = now;
    }

    /** Durations (µs) of every span called @p name. */
    std::vector<double>
    durationsUs(const std::string& name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<double> out;
        const auto it = std::find(names_.begin(), names_.end(), name);
        if (it == names_.end())
            return out;
        const auto id = static_cast<std::uint32_t>(it - names_.begin());
        for (const Span& s : spans_)
            if (s.name == id)
                out.push_back(double(s.durationNs()) / 1e3);
        return out;
    }

    /** Summed self time (µs) of every span called @p name. */
    double
    selfUs(const std::string& name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = std::find(names_.begin(), names_.end(), name);
        if (it == names_.end())
            return 0;
        const auto id = static_cast<std::uint32_t>(it - names_.begin());
        double total = 0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == id)
                total += double(selfNs(spans_, i)) / 1e3;
        return total;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

  private:
    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    std::uint32_t
    intern(const std::string& name)
    {
        const auto it = std::find(names_.begin(), names_.end(), name);
        if (it != names_.end())
            return static_cast<std::uint32_t>(it - names_.begin());
        names_.push_back(name);
        return static_cast<std::uint32_t>(names_.size() - 1);
    }

    const bool enabled_;
    mutable std::mutex mutex_; //!< guards the two vectors below
    std::vector<std::string> names_;
    std::vector<Span> spans_;
};

/** RAII span over one scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog& log, const std::string& name,
               std::int32_t parent = -1, std::uint64_t request_id = 0)
        : log_(log), index_(log.begin(name, parent, request_id))
    {}
    ~ScopedSpan() { log_.end(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::int32_t index() const { return index_; }

  private:
    SpanLog& log_;
    const std::int32_t index_;
};

// --- Generator capacity. ---

/**
 * Coordinates wl::genClustered(rows, cols, nnz, run_len, seed) can
 * ever reach: each row's runs start within `band` of the scaled
 * diagonal and extend up to run_len - 1 columns past it. The
 * generator loops until it has placed nnz distinct coordinates, so
 * asking for more than this never returns. Mirrors the generator's
 * own band arithmetic (src/workloads/matrix_gen.cc).
 */
inline Index
clusteredCapacity(Index rows, Index cols, Index run_len)
{
    const Index band = std::max<Index>(run_len * 4, cols / 16 + run_len);
    Index total = 0;
    for (Index r = 0; r < rows; ++r) {
        const Index diag =
            std::min(cols - 1, r * cols / std::max<Index>(rows, 1));
        const Index lo = std::max<Index>(0, diag - band);
        const Index hi = std::min<Index>(cols - 1, diag + band);
        total += std::min<Index>(cols - 1, hi + run_len - 1) - lo + 1;
    }
    return total;
}

} // namespace smashbench

#endif // SMASHBENCH_BENCH_UTIL_HH
