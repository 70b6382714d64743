#include "shard/sharded_matrix.hh"

#include <algorithm>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/numa_topology.hh"
#include "common/thread_pool.hh"
#include "engine/autoselect.hh"
#include "engine/dispatch.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace smash::shard
{

namespace
{

/**
 * Pin the calling thread (best-effort) to @p cpus, so every page it
 * faults in afterwards is first-touched on those CPUs' node. A
 * restricted cpuset may reject the mask; the thread then runs
 * wherever the scheduler puts it — placement is an optimization,
 * never a correctness requirement.
 */
void
pinToCpus(const std::vector<int>& cpus)
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    bool any = false;
    for (int c : cpus) {
        if (c >= 0 && c < CPU_SETSIZE) {
            CPU_SET(c, &set);
            any = true;
        }
    }
    if (any)
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
    (void)cpus;
#endif
}

/** The CSR slice for global rows [rb, re): rows re-indexed from 0,
 *  columns kept global (the shard computes against the full x). */
fmt::CsrMatrix
sliceCsr(const fmt::CsrMatrix& m, Index rb, Index re)
{
    const auto& rp = m.rowPtr();
    const auto lo = static_cast<std::size_t>(rp[static_cast<std::size_t>(rb)]);
    const auto hi = static_cast<std::size_t>(rp[static_cast<std::size_t>(re)]);
    std::vector<fmt::CsrIndex> rowPtr(static_cast<std::size_t>(re - rb) + 1);
    for (Index r = 0; r <= re - rb; ++r)
        rowPtr[static_cast<std::size_t>(r)] =
            rp[static_cast<std::size_t>(rb + r)] -
            rp[static_cast<std::size_t>(rb)];
    std::vector<fmt::CsrIndex> colInd(m.colInd().begin() + lo,
                                      m.colInd().begin() + hi);
    std::vector<Value> values(m.values().begin() + lo,
                              m.values().begin() + hi);
    return fmt::CsrMatrix::fromRaw(re - rb, m.cols(), std::move(rowPtr),
                                   std::move(colInd),
                                   std::move(values));
}

/** Fold one cell's outcome into a whole call's: counts add up, and
 *  the first newly scheduled shard's target leads. */
void
merge(eng::UpdateOutcome& into, const eng::UpdateOutcome& part)
{
    into.stats.inserted += part.stats.inserted;
    into.stats.removed += part.stats.removed;
    into.stats.updated += part.stats.updated;
    if (part.reencodeScheduled && !into.reencodeScheduled) {
        into.reencodeScheduled = true;
        into.target = part.target;
    }
}

obs::Counter&
shardReencodeCounter(Index shard)
{
    return obs::MetricsRegistry::global().counter(
        "smash_shard_reencodes_total{shard=\"" +
        std::to_string(shard) + "\"}");
}

} // namespace

ShardedMatrix::ShardedMatrix(std::string name,
                             const fmt::CsrMatrix& master,
                             Index shards, const BuildOptions& build)
    : name_(std::move(name)),
      rows_(master.rows()),
      cols_(master.cols()),
      build_(build)
{
    SMASH_CHECK(rows_ > 0 && cols_ > 0,
                "cannot shard an empty matrix");
    const Index k =
        std::max<Index>(1, std::min<Index>(shards, rows_));

    // nnz-balanced cuts on the row-pointer prefix sums: cut i lands
    // where the running nnz crosses i/K of the total, nudged so
    // every shard keeps at least one row.
    const auto& rp = master.rowPtr();
    const auto total = static_cast<std::int64_t>(master.nnz());
    cuts_.assign(static_cast<std::size_t>(k) + 1, 0);
    cuts_[static_cast<std::size_t>(k)] = rows_;
    for (Index i = 1; i < k; ++i) {
        const auto target = static_cast<fmt::CsrIndex>(
            total * i / k);
        auto it = std::lower_bound(rp.begin(), rp.end(), target);
        Index cut = static_cast<Index>(it - rp.begin());
        cut = std::max(cut, cuts_[static_cast<std::size_t>(i) - 1] + 1);
        cut = std::min(cut, rows_ - (k - i));
        cuts_[static_cast<std::size_t>(i)] = cut;
    }

    const sys::NumaTopology& topo = sys::NumaTopology::probe();
    shards_.resize(static_cast<std::size_t>(k));
    for (Index i = 0; i < k; ++i) {
        Shard& sh = shards_[static_cast<std::size_t>(i)];
        sh.rowBegin = cuts_[static_cast<std::size_t>(i)];
        sh.rowEnd = cuts_[static_cast<std::size_t>(i) + 1];
        sh.node = topo.shardNode(static_cast<int>(i));
        sh.cpus = topo.shardCpus(static_cast<int>(i),
                                 static_cast<int>(k));
    }

    // One builder per shard pins itself to the shard's CPU subset
    // before it allocates, so the slice, the profile, and the
    // initial encoding are first-touched on the shard's node. A
    // failed build is rethrown here, after every builder joined.
    std::vector<std::exception_ptr> failures(shards_.size());
    std::vector<std::thread> builders;
    builders.reserve(shards_.size());
    for (Index i = 0; i < k; ++i) {
        builders.emplace_back([this, i, &master, &failures] {
            Shard& sh = shards_[static_cast<std::size_t>(i)];
            pinToCpus(sh.cpus);
            try {
                fmt::CsrMatrix slice =
                    sliceCsr(master, sh.rowBegin, sh.rowEnd);
                eng::StructureTracker profile(slice);
                const eng::Format chosen =
                    eng::chooseFormat(profile.stats());
                sh.cell = std::make_unique<eng::MatrixCell>(
                    std::move(slice), std::move(profile), chosen,
                    build_);
                sh.cell->encoded();
                setFormatGauge(i, chosen);
            } catch (...) {
                failures[static_cast<std::size_t>(i)] =
                    std::current_exception();
            }
        });
    }
    for (std::thread& t : builders)
        t.join();
    for (const std::exception_ptr& failure : failures)
        if (failure)
            std::rethrow_exception(failure);
}

Index
ShardedMatrix::nnz() const
{
    Index n = 0;
    for (Index i = 0; i < shardCount(); ++i)
        n += cell(i).nnz();
    return n;
}

Index
ShardedMatrix::shardOfRow(Index row) const
{
    SMASH_CHECK(row >= 0 && row < rows_, "row ", row,
                " outside [0, ", rows_, ")");
    const auto it =
        std::upper_bound(cuts_.begin(), cuts_.end(), row);
    return static_cast<Index>(it - cuts_.begin()) - 1;
}

ShardInfo
ShardedMatrix::shardInfo(Index shard) const
{
    const Shard& sh = shards_[static_cast<std::size_t>(shard)];
    ShardInfo out;
    static_cast<eng::MatrixInfo&>(out) = sh.cell->info();
    out.rowBegin = sh.rowBegin;
    out.rowEnd = sh.rowEnd;
    out.node = sh.node;
    out.cpus = sh.cpus;
    return out;
}

std::vector<eng::Format>
ShardedMatrix::shardFormats() const
{
    std::vector<eng::Format> out;
    out.reserve(shards_.size());
    for (Index i = 0; i < shardCount(); ++i)
        out.push_back(cell(i).format());
    return out;
}

eng::Format
ShardedMatrix::primaryFormat() const
{
    return cell(0).format();
}

eng::StructureStats
ShardedMatrix::profile(Index shard) const
{
    return cell(shard).profile();
}

eng::MatrixInfo
ShardedMatrix::info() const
{
    eng::MatrixInfo out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.conversions = materializations_;
        out.epoch = epoch_;
    }
    out.rows = rows_;
    out.cols = cols_;
    out.shards = shardCount();
    for (Index i = 0; i < shardCount(); ++i) {
        const eng::MatrixInfo c = cell(i).info();
        out.nnz += c.nnz;
        out.conversions += c.conversions;
        out.reselects += c.reselects;
        out.reencodePending = out.reencodePending || c.reencodePending;
        out.cached.push_back(c.chosen);
    }
    out.chosen = out.cached.front();
    // The distinct formats currently live across the shards.
    std::sort(out.cached.begin(), out.cached.end());
    out.cached.erase(std::unique(out.cached.begin(), out.cached.end()),
                     out.cached.end());
    return out;
}

void
ShardedMatrix::ensureEncoded()
{
    for (Index i = 0; i < shardCount(); ++i)
        cell(i).encoded();
}

bool
ShardedMatrix::allEncoded() const
{
    for (Index i = 0; i < shardCount(); ++i)
        if (!cell(i).encodedIfCached())
            return false;
    return true;
}

template <typename F>
void
ShardedMatrix::forEachShard(exec::ThreadPool* pool,
                            const F& body) const
{
    const Index k = shardCount();
    if (pool != nullptr && k > 1) {
        // One chunk per shard: sticky chunk claiming hands shard i
        // to the same worker across calls, which with node-major
        // pinning keeps a shard's traffic on its node.
        pool->parallelFor(0, k, 1, [&](Index cb, Index ce) {
            for (Index i = cb; i < ce; ++i)
                body(i);
        });
    } else {
        for (Index i = 0; i < k; ++i)
            body(i);
    }
}

void
ShardedMatrix::spmv(const std::vector<Value>& x,
                    std::vector<Value>& y,
                    exec::ThreadPool* pool) const
{
    SMASH_CHECK(static_cast<Index>(x.size()) >= cols_,
                "x operand too short");
    SMASH_CHECK(static_cast<Index>(y.size()) >= rows_,
                "y operand too short");
    const std::uint64_t t0 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;
    forEachShard(pool, [&](Index i) {
        const Shard& sh = shards_[static_cast<std::size_t>(i)];
        const EncodingPtr enc = cell(i).encoded();
        const Index n = sh.rowEnd - sh.rowBegin;
        // The shard's slice of y, computed locally so the engine's
        // y-accumulate convention stays intact, then gathered into
        // the caller's vector. The local buffer is first-touched by
        // the worker that computes the shard.
        std::vector<Value> local(static_cast<std::size_t>(n),
                                 Value(0));
        sim::NativeExec ne;
        eng::spmv(enc->ref(), x, local, ne);
        for (Index r = 0; r < n; ++r)
            y[static_cast<std::size_t>(sh.rowBegin + r)] +=
                local[static_cast<std::size_t>(r)];
        SMASH_TRACE_EVENT(obs::EventKind::kShardGather,
                          static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(n));
    });
    SMASH_TRACE_SPAN(obs::EventKind::kShardScatter, t0,
                     static_cast<std::uint32_t>(shardCount()), 1);
}

void
ShardedMatrix::spmvBatch(const fmt::DenseMatrix& x,
                         fmt::DenseMatrix& y,
                         exec::ThreadPool* pool) const
{
    SMASH_CHECK(x.rows() >= cols_, "X block too short");
    SMASH_CHECK(y.rows() >= rows_, "Y block too short");
    SMASH_CHECK(x.cols() == y.cols(), "X/Y width mismatch");
    if (x.cols() == 0)
        return;
    const std::uint64_t t0 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;
    const Index nrhs = x.cols();
    forEachShard(pool, [&](Index i) {
        const Shard& sh = shards_[static_cast<std::size_t>(i)];
        const EncodingPtr enc = cell(i).encoded();
        const Index n = sh.rowEnd - sh.rowBegin;
        fmt::DenseMatrix local(n, nrhs);
        sim::NativeExec ne;
        // Each shard pads X to its own format granularity
        // (per-shard formats diverge, so the needed operand length
        // differs per shard); spmmBatch copies only when the
        // logical height falls short.
        eng::spmmBatch(enc->ref(), x, local, ne);
        for (Index r = 0; r < n; ++r)
            for (Index c = 0; c < nrhs; ++c)
                y.at(sh.rowBegin + r, c) += local.at(r, c);
        SMASH_TRACE_EVENT(obs::EventKind::kShardGather,
                          static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(n));
    });
    SMASH_TRACE_SPAN(obs::EventKind::kShardScatter, t0,
                     static_cast<std::uint32_t>(shardCount()),
                     static_cast<std::uint32_t>(nrhs));
}

fmt::CooMatrix
ShardedMatrix::spadd(const fmt::CsrMatrix& other,
                     exec::ThreadPool* pool) const
{
    SMASH_CHECK(other.rows() == rows_ && other.cols() == cols_,
                "operand shapes differ");
    const std::uint64_t t0 =
        obs::traceEnabled() ? obs::traceNowNs() : 0;
    std::vector<fmt::CooMatrix> parts(
        static_cast<std::size_t>(shardCount()));
    forEachShard(pool, [&](Index i) {
        const Shard& sh = shards_[static_cast<std::size_t>(i)];
        fmt::CooMatrix part(rows_, cols_);
        cell(i).withMaster([&](const fmt::CsrMatrix& a) {
            // Two-pointer merge of the shard's local rows against
            // the matching global rows of `other` — the same merge
            // (same order, same sums, same zero-cancellation rule)
            // as kern::spaddCsrRange, emitting global row indices.
            const auto& arp = a.rowPtr();
            const auto& aci = a.colInd();
            const auto& av = a.values();
            const auto& brp = other.rowPtr();
            const auto& bci = other.colInd();
            const auto& bv = other.values();
            const fmt::CsrIndex sentinel =
                static_cast<fmt::CsrIndex>(cols_);
            for (Index lr = 0; lr < sh.rowEnd - sh.rowBegin; ++lr) {
                const Index gr = sh.rowBegin + lr;
                fmt::CsrIndex ka = arp[static_cast<std::size_t>(lr)];
                fmt::CsrIndex kb = brp[static_cast<std::size_t>(gr)];
                const fmt::CsrIndex aEnd =
                    arp[static_cast<std::size_t>(lr) + 1];
                const fmt::CsrIndex bEnd =
                    brp[static_cast<std::size_t>(gr) + 1];
                while (ka < aEnd || kb < bEnd) {
                    const fmt::CsrIndex ca =
                        ka < aEnd ? aci[static_cast<std::size_t>(ka)]
                                  : sentinel;
                    const fmt::CsrIndex cb =
                        kb < bEnd ? bci[static_cast<std::size_t>(kb)]
                                  : sentinel;
                    Value v;
                    Index col;
                    if (ca == cb) {
                        v = av[static_cast<std::size_t>(ka)] +
                            bv[static_cast<std::size_t>(kb)];
                        col = ca;
                        ++ka;
                        ++kb;
                    } else if (ca < cb) {
                        v = av[static_cast<std::size_t>(ka)];
                        col = ca;
                        ++ka;
                    } else {
                        v = bv[static_cast<std::size_t>(kb)];
                        col = cb;
                        ++kb;
                    }
                    if (v != Value(0))
                        part.add(gr, col, v);
                }
            }
        });
        parts[static_cast<std::size_t>(i)] = std::move(part);
    });
    // Shards hold disjoint ascending row bands, so concatenating in
    // shard order reproduces the unsharded merge's entry order.
    fmt::CooMatrix out(rows_, cols_);
    for (const fmt::CooMatrix& part : parts)
        for (const fmt::CooEntry& e : part.entries())
            out.add(e.row, e.col, e.value);
    SMASH_TRACE_SPAN(obs::EventKind::kShardScatter, t0,
                     static_cast<std::uint32_t>(shardCount()), 1);
    return out;
}

fmt::CsrMatrix
ShardedMatrix::toCsr() const
{
    std::vector<fmt::CsrIndex> rowPtr;
    std::vector<fmt::CsrIndex> colInd;
    std::vector<Value> values;
    rowPtr.reserve(static_cast<std::size_t>(rows_) + 1);
    rowPtr.push_back(0);
    for (Index i = 0; i < shardCount(); ++i) {
        cell(i).withMaster([&](const fmt::CsrMatrix& m) {
            const auto& rp = m.rowPtr();
            const fmt::CsrIndex base = rowPtr.back();
            for (std::size_t r = 1; r < rp.size(); ++r)
                rowPtr.push_back(base + rp[r]);
            colInd.insert(colInd.end(), m.colInd().begin(),
                          m.colInd().end());
            values.insert(values.end(), m.values().begin(),
                          m.values().end());
        });
    }
    return fmt::CsrMatrix::fromRaw(rows_, cols_, std::move(rowPtr),
                                   std::move(colInd),
                                   std::move(values));
}

ShardedMatrix::EncodingPtr
ShardedMatrix::encodedAs(eng::Format format)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = materialized_.find(format);
    if (it == materialized_.end()) {
        it = materialized_
                 .emplace(format,
                          std::make_shared<const eng::SparseMatrixAny>(
                              eng::SparseMatrixAny::fromCsr(
                                  toCsr(), format, build_)))
                 .first;
        ++materializations_;
    }
    return it->second;
}

ShardedMatrix::EncodingPtr
ShardedMatrix::encodedAsIfCached(eng::Format format) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = materialized_.find(format);
    return it != materialized_.end() ? it->second : nullptr;
}

eng::UpdateOutcome
ShardedMatrix::finish(eng::UpdateOutcome out)
{
    if (out.stats.inserted + out.stats.removed + out.stats.updated >
        0) {
        // The cells dropped their own encodings; the whole-matrix
        // materializations are stale too.
        ++epoch_;
        materialized_.clear();
    }
    if (!out.reencodeScheduled)
        out.target = primaryFormat();
    return out;
}

std::vector<fmt::CooMatrix>
ShardedMatrix::splitByBand(const fmt::CooMatrix& coo) const
{
    std::vector<fmt::CooMatrix> parts;
    parts.reserve(shards_.size());
    // Canonical entries are row-sorted, so each band's share is one
    // contiguous run; rebase its rows to band-local.
    const auto& es = coo.entries();
    std::size_t next = 0;
    for (const Shard& sh : shards_) {
        fmt::CooMatrix& part =
            parts.emplace_back(sh.rowEnd - sh.rowBegin, cols_);
        for (; next < es.size() && es[next].row < sh.rowEnd; ++next)
            part.add(es[next].row - sh.rowBegin, es[next].col,
                     es[next].value);
        part.canonicalize();
    }
    return parts;
}

eng::UpdateOutcome
ShardedMatrix::applyUpdates(const fmt::CooMatrix& deltas,
                            const eng::ReselectPolicy& policy)
{
    SMASH_CHECK(deltas.isCanonical(),
                "deltas must be canonical");
    SMASH_CHECK(deltas.rows() == rows_ && deltas.cols() == cols_,
                "delta shape differs");
    const std::vector<fmt::CooMatrix> parts = splitByBand(deltas);
    std::lock_guard<std::mutex> lock(mutex_);
    eng::UpdateOutcome out;
    for (Index i = 0; i < shardCount(); ++i) {
        const fmt::CooMatrix& part = parts[static_cast<std::size_t>(i)];
        if (part.nnz() > 0)
            merge(out, cell(i).applyUpdates(part, policy));
    }
    return finish(out);
}

eng::UpdateOutcome
ShardedMatrix::replaceRows(const std::vector<Index>& rows,
                           const fmt::CooMatrix& replacement,
                           const eng::ReselectPolicy& policy)
{
    // The whole call is checked before any band changes: the check
    // eng::replaceRows makes per band, made once against the whole
    // matrix, so a bad call cannot leave earlier bands rewritten.
    eng::checkReplaceRows(rows_, cols_, rows, replacement);
    std::vector<std::vector<Index>> rowsByShard(shards_.size());
    for (Index r : rows) {
        const auto k = static_cast<std::size_t>(shardOfRow(r));
        rowsByShard[k].push_back(r - shards_[k].rowBegin);
    }
    // Every entry names a listed row, so a band without listed rows
    // has no entries.
    const std::vector<fmt::CooMatrix> parts = splitByBand(replacement);
    std::lock_guard<std::mutex> lock(mutex_);
    eng::UpdateOutcome out;
    for (Index i = 0; i < shardCount(); ++i) {
        const auto k = static_cast<std::size_t>(i);
        if (!rowsByShard[k].empty())
            merge(out,
                  cell(i).replaceRows(rowsByShard[k], parts[k], policy));
    }
    return finish(out);
}

eng::UpdateOutcome
ShardedMatrix::scaleValues(Value factor)
{
    std::lock_guard<std::mutex> lock(mutex_);
    eng::UpdateOutcome out;
    for (Index i = 0; i < shardCount(); ++i)
        merge(out, cell(i).scaleValues(factor));
    return finish(out);
}

void
ShardedMatrix::setFormatGauge(Index shard, eng::Format format) const
{
    obs::MetricsRegistry::global()
        .gauge("smash_shard_format{matrix=\"" + name_ +
               "\",shard=\"" + std::to_string(shard) + "\"}")
        .set(static_cast<std::int64_t>(format));
}

void
ShardedMatrix::runReencode()
{
    for (Index i = 0; i < shardCount(); ++i) {
        const std::optional<eng::Format> target = cell(i).runReencode();
        if (!target)
            continue;
        shardReencodeCounter(i).inc();
        setFormatGauge(i, *target);
        SMASH_TRACE_EVENT(obs::EventKind::kShardReencode,
                          static_cast<std::uint32_t>(i),
                          static_cast<std::uint32_t>(*target));
    }
}

} // namespace smash::shard
