/**
 * @file sharded_matrix.hh
 * ShardedMatrix: one logical matrix row-partitioned into K
 * independent sub-matrices.
 *
 * Each shard is one eng::MatrixCell — the same lifecycle a put()
 * matrix gets: a CSR master slice (rows re-indexed to the shard,
 * columns global), an incremental StructureTracker, a §7.2.3 format
 * decision with chooseFormatSticky hysteresis, its encodings (whose
 * embedded PlanCaches are therefore per-shard), an epoch and the
 * drift re-encode — plus its row band and a CPU subset derived from
 * the NUMA topology probe (common/numa_topology.hh). A drifting
 * matrix whose bands diverge structurally — dense diagonals in one
 * row band, scattered bits in another — re-selects and re-encodes
 * *per band* instead of whole-matrix.
 *
 * Partitioning is nnz-balanced: cut points are chosen on the CSR
 * row-pointer prefix sums so every shard carries ~nnz/K entries
 * (each shard still gets at least one row). Because every row lands
 * in exactly one shard and every format computes a row's dot
 * product in ascending column order, scatter–gather SpMV over the
 * shards is bit-identical to the unsharded execution — regardless
 * of K, of the per-shard format choices, or of the thread count.
 *
 * NUMA placement: shard k maps to node (k mod nodes) and its CPU
 * subset; the shard's arrays are built (first-touched) by a thread
 * that pins itself to that subset. On a 1-node host the subsets degrade to a
 * round-robin split of the flat CPU list and placement is a no-op
 * by construction. Compute-time locality is approximate: the
 * scatter runs one pool chunk per shard, and the pool's sticky
 * chunk claiming + node-major worker pinning keep shard k on the
 * same worker (hence node) across requests.
 *
 * Some ops need the matrix as one operand (SpAdd's secondary, a
 * whole-matrix view in one format): encodedAs() builds such a
 * materialization from the concatenated slices and caches it until
 * the next mutation.
 *
 * Threading: all entry points are thread-safe. Each cell locks
 * itself; compute paths grab the shard encodings' shared_ptrs and
 * run unlocked (readers finish on the epoch they hold while a
 * re-encode swaps underneath). Mutations and materializations
 * serialize on the matrix's own lock, so a materialization never
 * mixes two mutations' content; a mutation is validated in full
 * before any cell changes, so a rejected call changes nothing.
 */

#ifndef SMASH_SHARD_SHARDED_MATRIX_HH
#define SMASH_SHARD_SHARDED_MATRIX_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/matrix_cell.hh"
#include "formats/coo_matrix.hh"
#include "formats/csr_matrix.hh"
#include "formats/dense_matrix.hh"

namespace smash::exec
{
class ThreadPool;
}

namespace smash::shard
{

/** Snapshot of one shard (stats, tests, tooling): its cell's
 *  lifecycle counters plus its placement. */
struct ShardInfo : eng::MatrixInfo
{
    Index rowBegin = 0;   //!< global first row (inclusive)
    Index rowEnd = 0;     //!< global last row (exclusive)
    int node = 0;              //!< NUMA node the shard maps to
    std::vector<int> cpus;     //!< CPU subset used for first-touch
};

class ShardedMatrix
{
  public:
    using BuildOptions = eng::SparseMatrixAny::BuildOptions;
    using EncodingPtr = eng::MatrixCell::EncodingPtr;

    /**
     * Partition @p master into @p shards nnz-balanced row bands
     * (clamped to [1, rows]) and build each band's cell — slice,
     * profile, format choice, and initial encoding — on a thread
     * pinned to the band's NUMA CPU subset (first-touch). @p name
     * labels the per-shard metrics.
     */
    ShardedMatrix(std::string name, const fmt::CsrMatrix& master,
                  Index shards, const BuildOptions& build = {});

    ShardedMatrix(const ShardedMatrix&) = delete;
    ShardedMatrix& operator=(const ShardedMatrix&) = delete;

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    Index nnz() const;
    Index shardCount() const
    {
        return static_cast<Index>(shards_.size());
    }

    /** Which shard owns global row @p row. */
    Index shardOfRow(Index row) const;

    ShardInfo shardInfo(Index shard) const;
    /** Every shard's current format, in shard order. */
    std::vector<eng::Format> shardFormats() const;
    /** Shard 0's format (the registry's "primary"). */
    eng::Format primaryFormat() const;
    eng::Format format() const { return primaryFormat(); }
    /** Shard @p shard's incremental §7.2.3 profile (shard 0 stands
     *  in for the whole matrix). */
    eng::StructureStats profile(Index shard = 0) const;
    /**
     * Whole-matrix lifecycle: conversions and reselects summed over
     * the cells (conversions also count materializations), epoch
     * bumped by every mutation call that changed something, pending
     * when any cell is, `cached` the distinct shard formats.
     */
    eng::MatrixInfo info() const;

    /** Build any missing shard encoding (first touch converts). */
    void ensureEncoded();
    /** True when every shard's encoding is built. */
    bool allEncoded() const;

    /**
     * y += A x, scatter–gather over the shards: each shard computes
     * its row band into a local slice (first-touched by the worker
     * that computes it) which is then copied into the caller's y.
     * With a pool the shards fan out as one chunk each; without one
     * they run serially. Bit-identical to the unsharded engine call
     * for any K and thread count. @p y must hold rows() zeros (the
     * engine convention: callers own the accumulator).
     */
    void spmv(const std::vector<Value>& x, std::vector<Value>& y,
              exec::ThreadPool* pool) const;

    /**
     * Y += A X for a block of right-hand sides (one per column).
     * @p x needs only the logical height cols(); each shard pads to
     * its own format granularity internally. Serves both the
     * batched-SpMV and the dense-operand SpMM request paths.
     */
    void spmvBatch(const fmt::DenseMatrix& x, fmt::DenseMatrix& y,
                   exec::ThreadPool* pool) const;

    /**
     * this + @p other as canonical COO, computed per shard (each
     * shard merges its row band against the matching band of
     * @p other) and concatenated in row order — bit-identical to
     * the unsharded kern::spaddCsr merge. Shapes must match.
     */
    fmt::CooMatrix spadd(const fmt::CsrMatrix& other,
                         exec::ThreadPool* pool) const;

    /**
     * The whole-matrix CSR master, concatenated from the shard
     * slices. Row partitioning preserves entry order, so this is
     * bit-identical to the CSR the matrix was constructed from (as
     * mutated since).
     */
    fmt::CsrMatrix toCsr() const;

    /**
     * Whole-matrix materialization in @p format (or in the primary
     * format), built from toCsr() on first use and cached until the
     * next mutation — the operand of ops that need one monolithic
     * matrix, e.g. SpAdd's secondary.
     */
    EncodingPtr encodedAs(eng::Format format);
    EncodingPtr encoded() { return encodedAs(primaryFormat()); }
    /** The cached materialization, or null (never converts). */
    EncodingPtr encodedAsIfCached(eng::Format format) const;
    EncodingPtr encodedIfCached() const
    {
        return encodedAsIfCached(primaryFormat());
    }

    /**
     * Mutation API: the whole call is validated first, then deltas
     * are routed to the cell that owns each row; only touched cells
     * bump their epoch, drop their encoding, and run their drift
     * gate against @p policy. The caller schedules runReencode()
     * when the outcome says a re-encode was crossed (the registry
     * fires its async hook); the outcome's target is the first
     * newly scheduled shard's.
     */
    eng::UpdateOutcome applyUpdates(const fmt::CooMatrix& deltas,
                                    const eng::ReselectPolicy& policy);
    eng::UpdateOutcome replaceRows(const std::vector<Index>& rows,
                                   const fmt::CooMatrix& replacement,
                                   const eng::ReselectPolicy& policy);
    eng::UpdateOutcome scaleValues(Value factor);

    /** Run every shard's pending re-encode (MatrixCell::runReencode
     *  per cell); only the bands whose drift crossed a boundary
     *  rebuild. */
    void runReencode();

  private:
    struct Shard
    {
        Index rowBegin = 0;
        Index rowEnd = 0;
        int node = 0;
        std::vector<int> cpus;
        std::unique_ptr<eng::MatrixCell> cell;
    };

    eng::MatrixCell& cell(Index shard) const
    {
        return *shards_[static_cast<std::size_t>(shard)].cell;
    }
    /** @p coo's entries per row band, rebased to band-local rows
     *  (@p coo must be canonical). */
    std::vector<fmt::CooMatrix>
    splitByBand(const fmt::CooMatrix& coo) const;
    /** Shared mutation tail: invalidate the materializations when
     *  anything changed, and settle the outcome's target; mutex_
     *  must be held. */
    eng::UpdateOutcome finish(eng::UpdateOutcome out);
    /** Run @p body for each shard index: one pool chunk per shard
     *  when @p pool is non-null, serially otherwise. */
    template <typename F>
    void forEachShard(exec::ThreadPool* pool, const F& body) const;
    void setFormatGauge(Index shard, eng::Format format) const;

    std::string name_;
    Index rows_ = 0;
    Index cols_ = 0;
    BuildOptions build_;
    std::vector<Index> cuts_; //!< K+1 row boundaries, cuts_[0] = 0
    std::vector<Shard> shards_;
    /** Serializes mutations against each other and against
     *  materializations; guards the three members below. */
    mutable std::mutex mutex_;
    std::map<eng::Format, EncodingPtr> materialized_;
    std::size_t materializations_ = 0;
    std::uint64_t epoch_ = 0;
};

} // namespace smash::shard

#endif // SMASH_SHARD_SHARDED_MATRIX_HH
