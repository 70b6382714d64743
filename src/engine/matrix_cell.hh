/**
 * @file
 * MatrixCell: the lifecycle of one mutable, served matrix.
 *
 * A cell owns a canonical CSR *master copy*, an incremental
 * StructureTracker over it, the §7.2.3 format it is served in, and
 * the encodings built from the master (each built lazily on first
 * use and cached until the next mutation). It is the one place that
 * implements:
 *
 *  - find-or-build of an encoding (encoded/encodedAs), plus the
 *    never-converting cached lookups;
 *  - the mutation tail: apply the delta to the master, bump the
 *    epoch, drop every cached encoding, and run the drift gate
 *    (ReselectPolicy's churn floor, then chooseFormatSticky's
 *    hysteresis) that marks a re-encode pending;
 *  - the re-encode itself (runReencode): snapshot the master, build
 *    the target encoding with no lock held, and swap it in only if
 *    no mutation intervened, retrying a few times when one did.
 *
 * serve::MatrixRegistry serves a put() matrix as one cell;
 * shard::ShardedMatrix serves each of its row bands as one.
 *
 * Ownership/threading contract: every member is thread-safe; one
 * mutex guards the master, the tracker and the encodings, held
 * across a conversion so racing readers build each encoding once.
 * Encodings are handed out as shared_ptr snapshots: a reader keeps
 * computing on the epoch it fetched while a mutation or re-encode
 * replaces it, and the last holder frees it. The cell never
 * schedules anything — a mutation reports a newly pending re-encode
 * in its UpdateOutcome and the owner decides where runReencode()
 * runs.
 */

#ifndef SMASH_ENGINE_MATRIX_CELL_HH
#define SMASH_ENGINE_MATRIX_CELL_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "engine/matrix_any.hh"
#include "engine/mutate.hh"
#include "engine/profile.hh"
#include "formats/coo_matrix.hh"
#include "formats/csr_matrix.hh"

namespace smash::eng
{

/** When drift re-selection fires (see MatrixCell). */
struct ReselectPolicy
{
    bool enabled = true;
    /** Structural changes since the last baseline, as a fraction of
     *  the current nnz, before the profile is even re-examined. */
    double minChangedFraction = 0.05;
    Index minChanged = 16; //!< absolute floor on that change count
    /** Hysteresis band on the §7.2.3 boundaries: leaving the
     *  current format must beat them by this margin. */
    double margin = 0.1;
};

/** What one mutation call changed and triggered. */
struct UpdateOutcome
{
    MutationStats stats;            //!< entry-level change counts
    bool reencodeScheduled = false; //!< this call crossed a boundary
    /** Format the matrix is headed for: the pending re-encode's
     *  target, or the current primary when none is pending. */
    Format target = Format::kCsr;
};

/** Snapshot of a matrix's lifecycle (stats and tooling). */
struct MatrixInfo
{
    Format chosen = Format::kCsr;  //!< current primary format
    Index rows = 0;
    Index cols = 0;
    Index nnz = 0;
    std::size_t conversions = 0;   //!< encodings built so far
    std::size_t reselects = 0;     //!< drift-triggered format swaps
    std::uint64_t epoch = 0;       //!< bumped by every mutation
    bool reencodePending = false;  //!< a re-encode is scheduled
    std::vector<Format> cached;    //!< formats currently encoded
    /** Shard count of a shard::ShardedMatrix, 0 for one cell. For
     *  sharded matrices `chosen` is shard 0's format and `cached`
     *  lists the distinct per-shard formats. */
    Index shards = 0;
};

class MatrixCell
{
  public:
    using EncodingPtr = std::shared_ptr<const SparseMatrixAny>;
    using BuildOptions = SparseMatrixAny::BuildOptions;

    /** Own @p master, profiled by @p profile, served in @p format.
     *  No encoding is built yet. */
    MatrixCell(fmt::CsrMatrix master, StructureTracker profile,
               Format format, const BuildOptions& build);

    MatrixCell(const MatrixCell&) = delete;
    MatrixCell& operator=(const MatrixCell&) = delete;

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    Index nnz() const;
    Format format() const;
    StructureStats profile() const;
    MatrixInfo info() const;

    /** The primary encoding; converts on first use. The current
     *  format and the encoding resolve under one lock, so a racing
     *  re-encode can never make this rebuild a retired format. */
    EncodingPtr encoded();
    /** The encoding in @p format (same caching contract). */
    EncodingPtr encodedAs(Format format);
    /** The primary encoding if already built, else null. */
    EncodingPtr encodedIfCached() const;
    /** The @p format encoding if already built, else null. */
    EncodingPtr encodedAsIfCached(Format format) const;

    /** Run @p fn on the master under the cell lock. */
    template <typename F>
    decltype(auto)
    withMaster(F&& fn) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return fn(master_);
    }

    /** eng::applyUpdates/replaceRows/scaleValues on the master,
     *  followed by the mutation tail (epoch, invalidation, drift
     *  gate against @p policy). */
    UpdateOutcome applyUpdates(const fmt::CooMatrix& deltas,
                               const ReselectPolicy& policy);
    UpdateOutcome replaceRows(const std::vector<Index>& rows,
                              const fmt::CooMatrix& replacement,
                              const ReselectPolicy& policy);
    UpdateOutcome scaleValues(Value factor);

    /**
     * Execute the pending re-encode (no-op when none is pending):
     * snapshot, unlocked build, epoch-checked swap, up to four
     * attempts; after that the pending flag clears so a later
     * mutation can re-trigger the reselection.
     * @return the swapped-in format, or nullopt when nothing swapped
     */
    std::optional<Format> runReencode();

  private:
    /** Find-or-build one encoding; mutex_ must be held. */
    EncodingPtr encodedLocked(Format format);
    /** Feeds structural changes to profile_; mutex_ must be held
     *  while it runs. */
    StructureListener tracker();
    /** The mutation tail; mutex_ must be held. */
    UpdateOutcome finishMutation(const MutationStats& stats,
                                 const ReselectPolicy& policy);

    const Index rows_;
    const Index cols_;
    const BuildOptions build_;
    mutable std::mutex mutex_; //!< guards everything below
    fmt::CsrMatrix master_;
    StructureTracker profile_;
    Format chosen_;
    Format pendingTarget_;
    bool reencodePending_ = false;
    std::map<Format, EncodingPtr> encodings_;
    std::uint64_t epoch_ = 0;
    std::size_t conversions_ = 0;
    std::size_t reselects_ = 0;
};

} // namespace smash::eng

#endif // SMASH_ENGINE_MATRIX_CELL_HH
