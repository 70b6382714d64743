/**
 * @file
 * Incremental structure profiling for mutable (served) matrices.
 *
 * analyzeStructure() (engine/autoselect.hh) prices a full O(nnz)
 * scan — fine at registration, wasteful after every small update.
 * StructureTracker keeps the aggregates that scan produces — the
 * nnz-per-row distribution, occupied-diagonal populations, and the
 * §7.2.3 NZA-block occupancy — and maintains them in O(1) per
 * structural change, so the drift detector can re-evaluate the
 * format decision in O(rows + diagonals + blocks) without touching
 * the matrix itself. stats() returns exactly the StructureStats an
 * analyzeStructure() call on the current content would (same
 * definitions, same block size).
 *
 * Ownership/threading contract: plain value type, no internal
 * locking — the owner (eng::MatrixCell) guards it with its
 * mutex. onStructureChange() matches the
 * eng::StructureListener signature so mutation calls can feed it
 * directly.
 */

#ifndef SMASH_ENGINE_PROFILE_HH
#define SMASH_ENGINE_PROFILE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "engine/autoselect.hh"
#include "formats/csr_matrix.hh"

namespace smash::eng
{

/** Incrementally maintained structural profile of one matrix. */
class StructureTracker
{
  public:
    StructureTracker() = default;

    /** Profile @p m in one pass. @p block is the NZA block size of
     *  the locality measure (8 matches analyzeStructure's default). */
    explicit StructureTracker(const fmt::CsrMatrix& m, Index block = 8);

    /** Apply one structural change (StructureListener signature). */
    void onStructureChange(Index row, Index col, bool inserted);

    /** Aggregate snapshot; O(rows + diagonals + blocks). */
    StructureStats stats() const;

    Index nnz() const { return nnz_; }
    Index block() const { return block_; }

    /** Structural changes accumulated since the last rebase(). */
    Index changedSinceRebase() const { return changed_; }

    /** Mark the current structure as the new drift baseline. */
    void rebase() { changed_ = 0; }

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    Index nnz_ = 0;
    Index block_ = 8;
    Index blocks_per_row_ = 1;
    Index changed_ = 0;
    std::vector<Index> row_pop_;
    std::unordered_map<Index, Index> diag_pop_;
    std::unordered_map<std::uint64_t, Index> block_pop_;
};

} // namespace smash::eng

#endif // SMASH_ENGINE_PROFILE_HH
