#include "engine/matrix_cell.hh"

#include <algorithm>
#include <utility>

#include "engine/autoselect.hh"

namespace smash::eng
{

MatrixCell::MatrixCell(fmt::CsrMatrix master, StructureTracker profile,
                       Format format, const BuildOptions& build)
    : rows_(master.rows()),
      cols_(master.cols()),
      build_(build),
      master_(std::move(master)),
      profile_(std::move(profile)),
      chosen_(format),
      pendingTarget_(format)
{}

Index
MatrixCell::nnz() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return master_.nnz();
}

Format
MatrixCell::format() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return chosen_;
}

StructureStats
MatrixCell::profile() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return profile_.stats();
}

MatrixInfo
MatrixCell::info() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MatrixInfo out;
    out.chosen = chosen_;
    out.rows = rows_;
    out.cols = cols_;
    out.nnz = master_.nnz();
    out.conversions = conversions_;
    out.reselects = reselects_;
    out.epoch = epoch_;
    out.reencodePending = reencodePending_;
    out.cached.reserve(encodings_.size());
    for (const auto& [format, encoding] : encodings_)
        out.cached.push_back(format);
    return out;
}

MatrixCell::EncodingPtr
MatrixCell::encodedLocked(Format format)
{
    auto it = encodings_.find(format);
    if (it == encodings_.end()) {
        it = encodings_
                 .emplace(format,
                          std::make_shared<const SparseMatrixAny>(
                              SparseMatrixAny::fromCsr(master_, format,
                                                       build_)))
                 .first;
        ++conversions_;
    }
    return it->second;
}

MatrixCell::EncodingPtr
MatrixCell::encoded()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return encodedLocked(chosen_);
}

MatrixCell::EncodingPtr
MatrixCell::encodedAs(Format format)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return encodedLocked(format);
}

MatrixCell::EncodingPtr
MatrixCell::encodedIfCached() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = encodings_.find(chosen_);
    return it != encodings_.end() ? it->second : nullptr;
}

MatrixCell::EncodingPtr
MatrixCell::encodedAsIfCached(Format format) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = encodings_.find(format);
    return it != encodings_.end() ? it->second : nullptr;
}

StructureListener
MatrixCell::tracker()
{
    return [this](Index r, Index c, bool inserted) {
        profile_.onStructureChange(r, c, inserted);
    };
}

UpdateOutcome
MatrixCell::applyUpdates(const fmt::CooMatrix& deltas,
                         const ReselectPolicy& policy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return finishMutation(
        eng::applyUpdates(master_, deltas, tracker()), policy);
}

UpdateOutcome
MatrixCell::replaceRows(const std::vector<Index>& rows,
                        const fmt::CooMatrix& replacement,
                        const ReselectPolicy& policy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return finishMutation(
        eng::replaceRows(master_, rows, replacement, tracker()),
        policy);
}

UpdateOutcome
MatrixCell::scaleValues(Value factor)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Scaling never changes the structure, so the drift gate below
    // never runs and the policy is moot.
    return finishMutation(eng::scaleValues(master_, factor),
                          ReselectPolicy{});
}

UpdateOutcome
MatrixCell::finishMutation(const MutationStats& stats,
                           const ReselectPolicy& policy)
{
    UpdateOutcome out;
    out.stats = stats;
    out.target = reencodePending_ ? pendingTarget_ : chosen_;
    if (stats.inserted + stats.removed + stats.updated == 0) {
        // Nothing changed (empty deltas, scale by 1): keep the
        // cached encodings — invalidation would force a pointless
        // reconversion (the fig20 cost) on the next request.
        return out;
    }
    // Values changed: every cached encoding is stale. In-flight
    // readers keep their shared_ptr epochs; the next encoded() call
    // rebuilds from the new master.
    ++epoch_;
    encodings_.clear();
    // A value-only change cannot move a boundary.
    if (stats.structural() == 0 || !policy.enabled || reencodePending_)
        return out;
    // Cheap gate first: don't even snapshot the profile until the
    // accumulated structural churn is worth a decision.
    const Index changed = profile_.changedSinceRebase();
    const Index need = std::max(
        policy.minChanged,
        static_cast<Index>(policy.minChangedFraction *
                           static_cast<double>(
                               std::max<Index>(1, profile_.nnz()))));
    if (changed < need)
        return out;
    const Format target =
        chooseFormatSticky(profile_.stats(), chosen_, policy.margin);
    if (target == chosen_) {
        // Inside the hysteresis band: stay put, and restart the
        // drift accumulation so the next check needs fresh churn.
        profile_.rebase();
        return out;
    }
    reencodePending_ = true;
    pendingTarget_ = target;
    out.reencodeScheduled = true;
    out.target = target;
    return out;
}

std::optional<Format>
MatrixCell::runReencode()
{
    // A mutation may land while the new encoding builds (the build
    // runs with no lock held, so serving and updates continue). The
    // epoch check detects that; a few retries chase a busy matrix.
    for (int attempt = 0; attempt < 4; ++attempt) {
        fmt::CsrMatrix snapshot;
        Format target;
        std::uint64_t epoch;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!reencodePending_)
                return std::nullopt;
            snapshot = master_;
            target = pendingTarget_;
            epoch = epoch_;
        }
        auto built = std::make_shared<const SparseMatrixAny>(
            SparseMatrixAny::fromCsr(snapshot, target, build_));
        std::lock_guard<std::mutex> lock(mutex_);
        if (epoch_ != epoch)
            continue; // master moved underneath: rebuild
        // Atomic swap: the new epoch becomes the primary; any reader
        // still holding the old shared_ptr finishes on the old
        // encoding.
        chosen_ = target;
        encodings_.clear();
        encodings_.emplace(target, std::move(built));
        ++conversions_;
        ++reselects_;
        reencodePending_ = false;
        profile_.rebase();
        return target;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    reencodePending_ = false;
    return std::nullopt;
}

} // namespace smash::eng
