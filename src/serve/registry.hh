/**
 * @file
 * MatrixRegistry: the serving layer's owner of named, mutable
 * matrices.
 *
 * put() registers a matrix under a name, runs the engine's §7.2.3
 * structure analysis once to pick its primary format, and keeps the
 * content as one eng::MatrixCell: a canonical CSR *master copy*
 * whose encodings are built lazily — the first encoded() call
 * converts (the cost fig20 shows can dominate short-running
 * kernels) and later calls return the cached object.
 * registerSharded() keeps it as a shard::ShardedMatrix of cells
 * instead. Every entry point delegates to the one or the other;
 * the lifecycle itself lives in eng::MatrixCell.
 *
 * Served matrices drift. The mutation API (applyUpdates /
 * replaceRows / scaleValues) applies deltas to the master,
 * invalidates every cached encoding (values changed), and feeds an
 * incremental StructureTracker. When enough structure has changed
 * (eng::ReselectPolicy::minChangedFraction) and the profile has
 * crossed a §7.2.3 format boundary *decisively*
 * (chooseFormatSticky's hysteresis margin), the registry schedules
 * one re-encode: through the installed hook when a serving pipeline
 * is attached (async, on the shared ThreadPool), inline otherwise.
 * runReencode() builds the new encoding from a snapshot and swaps
 * it in atomically.
 *
 * Ownership/threading contract: all entry points are thread-safe —
 * the name table and each matrix are independently locked, and
 * mutations of one matrix serialize on it. encoded() returns
 * shared_ptr snapshots: a reader holds whatever epoch it fetched
 * for as long as it needs (in-flight requests keep computing on the
 * old encoding while a re-encode swaps it underneath), and the last
 * holder frees it. The hook is invoked with no matrix lock held,
 * but under the registry's hook lock — clearing the hook therefore
 * waits out in-flight invocations, so a scheduler being destroyed
 * (a dying Session's pool) can never be called into after its
 * clearReencodeHook() returns.
 */

#ifndef SMASH_SERVE_REGISTRY_HH
#define SMASH_SERVE_REGISTRY_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "engine/matrix_cell.hh"
#include "formats/coo_matrix.hh"
#include "shard/sharded_matrix.hh"

namespace smash::serve
{

/** Snapshot of one registered matrix (eng::MatrixInfo; `shards` is
 *  0 for put() entries). */
using MatrixInfo = eng::MatrixInfo;

/** Named-matrix store: cached encodings + drift-aware reselection. */
class MatrixRegistry
{
  public:
    /** Reader's handle on one encoding epoch. */
    using EncodingPtr = std::shared_ptr<const eng::SparseMatrixAny>;
    /** Re-encode scheduler: must eventually call runReencode(name)
     *  (the serving pipeline posts it onto the thread pool). */
    using ReencodeHook =
        std::function<void(const std::string& name, eng::Format target)>;

    MatrixRegistry() = default;
    MatrixRegistry(const MatrixRegistry&) = delete;
    MatrixRegistry& operator=(const MatrixRegistry&) = delete;

    /**
     * Register @p coo under @p name (must be unused) and analyze
     * its structure once to choose the primary format. The content
     * is canonicalized into the CSR master copy; no encoding is
     * built yet.
     * @return the chosen format
     */
    eng::Format put(const std::string& name, fmt::CooMatrix coo);
    eng::Format put(const std::string& name, fmt::CooMatrix coo,
                    eng::Format format);
    eng::Format put(const std::string& name, fmt::CooMatrix coo,
                    eng::Format format,
                    const eng::SparseMatrixAny::BuildOptions& build);

    /**
     * Register @p coo under @p name as a shard::ShardedMatrix
     * row-partitioned into @p shards nnz-balanced bands, each with
     * its own format selection, plan cache, drift detector, and
     * NUMA placement. Requests route to the sharded scatter–gather
     * paths transparently; mutations route deltas to the owning
     * shard, and drift re-encodes run per shard (through the same
     * async hook as whole-matrix re-encodes).
     * @return shard 0's format (the entry's "primary")
     */
    eng::Format registerSharded(const std::string& name,
                                fmt::CooMatrix coo, Index shards);
    eng::Format registerSharded(
        const std::string& name, fmt::CooMatrix coo, Index shards,
        const eng::SparseMatrixAny::BuildOptions& build);

    /** The entry's ShardedMatrix, or null when @p name was
     *  registered unsharded. */
    std::shared_ptr<shard::ShardedMatrix>
    sharded(const std::string& name) const;

    bool contains(const std::string& name) const;
    Index rows(const std::string& name) const;
    Index cols(const std::string& name) const;

    /** Current primary format (put()-time choice until a
     *  drift-triggered re-encode swaps it). */
    eng::Format format(const std::string& name) const;

    /**
     * The primary encoding; converts on first use, cached until the
     * next mutation or format swap. The returned shared_ptr pins
     * that epoch's object for as long as the caller holds it.
     */
    EncodingPtr encoded(const std::string& name);

    /** Encoding in an explicit format (same caching contract). */
    EncodingPtr encodedAs(const std::string& name, eng::Format format);

    /**
     * The primary encoding if (and only if) it is already built —
     * never converts; returns null when it is not built. The serving
     * pipeline's fast path: a cached matrix skips the async
     * prepare hop entirely, so steady-state requests reach their
     * batcher inline, in submission order.
     */
    EncodingPtr encodedIfCached(const std::string& name);

    /** encodedIfCached() for an explicit format. */
    EncodingPtr encodedAsIfCached(const std::string& name,
                                  eng::Format format);

    /**
     * Mutation API. Each call applies to the CSR master under the
     * matrix's lock, invalidates the cached encodings, updates the
     * incremental profile, and runs the drift detector; results
     * served afterwards reflect the new content (the next encoded()
     * call rebuilds in the current format).
     */
    eng::UpdateOutcome applyUpdates(const std::string& name,
                                    fmt::CooMatrix deltas);
    eng::UpdateOutcome replaceRows(const std::string& name,
                                   const std::vector<Index>& rows,
                                   fmt::CooMatrix replacement);
    eng::UpdateOutcome scaleValues(const std::string& name,
                                   Value factor);

    /** Incrementally maintained structural profile. */
    eng::StructureStats profile(const std::string& name) const;

    /**
     * Execute the pending re-encode for @p name (no-op when none is
     * pending): snapshot the master, build the target encoding
     * outside the lock, and swap it in atomically if no mutation
     * intervened (retrying a few times when one did). This is what
     * the hook must eventually invoke; with no hook installed the
     * registry calls it inline from the mutating thread.
     */
    void runReencode(const std::string& name);

    /**
     * Install (or clear, with nullptr) the re-encode scheduler.
     * serve::Session installs one that posts onto its pipeline.
     * @p owner tags the installation so clearReencodeHook() from a
     * stale owner cannot wipe a newer session's hook.
     */
    void setReencodeHook(ReencodeHook hook,
                         const void* owner = nullptr);

    /**
     * Clear the hook only if @p owner still owns it (a destroyed
     * session must not detach its successor's scheduler). Blocks
     * until any in-flight hook invocation has returned: after this
     * call, no mutation — however far past its drift detection —
     * can reach the owner's pipeline again.
     */
    void clearReencodeHook(const void* owner);

    /** Policy for every registered matrix (tunable at runtime). */
    void setReselectPolicy(const eng::ReselectPolicy& policy);

    /** Conversions performed so far for @p name. */
    std::size_t conversions(const std::string& name) const;
    /** Drift-triggered format swaps completed so far. */
    std::size_t reselects(const std::string& name) const;

    MatrixInfo info(const std::string& name) const;
    std::vector<std::string> names() const;

  private:
    /** A put() entry is one cell; a registerSharded() entry is a
     *  ShardedMatrix of cells. Both expose the same lifecycle
     *  members, so every entry point is one visit(). */
    using Entry = std::variant<std::unique_ptr<eng::MatrixCell>,
                               std::shared_ptr<shard::ShardedMatrix>>;

    const Entry& entry(const std::string& name) const;
    void insert(const std::string& name, Entry entry);
    /** @p fn applied to @p name's cell or sharded matrix. */
    template <typename F>
    decltype(auto)
    visit(const std::string& name, F&& fn) const
    {
        return std::visit([&](const auto& m) { return fn(*m); },
                          entry(name));
    }
    eng::ReselectPolicy policy() const;
    /** Dispatch one scheduled re-encode: through the installed hook
     *  (invoked under hook_mutex_, so clearReencodeHook() blocks
     *  until the invocation finishes — the hook target can never be
     *  torn down mid-call), inline otherwise. */
    void fireReencode(const std::string& name, eng::Format target);

    mutable std::mutex mutex_; //!< guards the name table + policy
    std::unordered_map<std::string, Entry> entries_;
    /** Guards the hook pair below and serializes hook invocation
     *  against install/clear: held while the hook runs, so a
     *  cleared hook has provably finished every invocation when
     *  clearReencodeHook() returns. */
    mutable std::mutex hook_mutex_;
    ReencodeHook hook_;
    const void* hookOwner_ = nullptr;
    eng::ReselectPolicy policy_;
};

} // namespace smash::serve

#endif // SMASH_SERVE_REGISTRY_HH
