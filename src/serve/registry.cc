#include "serve/registry.hh"

#include <optional>
#include <utility>

#include "common/logging.hh"
#include "engine/autoselect.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace smash::serve
{

void
MatrixRegistry::insert(const std::string& name, Entry entry)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const bool inserted = entries_.emplace(name, std::move(entry)).second;
    SMASH_CHECK(inserted, "registry already holds a matrix named '",
                name, "'");
}

eng::Format
MatrixRegistry::put(const std::string& name, fmt::CooMatrix coo)
{
    if (!coo.isCanonical())
        coo.canonicalize();
    // §7.2.3-style structure analysis, run exactly once per matrix
    // (the tracker's one-pass scan doubles as the initial profile).
    fmt::CsrMatrix master = fmt::CsrMatrix::fromCoo(coo);
    eng::StructureTracker profile(master);
    const eng::Format chosen = eng::chooseFormat(profile.stats());
    insert(name, std::make_unique<eng::MatrixCell>(
                     std::move(master), std::move(profile), chosen,
                     eng::SparseMatrixAny::BuildOptions()));
    return chosen;
}

eng::Format
MatrixRegistry::put(const std::string& name, fmt::CooMatrix coo,
                    eng::Format format)
{
    return put(name, std::move(coo), format,
               eng::SparseMatrixAny::BuildOptions());
}

eng::Format
MatrixRegistry::put(const std::string& name, fmt::CooMatrix coo,
                    eng::Format format,
                    const eng::SparseMatrixAny::BuildOptions& build)
{
    if (!coo.isCanonical())
        coo.canonicalize();
    fmt::CsrMatrix master = fmt::CsrMatrix::fromCoo(coo);
    eng::StructureTracker profile(master);
    insert(name, std::make_unique<eng::MatrixCell>(
                     std::move(master), std::move(profile), format,
                     build));
    return format;
}

eng::Format
MatrixRegistry::registerSharded(const std::string& name,
                                fmt::CooMatrix coo, Index shards)
{
    return registerSharded(name, std::move(coo), shards,
                           eng::SparseMatrixAny::BuildOptions());
}

eng::Format
MatrixRegistry::registerSharded(
    const std::string& name, fmt::CooMatrix coo, Index shards,
    const eng::SparseMatrixAny::BuildOptions& build)
{
    if (!coo.isCanonical())
        coo.canonicalize();
    auto sharded = std::make_shared<shard::ShardedMatrix>(
        name, fmt::CsrMatrix::fromCoo(coo), shards, build);
    const eng::Format chosen = sharded->primaryFormat();
    insert(name, std::move(sharded));
    return chosen;
}

std::shared_ptr<shard::ShardedMatrix>
MatrixRegistry::sharded(const std::string& name) const
{
    const auto* sharded =
        std::get_if<std::shared_ptr<shard::ShardedMatrix>>(
            &entry(name));
    return sharded ? *sharded : nullptr;
}

bool
MatrixRegistry::contains(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(name) != 0;
}

const MatrixRegistry::Entry&
MatrixRegistry::entry(const std::string& name) const
{
    // Entries are never erased, so the reference outlives the lock.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    SMASH_CHECK(it != entries_.end(), "registry has no matrix named '",
                name, "'");
    return it->second;
}

Index
MatrixRegistry::rows(const std::string& name) const
{
    return visit(name, [](const auto& m) { return m.rows(); });
}

Index
MatrixRegistry::cols(const std::string& name) const
{
    return visit(name, [](const auto& m) { return m.cols(); });
}

eng::Format
MatrixRegistry::format(const std::string& name) const
{
    return visit(name, [](const auto& m) { return m.format(); });
}

MatrixRegistry::EncodingPtr
MatrixRegistry::encoded(const std::string& name)
{
    return visit(name, [](auto& m) { return m.encoded(); });
}

MatrixRegistry::EncodingPtr
MatrixRegistry::encodedAs(const std::string& name, eng::Format format)
{
    return visit(name, [format](auto& m) { return m.encodedAs(format); });
}

MatrixRegistry::EncodingPtr
MatrixRegistry::encodedIfCached(const std::string& name)
{
    return visit(name, [](const auto& m) { return m.encodedIfCached(); });
}

MatrixRegistry::EncodingPtr
MatrixRegistry::encodedAsIfCached(const std::string& name,
                                  eng::Format format)
{
    return visit(name, [format](const auto& m) {
        return m.encodedAsIfCached(format);
    });
}

eng::ReselectPolicy
MatrixRegistry::policy() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return policy_;
}

void
MatrixRegistry::fireReencode(const std::string& name,
                             eng::Format target)
{
    {
        // Invoke the scheduler under the hook lock: a session
        // tearing down blocks in clearReencodeHook() until this
        // call returns, so the hook can never post onto a pool
        // whose teardown has already been allowed to proceed. The
        // hook body is cheap (it posts one task), so the critical
        // section is short.
        std::lock_guard<std::mutex> lock(hook_mutex_);
        if (hook_) {
            hook_(name, target);
            return;
        }
    }
    // No scheduler attached: re-encode synchronously on the
    // mutating thread (standalone registry use).
    runReencode(name);
}

eng::UpdateOutcome
MatrixRegistry::applyUpdates(const std::string& name,
                             fmt::CooMatrix deltas)
{
    if (!deltas.isCanonical())
        deltas.canonicalize();
    const eng::UpdateOutcome out = visit(name, [&](auto& m) {
        return m.applyUpdates(deltas, policy());
    });
    // Fired with no matrix lock held.
    if (out.reencodeScheduled)
        fireReencode(name, out.target);
    return out;
}

eng::UpdateOutcome
MatrixRegistry::replaceRows(const std::string& name,
                            const std::vector<Index>& rows,
                            fmt::CooMatrix replacement)
{
    if (!replacement.isCanonical())
        replacement.canonicalize();
    const eng::UpdateOutcome out = visit(name, [&](auto& m) {
        return m.replaceRows(rows, replacement, policy());
    });
    if (out.reencodeScheduled)
        fireReencode(name, out.target);
    return out;
}

eng::UpdateOutcome
MatrixRegistry::scaleValues(const std::string& name, Value factor)
{
    return visit(name,
                 [factor](auto& m) { return m.scaleValues(factor); });
}

eng::StructureStats
MatrixRegistry::profile(const std::string& name) const
{
    // Sharded entries profile per band; shard 0 stands in for the
    // whole-matrix view (use sharded()->profile(k) for the rest).
    return visit(name, [](const auto& m) { return m.profile(); });
}

void
MatrixRegistry::runReencode(const std::string& name)
{
    const Entry& e = entry(name);
    if (const auto* sharded =
            std::get_if<std::shared_ptr<shard::ShardedMatrix>>(&e)) {
        (*sharded)->runReencode(); // swaps and reports per shard
        return;
    }
    const std::optional<eng::Format> target =
        std::get<std::unique_ptr<eng::MatrixCell>>(e)->runReencode();
    if (!target)
        return;
    static obs::Counter& swaps = obs::MetricsRegistry::global().counter(
        "smash_registry_epoch_swaps_total");
    swaps.inc();
    SMASH_TRACE_EVENT(obs::EventKind::kEpochSwap,
                      static_cast<std::uint32_t>(*target));
}

void
MatrixRegistry::setReencodeHook(ReencodeHook hook, const void* owner)
{
    std::lock_guard<std::mutex> lock(hook_mutex_);
    hook_ = std::move(hook);
    hookOwner_ = hook_ ? owner : nullptr;
}

void
MatrixRegistry::clearReencodeHook(const void* owner)
{
    // Taking hook_mutex_ waits out any in-flight fireReencode()
    // invocation: when this returns, the owner's scheduler has
    // provably been called for the last time.
    std::lock_guard<std::mutex> lock(hook_mutex_);
    if (hookOwner_ != owner)
        return; // a newer owner installed its own hook: keep it
    hook_ = nullptr;
    hookOwner_ = nullptr;
}

void
MatrixRegistry::setReselectPolicy(const eng::ReselectPolicy& policy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    policy_ = policy;
}

std::size_t
MatrixRegistry::conversions(const std::string& name) const
{
    return info(name).conversions;
}

std::size_t
MatrixRegistry::reselects(const std::string& name) const
{
    return info(name).reselects;
}

MatrixInfo
MatrixRegistry::info(const std::string& name) const
{
    return visit(name, [](const auto& m) { return m.info(); });
}

std::vector<std::string>
MatrixRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_)
        out.push_back(name);
    return out;
}

} // namespace smash::serve
