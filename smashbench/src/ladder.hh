/**
 * @file
 * The traced per-layer ladder: a seeded sample of the workload's
 * requests replayed at five rungs against the same encodings —
 * L0 eng::spmv/spmmBatch/spadd with NativeExec, L1 the engine's
 * parallel dispatch, L2 serve::Session::submit in process, L3
 * net::Client over the socket, L4 net::RetryingClient — plus the
 * kernel, shard, registry and counter readings that make up the
 * per-layer metrics. Everything is timed from outside, around calls
 * into public functions, or read from counters the library exports.
 */

#ifndef SMASHBENCH_LADDER_HH
#define SMASHBENCH_LADDER_HH

#include <string>
#include <vector>

#include "workloads.hh"

namespace smashbench
{

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 1;
};

/** Global counters and the session's stage sums, read together so
 *  a phase's share is a difference of two snapshots. */
struct CounterSnapshot
{
    double planHit = 0, planMiss = 0;
    double poolSticky = 0, poolStolen = 0;
    double flushSize = 0, flushOther = 0;
    double widthSum = 0, widthCount = 0;
    double rxBytes = 0, txBytes = 0, rxFrames = 0;
    double wireErrors = 0;
    double shed = 0;
    double stageSumUs[5] = {};
    double stageCount[5] = {};
};

CounterSnapshot snapshot(Served& served);

/** What the traced run measured before the ladder runs. */
struct TracedRun
{
    double untracedP50Us = 0;
    PhaseResult traced;
    CounterSnapshot before; //!< start of the traced load phase
    CounterSnapshot after;  //!< end of the traced load phase
    CounterSnapshot runStart; //!< after set-up, before the warm-up
};

/**
 * Run the ladder and the re-encode probe, then append the per-layer
 * metrics to @p out (all but serve.registry.update_us and the two
 * end-to-end tails, which the caller adds: its update probe mutates
 * the matrix the ladder reads). Answers are checked at every rung;
 * wrong ones are counted into @p checks.
 */
void runLadder(Inputs& in, Served& served, const RunOptions& options,
               SpanLog& spans, const TracedRun& run, Tally& checks,
               std::vector<Metric>& out);

} // namespace smashbench

#endif // SMASHBENCH_LADDER_HH
