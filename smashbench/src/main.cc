/**
 * @file
 * smashbench — the served-workload benchmark.
 *
 *   smashbench --workload {interactive,bulk,drift} --seed N
 *              --seconds S --trace {0,1} [--sock-dir DIR]
 *
 * One run generates the workload's inputs from the seed, sets up a
 * serve::MatrixRegistry and an in-process net::Server on a
 * Unix-domain socket several times (set-up time is the median),
 * warms up, then drives the server over the wire for S seconds,
 * checking every answer bit for bit. --trace 0 prints the
 * end-to-end metrics; --trace 1 repeats the load phase with spans
 * on and runs the per-layer ladder (ladder.hh). The last line of
 * stdout is one JSON object: {correct, attempted, failed, metrics}.
 * A run whose answers are wrong prints correct=false and exits 1; a
 * run that could not be measured validly (generator behind its
 * schedule, no drift reselect, too few samples) prints no result
 * and exits 3.
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ladder.hh"
#include "obs/metrics.hh"
#include "workloads.hh"

namespace smashbench
{
namespace
{

/** An open-loop measurement is discarded when the generator fell
 *  behind its schedule: when its median send ran later than this
 *  share of the mean gap between a connection's arrivals. (Single
 *  late sends are host hiccups; they stay in the latencies, which
 *  are timed from the schedule.) A run makes at most kAttempts
 *  measurements. */
constexpr double kMaxSchedLagShare = 0.1;
constexpr int kAttempts = 3;
constexpr int kSetups = 41;
constexpr double kWarmupSeconds = 1.0;
constexpr int kUpdateProbeCalls = 1000;

int
usage()
{
    std::fprintf(stderr,
                 "usage: smashbench --workload {interactive,bulk,drift} "
                 "--seed N --seconds S --trace {0,1} [--sock-dir DIR]\n");
    return 2;
}

bool
parse(int argc, char** argv, RunOptions& o)
{
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        char* end = nullptr;
        if (k == "--workload") {
            o.workload = v;
        } else if (k == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                return false;
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(o.seconds > 0) || o.seconds > 60)
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            o.trace = v == "1";
            have_trace = true;
        } else if (k == "--sock-dir") {
            o.sockDir = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have_trace && !specFor(o.workload).name.empty();
}

void
printJson(bool correct, const Tally& t, const std::vector<Metric>& ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)t.attempted,
                (unsigned long long)t.failed);
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    std::printf("}}\n");
}

void
printTable(const std::vector<Metric>& ms)
{
    std::printf("%-34s %16s  %-9s %s\n", "metric", "value", "unit",
                "samples");
    for (const Metric& m : ms)
        std::printf("%-34s %16.6g  %-9s %zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
}

int
run(const RunOptions& o)
{
    Inputs in = makeInputs(o);
    const WorkloadSpec& spec = in.spec;
    SpanLog off(false);
    SpanLog spans(o.trace);

    // Set-up, several times: the median is setup_s. Each set-up is
    // timed from its empty registry to its first correct answers; the
    // input copies it takes over are made before its clock starts,
    // and it is torn down only after its clock stops. The kept set-up
    // comes first, so rss_mb sees one registry + server (master
    // copies included) built into a process that holds only the
    // inputs; the others are built beside it only for their timing.
    std::vector<double> setup_s;
    std::unique_ptr<Served> served;
    double rss0 = 0, rss1 = 0;
    for (int r = 0; r < kSetups; ++r) {
        if (r == 0) {
            ::malloc_trim(0);
            rss0 = rssMiB();
        }
        std::vector<fmt::CooMatrix> copies = inputCopies(in);
        const Clock::time_point t0 = Clock::now();
        std::unique_ptr<Served> s =
            setUp(in, std::move(copies), o, r, r == 0 ? spans : off);
        if (!s)
            return 1;
        setup_s.push_back(usBetween(t0, Clock::now()) / 1e6);
        if (r == 0) {
            ::malloc_trim(0);
            rss1 = rssMiB();
            served = std::move(s);
        }
    }
    TracedRun traced;
    traced.runStart = snapshot(*served);

    // Warm-up: the workload's own load (drift without its writer, so
    // the measured phase starts from the banded matrix).
    PhaseResult warm =
        runLoad(in, *served, kWarmupSeconds, o.seed + 1, false, off);

    const std::uint64_t reselects0 =
        served->registry->info(in.mutable_).reselects;
    const double swaps0 = double(smash::obs::MetricsRegistry::global()
                                     .counterValue(
                                         "smash_registry_epoch_swaps_total"));
    std::uint64_t mismatches = warm.tally.mismatches;
    PhaseResult measured;
    for (int attempt = 1;; ++attempt) {
        measured = runLoad(in, *served, o.seconds, o.seed, true, off);
        if (!spec.openLoop)
            break;
        std::vector<double> lag = measured.schedLagUs;
        const double p50 = quantile(lag, 0.5);
        const double gap_us = 1e6 * spec.connections / spec.ratePerSec;
        if (p50 <= kMaxSchedLagShare * gap_us)
            break;
        std::fprintf(stderr,
                     "measurement %d discarded: the generator's median "
                     "send ran %.0f us behind schedule\n",
                     attempt, p50);
        mismatches += measured.tally.mismatches;
        if (attempt == kAttempts)
            return 3;
    }
    Tally all = measured.tally;
    all.mismatches += mismatches;

    std::vector<Metric> metrics;
    std::vector<double> lat = measured.tally.latencyUs;
    const std::size_t n = lat.size();
    if (!supports(n, 0.99)) {
        std::fprintf(stderr, "only %zu ok samples: p99 needs 1000\n", n);
        return 3;
    }
    std::vector<double> update_us = measured.updateUs;
    if (spec.updatesPerSec > 0) {
        const std::uint64_t reselects =
            served->registry->info(in.mutable_).reselects - reselects0;
        const double swaps =
            double(smash::obs::MetricsRegistry::global().counterValue(
                "smash_registry_epoch_swaps_total")) -
            swaps0;
        std::printf("drift: %zu updates, %llu reselects, %.0f epoch "
                    "swaps, format now %s\n",
                    update_us.size(), (unsigned long long)reselects, swaps,
                    smash::eng::toString(
                        served->registry->format(in.mutable_)));
        if (reselects == 0) {
            std::fprintf(stderr, "drift invalid: no reselect in the run\n");
            return 3;
        }
    }

    const double p50 = quantile(lat, 0.5);
    const double p99 = quantile(lat, 0.99);
    if (!o.trace) {
        if (spec.updatesPerSec == 0)
            update_us = updateProbe(in, *served, kUpdateProbeCalls);
        if (!supports(update_us.size(), 0.99)) {
            std::fprintf(stderr, "only %zu updates: p99 needs 1000\n",
                         update_us.size());
            return 3;
        }
        metrics = {
            {"setup_s", quantile(setup_s, 0.5), "s", setup_s.size()},
            {"rss_mb", rss1 - rss0, "MiB", 1},
            {"latency_p50_us", p50, "us", n},
            {"throughput_rps", double(n) / measured.seconds, "1/s", n},
            {"within_limit_frac", all.withinLimitFrac(), "ratio",
             all.attempted},
            {"ok_frac", 1.0 - all.failedFrac(), "ratio", all.attempted},
            {"update_p50_us", quantile(update_us, 0.5), "us",
             update_us.size()},
        };
    } else {
        traced.untracedP50Us = p50;
        traced.before = snapshot(*served);
        traced.traced =
            runLoad(in, *served, o.seconds, o.seed + 2, true, spans);
        traced.after = snapshot(*served);
        all.merge(traced.traced.tally);
        Tally checks;
        runLadder(in, *served, o, spans, traced, checks, metrics);
        all.merge(checks);
        // After the ladder: the probe mutates the matrix it reads.
        std::vector<double> traced_upd = spec.updatesPerSec > 0
            ? spans.durationsUs("serve.session.apply_updates")
            : updateProbe(in, *served, kUpdateProbeCalls);
        if (spec.updatesPerSec == 0)
            update_us = traced_upd;
        metrics.push_back({"serve.registry.update_us",
                           quantile(traced_upd, 0.5), "us",
                           traced_upd.size()});
        // The end-to-end tails, from the untraced phase (README.md:
        // too unsteady across runs to carry a bound).
        metrics.push_back({"latency_p99_us", p99, "us", n});
        metrics.push_back({"update_p99_us", quantile(update_us, 0.99), "us",
                           update_us.size()});
        // Where the traced set-up went: each step, and what the
        // set-up span spent outside them.
        std::printf("spans recorded: %zu; traced set-up (ms):", spans.size());
        for (const char* step :
             {"serve.registry.put", "serve.registry.encode",
              "net.server.start", "net.connect", "warmup"}) {
            double ms = 0;
            for (double us : spans.durationsUs(step))
                ms += us / 1e3;
            std::printf(" %s %.3f", step, ms);
        }
        std::printf(", self %.3f\n", spans.selfUs("setup") / 1e3);
    }

    printTable(metrics);
    const bool correct = all.mismatches == 0;
    if (!correct)
        std::fprintf(stderr, "%llu wrong answers\n",
                     (unsigned long long)all.mismatches);
    std::fflush(stderr);
    printJson(correct, all, metrics);
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace smashbench

int
main(int argc, char** argv)
{
    smashbench::RunOptions o;
    if (!smashbench::parse(argc, argv, o))
        return smashbench::usage();
    try {
        return smashbench::run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "smashbench: %s\n", e.what());
        return 1;
    }
}
