#include "ladder.hh"

#include <cstdio>
#include <map>
#include <random>

#include "common/parallel_exec.hh"
#include "core/smash_matrix.hh"
#include "engine/dispatch.hh"
#include "net/client.hh"
#include "net/retry_client.hh"
#include "obs/metrics.hh"
#include "shard/sharded_matrix.hh"

namespace smashbench
{

namespace eng = smash::eng;
namespace net = smash::net;
namespace obs = smash::obs;

namespace
{

double
counter(const std::string& name)
{
    return double(obs::MetricsRegistry::global().counterValue(name));
}

obs::Histogram&
histogram(const std::string& name)
{
    return obs::MetricsRegistry::global().histogram(name);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

template <typename T>
double
vecBytes(const std::vector<T>& v)
{
    return double(v.size() * sizeof(T));
}

/** Bytes of the arrays one SpMV walks, computed from their sizes. */
double
encodedBytes(const eng::SparseMatrixAny& m)
{
    switch (m.format()) {
      case eng::Format::kCsr: {
        const auto& c = m.as<fmt::CsrMatrix>();
        return vecBytes(c.rowPtr()) + vecBytes(c.colInd()) +
            vecBytes(c.values());
      }
      case eng::Format::kEll: {
        const auto& e = m.as<fmt::EllMatrix>();
        return vecBytes(e.colInd()) + vecBytes(e.values());
      }
      case eng::Format::kDia: {
        const auto& d = m.as<fmt::DiaMatrix>();
        return vecBytes(d.offsets()) + vecBytes(d.values());
      }
      case eng::Format::kSmash:
        return double(m.as<smash::core::SmashMatrix>().storageBytesDense());
      default:
        return double(m.nnz()) * double(sizeof(Value) + sizeof(Index));
    }
}

/**
 * Time calls of @p fn (one span each, named @p name) until @p budget
 * seconds have gone or @p max_calls calls were made, at least
 * @p min_calls; @p prep runs untimed before each call.
 */
template <typename Prep, typename Fn>
std::vector<double>
timeCalls(SpanLog& spans, const std::string& name, double budget,
          int min_calls, int max_calls, const Prep& prep, const Fn& fn)
{
    std::vector<double> us;
    const Clock::time_point end = Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(budget));
    for (int i = 0; i < max_calls && (i < min_calls || Clock::now() < end);
         ++i) {
        prep();
        const std::int32_t span = spans.begin(name);
        const Clock::time_point t0 = Clock::now();
        fn();
        us.push_back(usBetween(t0, Clock::now()));
        spans.end(span);
    }
    return us;
}

double
median(std::vector<double> v)
{
    return quantile(v, 0.5);
}

double
sumUs(const SpanLog& spans, const std::string& name)
{
    double total = 0;
    for (double v : spans.durationsUs(name))
        total += v;
    return total;
}

/** The served encoding of @p name as one monolithic matrix: the
 *  registry's primary for unsharded entries, a whole-matrix
 *  materialization in shard 0's format for sharded ones. */
serve::MatrixRegistry::EncodingPtr
servedEncoding(serve::MatrixRegistry& registry, const std::string& name)
{
    if (const auto sh = registry.sharded(name))
        return registry.encodedAs(name, sh->primaryFormat());
    return registry.encoded(name);
}

/** Does a SpMV answer match the template's oracle? (No writer runs
 *  during the ladder, so the current epoch is the only one.) */
bool
spmvRight(const Inputs& in, const Template& t, const std::vector<Value>& y)
{
    if (t.operand < 0)
        return sameBits(y, t.y);
    const std::uint64_t e = in.oracle->completed();
    return in.oracle->check(t.operand, y, e, e) ==
        EpochOracle::Verdict::kMatch;
}

/** One ladder request, answered at every rung. */
struct Rungs
{
    Inputs& in;
    Served& served;
    smash::exec::ParallelExec& pe;
    net::Client client;
    net::RetryingClient retrying;
    Tally& checks;

    /** L0/L1 operands, fetched once so the rungs time only the
     *  engine call (no writer runs while the ladder does). */
    std::map<std::string, serve::MatrixRegistry::EncodingPtr> enc, csr;

    Rungs(Inputs& inputs, Served& s, smash::exec::ParallelExec& exec,
          Tally& tally)
        : in(inputs), served(s), pe(exec),
          retrying(net::Endpoint{s.socketPath, "localhost", -1}),
          checks(tally)
    {
        for (const MatrixInput& m : in.matrices) {
            enc[m.name] = servedEncoding(*s.registry, m.name);
            csr[m.name] = s.registry->encodedAs(m.name, eng::Format::kCsr);
        }
        std::string error;
        if (!client.connectUnixSocket(s.socketPath, error))
            std::fprintf(stderr, "ladder connect: %s\n", error.c_str());
    }

    template <typename R, typename Right>
    void
    account(const R& r, const Right& right)
    {
        if (!r.ok())
            checks.fail();
        else if (!right(r.value()))
            checks.mismatch();
        else
            checks.ok(0);
    }

    void
    run(const Template& t, serve::Priority pr, int rung)
    {
        serve::RequestOptions o;
        o.priority = pr;
        smash::sim::NativeExec ne;
        const auto spmvOk = [&](const std::vector<Value>& y) {
            return spmvRight(in, t, y);
        };
        const auto spmmOk = [&](const fmt::DenseMatrix& c) {
            return sameBits(c, t.c);
        };
        const auto spaddOk = [&](const fmt::CooMatrix& s) {
            return sameBits(s, t.sum);
        };
        switch (t.op) {
          case Op::kSpmv:
            switch (rung) {
              case 0:
              case 1: {
                const auto& m = *enc.at(t.a);
                std::vector<Value> y(static_cast<std::size_t>(m.rows()),
                                     Value(0));
                if (rung == 0)
                    eng::spmv(m.ref(), t.x, y, ne);
                else
                    eng::spmv(m.ref(), t.x, y, pe);
                account(serve::Result<std::vector<Value>>(std::move(y)),
                        spmvOk);
                return;
              }
              case 2:
                account(served.server->session()
                            .submit(serve::SpmvRequest{t.a, t.x, o})
                            .get(),
                        spmvOk);
                return;
              case 3:
                account(client.spmv(serve::SpmvRequest{t.a, t.x, o}),
                        spmvOk);
                return;
              default:
                account(retrying.spmv(serve::SpmvRequest{t.a, t.x, o}),
                        spmvOk);
                return;
            }
          case Op::kSpmm:
            switch (rung) {
              case 0:
              case 1: {
                const auto& m = *enc.at(t.a);
                fmt::DenseMatrix c(m.rows(), t.block.cols());
                if (rung == 0)
                    eng::spmmBatch(m.ref(), t.block, c, ne);
                else
                    eng::spmmBatch(m.ref(), t.block, c, pe);
                account(serve::Result<fmt::DenseMatrix>(std::move(c)),
                        spmmOk);
                return;
              }
              case 2:
                account(served.server->session()
                            .submit(serve::SpmmRequest{t.a, t.block, o})
                            .get(),
                        spmmOk);
                return;
              case 3:
                account(client.spmm(serve::SpmmRequest{t.a, t.block, o}),
                        spmmOk);
                return;
              default:
                account(
                    retrying.spmm(serve::SpmmRequest{t.a, t.block, o}),
                    spmmOk);
                return;
            }
          default:
            switch (rung) {
              case 0:
              case 1: {
                // SpAdd runs on CSR views, as the serving pipeline
                // does for formats without a SpAdd kernel.
                const auto& a = csr.at(t.a);
                const auto& b = csr.at(t.b);
                eng::SparseMatrixAny sum =
                    rung == 0 ? eng::spadd(a->ref(), b->ref(), ne)
                              : eng::spadd(a->ref(), b->ref(), pe);
                account(serve::Result<fmt::CooMatrix>(
                            sum.as<fmt::CooMatrix>()),
                        spaddOk);
                return;
              }
              case 2:
                account(served.server->session()
                            .submit(serve::SpaddRequest{t.a, t.b, o})
                            .get(),
                        spaddOk);
                return;
              case 3:
                account(client.spadd(serve::SpaddRequest{t.a, t.b, o}),
                        spaddOk);
                return;
              default:
                account(retrying.spadd(serve::SpaddRequest{t.a, t.b, o}),
                        spaddOk);
                return;
            }
        }
    }
};

} // namespace

CounterSnapshot
snapshot(Served& served)
{
    CounterSnapshot s;
    s.planHit = counter("smash_plan_cache_lookups_total{result=\"hit\"}");
    s.planMiss = counter("smash_plan_cache_lookups_total{result=\"miss\"}");
    s.poolSticky = counter("smash_pool_chunks_total{kind=\"sticky\"}");
    s.poolStolen = counter("smash_pool_chunks_total{kind=\"stolen\"}");
    s.flushSize = counter("smash_batcher_flushes_total{reason=\"size\"}");
    s.flushOther =
        counter("smash_batcher_flushes_total{reason=\"deadline\"}") +
        counter("smash_batcher_flushes_total{reason=\"priority\"}") +
        counter("smash_batcher_flushes_total{reason=\"manual\"}");
    const obs::Histogram& width = histogram("smash_batcher_flush_width");
    s.widthSum = double(width.sum());
    s.widthCount = double(width.count());
    const obs::Histogram& rx = histogram("smash_net_frame_bytes{dir=\"rx\"}");
    const obs::Histogram& tx = histogram("smash_net_frame_bytes{dir=\"tx\"}");
    s.rxBytes = double(rx.sum());
    s.rxFrames = double(rx.count());
    s.txBytes = double(tx.sum());
    s.wireErrors = counter("smash_net_wire_errors_total");
    s.shed = counter("smash_shed_total{priority=\"high\"}") +
        counter("smash_shed_total{priority=\"normal\"}") +
        counter("smash_shed_total{priority=\"batch\"}");
    const serve::PipelineStats& stats = served.server->session().stats();
    for (std::size_t i = 0; i < serve::kNumPipelineStages; ++i) {
        const auto& h = stats.stage(static_cast<serve::PipelineStage>(i));
        s.stageSumUs[i] = double(h.sumUs());
        s.stageCount[i] = double(h.count());
    }
    return s;
}

void
runLadder(Inputs& in, Served& served, const RunOptions& options,
          SpanLog& spans, const TracedRun& run, Tally& checks,
          std::vector<Metric>& out)
{
    const auto add = [&](const std::string& name, double value,
                         const std::string& unit, std::size_t n = 1) {
        out.push_back(Metric{name, value, unit, n});
    };
    auto& registry = *served.registry;
    // The matrix's current content (drift has mutated it by now).
    const auto csr_enc = registry.encodedAs(in.mutable_, eng::Format::kCsr);
    const fmt::CsrMatrix& csr = csr_enc->as<fmt::CsrMatrix>();
    const std::vector<Value>& x = in.oracle->x(0);
    smash::sim::NativeExec ne;
    const bool big = csr.nnz() > 100000;
    const double budget = big ? 0.4 : 0.15;

    // --- Kernels and engine dispatch on the SpMV matrix. ---
    const auto served_enc = servedEncoding(registry, in.mutable_);
    std::vector<Value> y(static_cast<std::size_t>(csr.rows()));
    const auto zero = [&] { std::fill(y.begin(), y.end(), Value(0)); };
    auto spmv_us = timeCalls(spans, "kernels.spmv", budget, 20, 5000, zero,
                             [&] { eng::spmv(served_enc->ref(), x, y, ne); });
    if (!spmvRight(in, in.templates[0], y))
        checks.mismatch();
    auto csr_us = timeCalls(spans, "kernels.spmv_csr", budget, 20, 5000,
                            zero, [&] { eng::spmv(csr, x, y, ne); });
    const Index kCols = 8;
    fmt::DenseMatrix block(csr.cols(), kCols);
    for (Index j = 0; j < block.rows(); ++j)
        for (Index r = 0; r < kCols; ++r)
            block.at(j, r) = x[static_cast<std::size_t>(j)];
    fmt::DenseMatrix c(csr.rows(), kCols);
    const auto zeroC = [&] {
        std::fill(c.data().begin(), c.data().end(), Value(0));
    };
    auto spmm_us =
        timeCalls(spans, "kernels.spmm", budget, 10, 2000, zeroC,
                  [&] { eng::spmmBatch(served_enc->ref(), block, c, ne); });
    const Index kRhs = 16;
    fmt::DenseMatrix xb(served_enc->xLength(), kRhs);
    for (Index j = 0; j < csr.cols(); ++j)
        for (Index r = 0; r < kRhs; ++r)
            xb.at(j, r) = x[static_cast<std::size_t>(j)];
    fmt::DenseMatrix yb(csr.rows(), kRhs);
    auto batch_us = timeCalls(
        spans, "engine.spmv_batch", budget, 10, 2000,
        [&] { std::fill(yb.data().begin(), yb.data().end(), Value(0)); },
        [&] { eng::spmvBatch(served_enc->ref(), xb, yb, ne); });
    std::vector<Value> col(static_cast<std::size_t>(csr.rows()));
    for (Index i = 0; i < csr.rows(); ++i)
        col[static_cast<std::size_t>(i)] = yb.at(i, kRhs - 1);
    if (!spmvRight(in, in.templates[0], col))
        checks.mismatch();
    smash::exec::ParallelExec pe(2);
    auto par_us = timeCalls(spans, "engine.spmv_par", budget, 20, 5000, zero,
                            [&] { eng::spmv(served_enc->ref(), x, y, pe); });
    if (!spmvRight(in, in.templates[0], y))
        checks.mismatch();

    const double kern = median(spmv_us);
    const double kern_csr = median(csr_us);
    add("kernels.spmv_us", kern, "us", spmv_us.size());
    add("kernels.spmm_us", median(spmm_us), "us", spmm_us.size());
    add("kernels.spmv_csr_us", kern_csr, "us", csr_us.size());
    add("kernels.format_ratio", ratio(kern, kern_csr), "ratio");
    add("kernels.flops_per_spmv", 2.0 * double(csr.nnz()), "flop");
    add("kernels.bytes_per_spmv",
        encodedBytes(*served_enc) +
            double(served_enc->xLength() + 2 * served_enc->rows()) *
                sizeof(Value),
        "B");
    add("engine.spmv_batch_us_per_rhs", median(batch_us) / double(kRhs),
        "us", batch_us.size());
    add("engine.spmv_par_us", median(par_us), "us", par_us.size());

    // --- Shard scatter-gather against the monolithic call. ---
    // Only a sharded matrix has the layer. An unsharded one is served
    // as one band: its shard time is the monolithic call above.
    if (const auto sharded = registry.sharded(in.mutable_)) {
        auto shard_us =
            timeCalls(spans, "shard.spmv", budget, 20, 5000, zero,
                      [&] { sharded->spmv(x, y, nullptr); });
        const std::vector<eng::Format> formats = sharded->shardFormats();
        const eng::SparseMatrixAny mono = eng::SparseMatrixAny::fromCsr(
            csr, formats.front(), eng::SparseMatrixAny::BuildOptions());
        auto mono_us =
            timeCalls(spans, "shard.mono_spmv", budget, 20, 5000, zero,
                      [&] { eng::spmv(mono.ref(), x, y, ne); });
        add("shard.spmv_us", median(shard_us), "us", shard_us.size());
        add("shard.overhead_ratio",
            ratio(median(shard_us), median(mono_us)), "ratio");
        std::printf("shard formats:");
        for (eng::Format f : formats)
            std::printf(" %s", eng::toString(f));
        std::printf("\n");
    } else {
        add("shard.spmv_us", kern, "us", spmv_us.size());
        add("shard.overhead_ratio", 1.0, "ratio");
    }

    // --- The request ladder, L0..L4 interleaved per request. ---
    {
        Rungs rungs(in, served, pe, checks);
        std::mt19937_64 rng(options.seed * 7 + 3);
        const int kRequests = 1000;
        for (int i = 0; i < kRequests; ++i) {
            const auto& mix = in.mix[rng() % in.mix.size()];
            const Inputs::Draw d = mix[rng() % mix.size()];
            const Template& t = in.templates[d.tmpl];
            // A lone kBatch request would wait out the whole 1.6 ms
            // batch cap, which full blocks in the load phase do not:
            // send it kNormal.
            const serve::Priority pr = d.high ? serve::Priority::kHigh
                : in.spec.priority == serve::Priority::kBatch
                ? serve::Priority::kNormal
                : in.spec.priority;
            for (int rung = 0; rung < 5; ++rung) {
                static const char* kRung[] = {"L0", "L1", "L2", "L3", "L4"};
                ScopedSpan sp(spans, kRung[rung], -1,
                              static_cast<std::uint64_t>(i));
                rungs.run(t, pr, rung);
            }
        }
        std::vector<double> l2 = spans.durationsUs("L2");
        std::vector<double> l3 = spans.durationsUs("L3");
        std::vector<double> l4 = spans.durationsUs("L4");
        const double l2p50 = quantile(l2, 0.5), l3p50 = quantile(l3, 0.5);
        add("serve.session.latency_p50_us", l2p50, "us", l2.size());
        add("serve.session.latency_p99_us", quantile(l2, 0.99), "us",
            l2.size());
        add("net.rtt_p50_us", l3p50, "us", l3.size());
        add("net.rtt_p99_us", quantile(l3, 0.99), "us", l3.size());
        add("net.self_us", l3p50 - l2p50, "us");
        add("net.retry.self_us", quantile(l4, 0.5) - l3p50, "us");
        add("net.retry.retries", double(rungs.retrying.stats().retries),
            "count");
        add("net.retry.reconnects",
            double(rungs.retrying.stats().reconnects), "count");
        std::vector<double> l0 = spans.durationsUs("L0");
        std::vector<double> l1 = spans.durationsUs("L1");
        std::fprintf(stderr,
                     "ladder p50 (us): L0 %.1f  L1 %.1f  L2 %.1f  L3 %.1f"
                     "  L4 %.1f\n",
                     quantile(l0, 0.5), quantile(l1, 0.5), l2p50, l3p50,
                     quantile(l4, 0.5));
    }

    // --- Registry: set-up, updates, and the read after a mutation. ---
    add("serve.registry.put_ms", sumUs(spans, "serve.registry.put") / 1e3,
        "ms");
    add("serve.registry.encode_ms",
        sumUs(spans, "serve.registry.encode") / 1e3, "ms");
    {
        std::vector<double> reads;
        const Template& t = in.templates[0];
        serve::RequestOptions o;
        o.priority = serve::Priority::kHigh;
        for (int i = 0; i < 20; ++i) {
            fmt::CooMatrix delta = valueDelta(
                csr, 4, 0xabc000u + static_cast<unsigned>(i));
            in.oracle->beginUpdate(delta);
            served.server->session().applyUpdates(in.mutable_,
                                                  std::move(delta));
            in.oracle->endUpdate();
            const std::int32_t sp = spans.begin("serve.registry.reencode_read");
            const Clock::time_point t0 = Clock::now();
            auto r = served.server->session()
                         .submit(serve::SpmvRequest{t.a, t.x, o})
                         .get();
            reads.push_back(usBetween(t0, Clock::now()) / 1e3);
            spans.end(sp);
            if (!r.ok())
                checks.fail();
            else if (!spmvRight(in, t, r.value()))
                checks.mismatch();
        }
        add("serve.registry.reencode_read_ms", quantile(reads, 0.5), "ms",
            reads.size());
    }
    const serve::MatrixInfo info = registry.info(in.mutable_);
    add("serve.registry.conversions", double(info.conversions), "count");
    add("serve.registry.reselects", double(info.reselects), "count");

    // --- Pipeline, batcher and wire during the traced load phase. ---
    const CounterSnapshot& a = run.before;
    const CounterSnapshot& b = run.after;
    static const char* kStages[] = {"admit", "prepare", "batch_wait",
                                    "compute", "deliver"};
    for (int i = 0; i < 5; ++i)
        add(std::string("serve.pipeline.") + kStages[i] + "_us",
            ratio(b.stageSumUs[i] - a.stageSumUs[i],
                  b.stageCount[i] - a.stageCount[i]),
            "us", static_cast<std::size_t>(b.stageCount[i] - a.stageCount[i]));
    add("serve.batcher.width_mean",
        ratio(b.widthSum - a.widthSum, b.widthCount - a.widthCount),
        "requests");
    add("serve.batcher.size_flush_frac",
        ratio(b.flushSize - a.flushSize,
              b.flushSize - a.flushSize + b.flushOther - a.flushOther),
        "ratio");
    add("net.bytes_per_request",
        ratio(b.rxBytes - a.rxBytes + b.txBytes - a.txBytes,
              b.rxFrames - a.rxFrames),
        "B");

    // --- Whole traced run: engine, pool, admission, shedding. ---
    const CounterSnapshot end = snapshot(served);
    const CounterSnapshot& s0 = run.runStart;
    add("engine.plan_hit_frac",
        ratio(end.planHit - s0.planHit,
              end.planHit - s0.planHit + end.planMiss - s0.planMiss),
        "ratio");
    add("common.pool.steal_frac",
        ratio(end.poolStolen - s0.poolStolen,
              end.poolStolen - s0.poolStolen + end.poolSticky -
                  s0.poolSticky),
        "ratio");
    add("serve.session.overload_rejects",
        double(served.server->session().overloadRejects()), "count");
    add("serve.shed.total", end.shed - s0.shed, "count");
    add("net.wire_errors", end.wireErrors - s0.wireErrors, "count");

    // --- Generator and tracing. ---
    std::vector<double> lag = in.spec.openLoop ? run.traced.schedLagUs
                                               : run.traced.writerLagUs;
    add("gen.sched_lag_p99_us", quantile(lag, 0.99), "us", lag.size());
    std::vector<double> traced_lat = run.traced.tally.latencyUs;
    add("obs.trace_overhead_frac",
        ratio(quantile(traced_lat, 0.5) - run.untracedP50Us,
              run.untracedP50Us),
        "ratio");
}

} // namespace smashbench
