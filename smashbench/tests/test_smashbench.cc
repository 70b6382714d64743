/**
 * @file
 * Tests of the benchmark's own arithmetic and checks: the
 * percentile and sample-count rule, how refused requests count, that
 * one flipped bit in a response fails the run, span self time, the
 * epoch oracle, and the clustered generator's capacity check.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "bench_util.hh"
#include "engine/dispatch.hh"
#include "net/codec.hh"
#include "workloads.hh"
#include "workloads/matrix_gen.hh"

namespace smashbench
{
namespace
{

namespace net = smash::net;

TEST(Percentile, NearestRankAndTenBeyond)
{
    std::vector<double> v;
    for (int i = 1000; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(quantile(v, 0.5), 500);
    EXPECT_EQ(quantile(v, 0.99), 990);
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
    EXPECT_TRUE(supports(1000, 0.99));
    EXPECT_FALSE(supports(999, 0.99));
    EXPECT_FALSE(supports(100, 0.99));
    EXPECT_TRUE(supports(100, 0.9));
    std::vector<double> empty;
    EXPECT_EQ(quantile(empty, 0.99), 0);
    EXPECT_FALSE(supports(0, 0.5));
}

TEST(Tally, RefusedCountsAsFailedAndMissesTheLimit)
{
    Tally t;
    t.limitUs = 100;
    t.ok(50);  // within the limit
    t.ok(150); // answered, too slow
    t.fail();  // refused (kOverloaded, transport error, ...)
    t.fail();
    EXPECT_EQ(t.attempted, 4u);
    EXPECT_EQ(t.failed, 2u);
    EXPECT_DOUBLE_EQ(t.failedFrac(), 0.5);
    EXPECT_DOUBLE_EQ(t.withinLimitFrac(), 0.25);
    EXPECT_EQ(t.latencyUs.size(), 2u); // failures add no latency
}

TEST(Tally, MismatchIsNotAFailure)
{
    Tally t;
    t.limitUs = 100;
    t.mismatch();
    EXPECT_EQ(t.mismatches, 1u);
    EXPECT_EQ(t.failed, 0u);
    EXPECT_DOUBLE_EQ(t.failedFrac(), 0.0);
}

/** Inputs with one static SpMV, one SpMM and one SpAdd template on a
 *  small dyadic matrix, plus an epoch oracle (no server needed). */
Inputs
smallInputs()
{
    Inputs in;
    in.spec = specFor("drift");
    MatrixInput m;
    m.name = "m";
    m.coo = smash::wl::genTridiagonal(64);
    m.csr = fmt::CsrMatrix::fromCoo(m.coo);
    in.matrices.push_back(m);
    in.mutable_ = "m";
    std::vector<Value> x(64);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = Value(1) + Value(i % 16) * Value(0.0625);
    in.oracle = std::make_unique<EpochOracle>(
        m.csr, std::vector<std::vector<Value>>{x});
    Template t;
    t.op = Op::kSpmv;
    t.a = "m";
    t.x = x;
    t.operand = 0;
    in.templates.push_back(t);
    return in;
}

Buffer
spmvAnswer(const std::vector<Value>& y)
{
    Buffer out;
    net::encodeSpmvResult(serve::Result<std::vector<Value>>(y), out);
    return out;
}

std::vector<Value>
oracleY(const Inputs& in)
{
    const MatrixInput& m = in.matrices[0];
    std::vector<Value> y(64, Value(0));
    smash::sim::NativeExec ne;
    smash::eng::spmv(m.csr, in.templates[0].x, y, ne);
    return y;
}

TEST(Judge, ExactAnswerPasses)
{
    Inputs in = smallInputs();
    net::FrameHeader h;
    h.op = Op::kSpmvResult;
    EXPECT_EQ(judge(in, in.templates[0], h, spmvAnswer(oracleY(in)), 0, 0),
              Outcome::kOk);
}

TEST(Judge, OneFlippedBitInTheResponseFailsTheRun)
{
    Inputs in = smallInputs();
    net::FrameHeader h;
    h.op = Op::kSpmvResult;
    const Buffer good = spmvAnswer(oracleY(in));
    // Flip every bit of the last value in turn (the payload ends
    // with the y vector): each one must be caught.
    for (std::size_t bit = 0; bit < 64; ++bit) {
        Buffer bad = good;
        bad[bad.size() - 8 + bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_EQ(judge(in, in.templates[0], h, bad, 0, 0),
                  Outcome::kMismatch)
            << "bit " << bit;
    }
    // The run-level consequence: a mismatch makes it incorrect.
    Tally t;
    t.mismatch();
    EXPECT_NE(t.mismatches, 0u);
}

TEST(Judge, TruncatedPayloadIsAMismatch)
{
    Inputs in = smallInputs();
    net::FrameHeader h;
    h.op = Op::kSpmvResult;
    Buffer cut = spmvAnswer(oracleY(in));
    cut.resize(cut.size() - 1);
    EXPECT_EQ(judge(in, in.templates[0], h, cut, 0, 0),
              Outcome::kMismatch);
}

TEST(Judge, RefusalsAndWireErrorsAreFailures)
{
    Inputs in = smallInputs();
    net::FrameHeader h;
    h.op = Op::kSpmvResult;
    Buffer refused;
    net::encodeSpmvResult(
        serve::Result<std::vector<Value>>(serve::Status(
            serve::StatusCode::kOverloaded, "admission gate full")),
        refused);
    EXPECT_EQ(judge(in, in.templates[0], h, refused, 0, 0),
              Outcome::kFailed);
    net::FrameHeader err;
    err.op = Op::kError;
    EXPECT_EQ(judge(in, in.templates[0], err, Buffer(), 0, 0),
              Outcome::kFailed);
}

TEST(EpochOracle, AcceptsOnlyEpochsInsideTheWindow)
{
    Inputs in = smallInputs();
    const std::vector<Value> y0 = oracleY(in);
    fmt::CooMatrix delta(64, 64);
    delta.add(3, 3, Value(0.0625));
    delta.canonicalize();
    in.oracle->beginUpdate(delta);
    in.oracle->endUpdate();
    std::vector<Value> y1 = y0;
    y1[3] += Value(0.0625) * in.templates[0].x[3];

    EXPECT_EQ(in.oracle->check(0, y0, 0, 0), EpochOracle::Verdict::kMatch);
    EXPECT_EQ(in.oracle->check(0, y1, 0, 1), EpochOracle::Verdict::kMatch);
    // Sent after epoch 1 completed: the epoch-0 answer is stale.
    EXPECT_EQ(in.oracle->check(0, y0, 1, 1),
              EpochOracle::Verdict::kMismatch);
    // Received before epoch 1 started: its answer cannot appear yet.
    EXPECT_EQ(in.oracle->check(0, y1, 0, 0),
              EpochOracle::Verdict::kMismatch);
}

TEST(EpochOracle, ReportsAWindowThatLeftTheRing)
{
    Inputs in = smallInputs();
    fmt::CooMatrix delta(64, 64);
    delta.add(0, 0, Value(0.0625));
    delta.canonicalize();
    for (std::uint64_t e = 0; e < EpochOracle::kRing; ++e) {
        in.oracle->beginUpdate(delta);
        in.oracle->endUpdate();
    }
    EXPECT_EQ(in.oracle->check(0, oracleY(in), 0, 0),
              EpochOracle::Verdict::kOverrun);
}

std::vector<Span>
spans(std::initializer_list<std::tuple<int, int, int>> list)
{
    std::vector<Span> out;
    for (const auto& [start, end, parent] : list) {
        Span s;
        s.startNs = start;
        s.endNs = end;
        s.parent = parent;
        out.push_back(s);
    }
    return out;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfDirectChildren)
{
    // Parent [0, 100); children overlap each other and one runs past
    // the parent's end; a grandchild must not count twice.
    const auto s = spans({{0, 100, -1},
                          {10, 30, 0},
                          {20, 50, 0},
                          {90, 120, 0},
                          {12, 18, 1}});
    EXPECT_EQ(selfNs(s, 0), 100 - 40 - 10);
    EXPECT_EQ(selfNs(s, 1), 20 - 6);
    EXPECT_EQ(selfNs(s, 4), 6);
}

TEST(Spans, LogRecordsOnlyWhenEnabled)
{
    SpanLog off(false);
    EXPECT_EQ(off.begin("x"), -1);
    EXPECT_EQ(off.size(), 0u);
    SpanLog on(true);
    const auto parent = on.begin("request");
    const auto child = on.begin("write", parent, 7);
    on.end(child);
    on.end(parent);
    EXPECT_EQ(on.size(), 2u);
    EXPECT_EQ(on.durationsUs("write").size(), 1u);
    EXPECT_GE(on.selfUs("request"), 0.0);
}

TEST(Capacity, MatchesTheGeneratorsReachableCells)
{
    for (const Index run : {1, 4, 8}) {
        const Index rows = 96, cols = 80;
        const Index band = std::max<Index>(run * 4, cols / 16 + run);
        std::set<std::pair<Index, Index>> reach;
        for (Index r = 0; r < rows; ++r) {
            const Index diag =
                std::min(cols - 1, r * cols / std::max<Index>(rows, 1));
            const Index lo = std::max<Index>(0, diag - band);
            const Index hi = std::min<Index>(cols - 1, diag + band);
            for (Index c0 = lo; c0 <= hi; ++c0)
                for (Index k = 0; k < run && c0 + k < cols; ++k)
                    reach.emplace(r, c0 + k);
        }
        EXPECT_EQ(clusteredCapacity(rows, cols, run),
                  static_cast<Index>(reach.size()))
            << "run " << run;
        // At capacity the generator still returns.
        const auto coo = smash::wl::genClustered(
            rows, cols, clusteredCapacity(rows, cols, run), run, 5);
        EXPECT_EQ(coo.nnz(), clusteredCapacity(rows, cols, run));
    }
}

TEST(Capacity, BulkShapeFits)
{
    EXPECT_GE(clusteredCapacity(8192, 8192, 8), 312500);
}

} // namespace
} // namespace smashbench
