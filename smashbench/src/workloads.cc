#include "workloads.hh"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <thread>

#include "engine/dispatch.hh"
#include "net/demo_matrices.hh"
#include "net/socket.hh"
#include "workloads/matrix_gen.hh"

namespace smashbench
{

namespace eng = smash::eng;
namespace net = smash::net;
namespace wl = smash::wl;

WorkloadSpec
specFor(const std::string& name)
{
    WorkloadSpec s;
    s.name = name;
    if (name == "interactive") {
        // Open loop well below capacity: independent callers.
        s.openLoop = true;
        s.ratePerSec = 1000;
        s.connections = 2;
        s.highFrac = 0.1;
        s.limitUs = 2000;
    } else if (name == "bulk") {
        // Callers that wait for their replies, at the session's
        // default kBatch cap (8 x maxDelay = 1.6 ms). Three SpMV
        // connections each keep four blocks of the batch cap (16) in
        // flight, so the next block crosses the socket while the pool
        // computes and most SpMV batches fill by size. The fourth
        // keeps one block of eight 8-column SpMMs in flight: 16 SpMMs
        // are 8 MiB, which does not cross the socket within the cap,
        // so SpMM batches flush by deadline.
        s.connections = 4;
        s.windows = {{64, 16}, {64, 16}, {64, 16}, {8, 8}};
        s.priority = serve::Priority::kBatch;
        s.limitUs = 100000;
    } else if (name == "drift") {
        s.connections = 2;
        s.windows = {{1, 1}, {1, 1}};
        s.limitUs = 5000;
        s.updatesPerSec = 150;
    } else {
        s.name.clear();
    }
    return s;
}

// --- Epoch oracle. ---

EpochOracle::EpochOracle(const fmt::CsrMatrix& csr,
                         std::vector<std::vector<Value>> xs)
    : xs_(std::move(xs)), ring_(kRing)
{
    auto& first = ring_[0];
    for (const auto& x : xs_) {
        std::vector<Value> y(static_cast<std::size_t>(csr.rows()),
                             Value(0));
        smash::sim::NativeExec ne;
        eng::spmv(csr, x, y, ne);
        first.push_back(std::move(y));
    }
}

void
EpochOracle::beginUpdate(const fmt::CooMatrix& delta)
{
    const std::uint64_t e = started_.load();
    std::vector<std::vector<Value>> next = ring_[e % kRing];
    for (std::size_t p = 0; p < xs_.size(); ++p)
        for (const auto& d : delta.entries())
            next[p][static_cast<std::size_t>(d.row)] +=
                d.value * xs_[p][static_cast<std::size_t>(d.col)];
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        ring_[(e + 1) % kRing] = std::move(next);
    }
    started_.store(e + 1);
}

EpochOracle::Verdict
EpochOracle::check(int operand, const std::vector<Value>& y,
                   std::uint64_t lo, std::uint64_t hi) const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (lo + kRing <= started_.load() || hi < lo)
        return Verdict::kOverrun;
    for (std::uint64_t e = lo; e <= hi; ++e)
        if (sameBits(ring_[e % kRing][static_cast<std::size_t>(operand)],
                     y))
            return Verdict::kMatch;
    return Verdict::kMismatch;
}

// --- Inputs. ---

namespace
{

/** Dyadic operand: 1 + k/16 for k in [0, 16). */
std::vector<Value>
dyadicVector(Index n, std::mt19937_64& rng)
{
    std::vector<Value> x(static_cast<std::size_t>(n));
    for (auto& v : x)
        v = Value(1) + Value(rng() % 16) * Value(0.0625);
    return x;
}

/** Quantize a generated matrix's values to multiples of 2^-4 (the
 *  generator draws from [0.5, 1.5), so none becomes zero). */
fmt::CooMatrix
quantized(const fmt::CooMatrix& coo)
{
    fmt::CooMatrix out(coo.rows(), coo.cols());
    for (const auto& e : coo.entries())
        out.add(e.row, e.col, std::round(e.value * 16) / 16);
    out.canonicalize();
    return out;
}

MatrixInput
matrixInput(std::string name, fmt::CooMatrix coo, Index shards = 0)
{
    MatrixInput m;
    m.name = std::move(name);
    m.csr = fmt::CsrMatrix::fromCoo(coo);
    m.coo = std::move(coo);
    m.shards = shards;
    return m;
}

const MatrixInput&
matrixNamed(const Inputs& in, const std::string& name)
{
    for (const auto& m : in.matrices)
        if (m.name == name)
            return m;
    std::fprintf(stderr, "no input matrix %s\n", name.c_str());
    std::exit(2);
}

Template
spmvTemplate(const Inputs& in, const std::string& matrix,
             std::mt19937_64& rng)
{
    Template t;
    t.op = Op::kSpmv;
    t.a = matrix;
    const MatrixInput& m = matrixNamed(in, matrix);
    t.x = dyadicVector(m.csr.cols(), rng);
    t.y.assign(static_cast<std::size_t>(m.csr.rows()), Value(0));
    smash::sim::NativeExec ne;
    eng::spmv(m.csr, t.x, t.y, ne);
    return t;
}

Template
spmmTemplate(const Inputs& in, const std::string& matrix, Index cols,
             std::mt19937_64& rng)
{
    Template t;
    t.op = Op::kSpmm;
    t.a = matrix;
    const MatrixInput& m = matrixNamed(in, matrix);
    t.block = fmt::DenseMatrix(m.csr.cols(), cols);
    for (auto& v : t.block.data())
        v = Value(1) + Value(rng() % 16) * Value(0.0625);
    t.c = fmt::DenseMatrix(m.csr.rows(), cols);
    smash::sim::NativeExec ne;
    eng::spmmBatch(eng::MatrixRef(m.csr), t.block, t.c, ne);
    return t;
}

Template
spaddTemplate(const Inputs& in, const std::string& a,
              const std::string& b)
{
    Template t;
    t.op = Op::kSpadd;
    t.a = a;
    t.b = b;
    smash::sim::NativeExec ne;
    const eng::SparseMatrixAny sum =
        eng::spadd(eng::MatrixRef(matrixNamed(in, a).csr),
                   eng::MatrixRef(matrixNamed(in, b).csr), ne);
    t.sum = sum.as<fmt::CooMatrix>();
    return t;
}

/** SpMV templates on the mutable matrix share the epoch oracle's
 *  operand set instead of carrying a static answer. */
void
addOracleTemplates(Inputs& in, int operands, std::mt19937_64& rng)
{
    const MatrixInput& m = matrixNamed(in, in.mutable_);
    std::vector<std::vector<Value>> xs;
    for (int p = 0; p < operands; ++p)
        xs.push_back(dyadicVector(m.csr.cols(), rng));
    in.oracle = std::make_unique<EpochOracle>(m.csr, xs);
    for (int p = 0; p < operands; ++p) {
        Template t;
        t.op = Op::kSpmv;
        t.a = in.mutable_;
        t.x = in.oracle->x(p);
        t.operand = p;
        in.templates.push_back(std::move(t));
    }
}

using Groups = std::vector<std::pair<double, std::vector<std::uint32_t>>>;

/** Seeded mix of one connection over template groups, drawn by
 *  weight. */
std::vector<Inputs::Draw>
makeMix(const Inputs& in, const Groups& groups, std::mt19937_64& rng)
{
    std::uniform_real_distribution<double> u(0, 1);
    std::vector<Inputs::Draw> mix(1 << 14);
    for (Inputs::Draw& d : mix) {
        double r = u(rng);
        std::size_t g = 0;
        while (g + 1 < groups.size() && r >= groups[g].first) {
            r -= groups[g].first;
            ++g;
        }
        const auto& members = groups[g].second;
        d.tmpl = members[rng() % members.size()];
        d.high = u(rng) < in.spec.highFrac;
    }
    return mix;
}

/** Every connection draws from the same groups. */
void
shareMix(Inputs& in, const Groups& groups, std::mt19937_64& rng)
{
    for (int c = 0; c < in.spec.connections; ++c)
        in.mix.push_back(makeMix(in, groups, rng));
}

std::vector<std::uint32_t>
range(std::size_t from, std::size_t to)
{
    std::vector<std::uint32_t> out;
    for (std::size_t i = from; i < to; ++i)
        out.push_back(static_cast<std::uint32_t>(i));
    return out;
}

Buffer
encodeRequest(const Template& t, serve::Priority priority)
{
    Buffer out;
    serve::RequestOptions o;
    o.priority = priority;
    switch (t.op) {
      case Op::kSpmv:
        net::encodeSpmvRequest(serve::SpmvRequest{t.a, t.x, o}, out);
        break;
      case Op::kSpmm:
        net::encodeSpmmRequest(serve::SpmmRequest{t.a, t.block, o}, out);
        break;
      default:
        net::encodeSpaddRequest(serve::SpaddRequest{t.a, t.b, o}, out);
        break;
    }
    return out;
}

} // namespace

fmt::CooMatrix
valueDelta(const fmt::CsrMatrix& csr, Index entries, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::set<std::pair<Index, Index>> picked;
    const auto& ptr = csr.rowPtr();
    while (static_cast<Index>(picked.size()) < entries) {
        const Index k = static_cast<Index>(
            rng() % static_cast<std::uint64_t>(csr.nnz()));
        if (csr.values()[static_cast<std::size_t>(k)] <= 0)
            continue; // only grow positive entries: never cancels
        const auto it = std::upper_bound(ptr.begin(), ptr.end(), k);
        const Index row = static_cast<Index>(it - ptr.begin()) - 1;
        picked.emplace(row, csr.colInd()[static_cast<std::size_t>(k)]);
    }
    fmt::CooMatrix d(csr.rows(), csr.cols());
    for (const auto& [r, c] : picked)
        d.add(r, c, Value(0.0625));
    d.canonicalize();
    return d;
}

Inputs
makeInputs(const RunOptions& options)
{
    Inputs in;
    in.spec = specFor(options.workload);
    std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ull + 17);

    if (in.spec.name == "interactive") {
        in.matrices.push_back(matrixInput("ranker", net::demoRanker()));
        in.matrices.push_back(matrixInput(
            "graph", net::demoMatrix(net::kDemoGraphDim,
                                     net::kDemoGraphDim, 6, 3)));
        in.matrices.push_back(matrixInput(
            "graph2", net::demoMatrix(net::kDemoGraphDim,
                                      net::kDemoGraphDim, 6, 11)));
        in.mutable_ = "ranker";
        addOracleTemplates(in, 16, rng); // templates [0, 16)
        for (int i = 0; i < 16; ++i)     // [16, 32)
            in.templates.push_back(spmvTemplate(in, "graph", rng));
        in.templates.push_back(spaddTemplate(in, "graph", "graph2"));
        shareMix(in,
                 {{0.4, range(0, 16)}, {0.4, range(16, 32)},
                  {0.2, range(32, 33)}},
                 rng);
    } else if (in.spec.name == "bulk") {
        const Index rows = 8192, nnz = 312500, run = 8;
        const Index capacity = clusteredCapacity(rows, rows, run);
        if (nnz > capacity) {
            std::fprintf(stderr,
                         "genClustered(%lld x %lld, nnz %lld, run %lld): "
                         "the diagonal band holds only %lld cells\n",
                         (long long)rows, (long long)rows,
                         (long long)nnz, (long long)run,
                         (long long)capacity);
            std::exit(2);
        }
        // perf_report's matrix (generator seed 97): the run seed
        // varies the operands, not the structure being served.
        in.matrices.push_back(matrixInput(
            "bulk", quantized(wl::genClustered(rows, rows, nnz, run, 97)),
            4));
        in.mutable_ = "bulk";
        addOracleTemplates(in, 8, rng); // [0, 8)
        for (int i = 0; i < 4; ++i)     // [8, 12)
            in.templates.push_back(spmmTemplate(in, "bulk", 8, rng));
        // Each caller carries one op class: a finished batch's
        // answers come back together and their callers refill the
        // same queue at once (specFor has the windows).
        for (int c = 0; c < 3; ++c)
            in.mix.push_back(makeMix(in, {{1.0, range(0, 8)}}, rng));
        in.mix.push_back(makeMix(in, {{1.0, range(8, 12)}}, rng));
    } else if (in.spec.name == "drift") {
        const Index n = 4096;
        in.matrices.push_back(matrixInput("drift", wl::genTridiagonal(n)));
        in.mutable_ = "drift";
        addOracleTemplates(in, 8, rng);
        shareMix(in, {{1.0, range(0, 8)}}, rng);
        // The writer's schedule: value-only updates, with a batch of
        // scattered structural deltas every fifth call — enough to
        // carry the banded start across a §7.2.3 boundary well
        // within one run.
        const auto calls = static_cast<std::size_t>(
            in.spec.updatesPerSec * (options.seconds * 2 + 10));
        const fmt::CsrMatrix& csr = in.matrices[0].csr;
        for (std::size_t k = 0; k < calls; ++k)
            in.deltas.push_back(
                k % 5 == 4 ? wl::genScatterDeltas(n, n, 8, rng())
                            : valueDelta(csr, 16, rng()));
    }
    for (Template& t : in.templates) {
        t.payload = encodeRequest(t, in.spec.priority);
        t.payloadHigh = encodeRequest(t, serve::Priority::kHigh);
    }
    return in;
}

// --- Wire. ---

/** One socket to the server, spoken in raw frames. Sends and
 *  receives may run on two threads (one each). */
class WireConn
{
  public:
    bool
    connect(const std::string& path)
    {
        std::string error;
        fd_ = net::connectUnix(path, error);
        if (!fd_.valid())
            std::fprintf(stderr, "connect %s: %s\n", path.c_str(),
                         error.c_str());
        return fd_.valid();
    }

    bool
    send(Op op, std::uint64_t id, const Buffer& payload)
    {
        net::FrameHeader h;
        h.op = op;
        h.id = id;
        h.payloadBytes = payload.size();
        std::uint8_t header[net::kHeaderBytes];
        net::encodeHeader(h, header);
        return net::writeFull(fd_.get(), header, sizeof header) &&
            (payload.empty() ||
             net::writeFull(fd_.get(), payload.data(), payload.size()));
    }

    bool
    recv(net::FrameHeader& header, Buffer& payload)
    {
        std::uint8_t bytes[net::kHeaderBytes];
        if (net::readFull(fd_.get(), bytes, sizeof bytes) !=
            net::IoResult::kOk)
            return false;
        if (net::decodeHeader(bytes, net::kDefaultMaxFrameBytes, header))
            return false;
        payload.resize(header.payloadBytes);
        return payload.empty() ||
            net::readFull(fd_.get(), payload.data(), payload.size()) ==
            net::IoResult::kOk;
    }

    /** Wait until a frame starts arriving or @p give_up passes. */
    bool
    awaitFrame(Clock::time_point give_up)
    {
        while (Clock::now() < give_up) {
            pollfd p{fd_.get(), POLLIN, 0};
            const int r = ::poll(&p, 1, 20);
            if (r > 0)
                return true;
            if (r < 0 && errno != EINTR)
                return false;
        }
        return false;
    }

  private:
    net::Fd fd_;
};

Outcome
judge(const Inputs& in, const Template& t, const net::FrameHeader& h,
      const Buffer& payload, std::uint64_t lo, std::uint64_t hi)
{
    if (h.op == Op::kError || h.op != net::responseOf(t.op))
        return Outcome::kFailed;
    const std::uint8_t* p = payload.data();
    const std::size_t n = payload.size();
    switch (t.op) {
      case Op::kSpmv: {
        auto r = net::decodeSpmvResult(p, n);
        if (!r)
            return Outcome::kMismatch;
        if (!r->ok())
            return Outcome::kFailed;
        if (t.operand < 0)
            return sameBits(r->value(), t.y) ? Outcome::kOk
                                             : Outcome::kMismatch;
        switch (in.oracle->check(t.operand, r->value(), lo, hi)) {
          case EpochOracle::Verdict::kMatch: return Outcome::kOk;
          case EpochOracle::Verdict::kMismatch: return Outcome::kMismatch;
          case EpochOracle::Verdict::kOverrun: return Outcome::kOverrun;
        }
        return Outcome::kMismatch;
      }
      case Op::kSpmm: {
        auto r = net::decodeSpmmResult(p, n);
        if (!r)
            return Outcome::kMismatch;
        if (!r->ok())
            return Outcome::kFailed;
        return sameBits(r->value(), t.c) ? Outcome::kOk
                                         : Outcome::kMismatch;
      }
      default: {
        auto r = net::decodeSpaddResult(p, n);
        if (!r)
            return Outcome::kMismatch;
        if (!r->ok())
            return Outcome::kFailed;
        return sameBits(r->value(), t.sum) ? Outcome::kOk
                                           : Outcome::kMismatch;
      }
    }
}

// --- Set-up. ---

Served::Served() = default;

Served::~Served()
{
    conns.clear();
    if (server)
        server->shutdown();
    server.reset();
    registry.reset();
    if (!socketPath.empty())
        ::unlink(socketPath.c_str());
}

std::vector<fmt::CooMatrix>
inputCopies(const Inputs& in)
{
    std::vector<fmt::CooMatrix> copies;
    for (const auto& m : in.matrices)
        copies.push_back(m.coo);
    return copies;
}

std::unique_ptr<Served>
setUp(Inputs& in, std::vector<fmt::CooMatrix> copies,
      const RunOptions& options, int rep, SpanLog& spans)
{
    auto s = std::make_unique<Served>();
    s->socketPath = options.sockDir + "/smashbench-" +
        std::to_string(::getpid()) + "-" + std::to_string(rep) + ".sock";
    ScopedSpan setup(spans, "setup");
    s->registry = std::make_unique<serve::MatrixRegistry>();
    for (std::size_t i = 0; i < in.matrices.size(); ++i) {
        const MatrixInput& m = in.matrices[i];
        if (m.shards > 1) {
            ScopedSpan sp(spans, "serve.registry.put", setup.index());
            s->registry->registerSharded(m.name, std::move(copies[i]),
                                         m.shards);
        } else {
            ScopedSpan sp(spans, "serve.registry.put", setup.index());
            s->registry->put(m.name, std::move(copies[i]));
        }
        ScopedSpan sp(spans, "serve.registry.encode", setup.index());
        if (m.shards > 1)
            s->registry->sharded(m.name)->ensureEncoded();
        else
            s->registry->encoded(m.name);
    }

    net::ServerOptions so;
    so.unixPath = s->socketPath;
    so.session.threads = 2;
    s->server = std::make_unique<net::Server>(*s->registry, so);
    {
        ScopedSpan sp(spans, "net.server.start", setup.index());
        std::string error;
        if (!s->server->start(error)) {
            std::fprintf(stderr, "server start: %s\n", error.c_str());
            return nullptr;
        }
    }
    auto& conns = s->conns;
    {
        ScopedSpan sp(spans, "net.connect", setup.index());
        for (int c = 0; c < in.spec.connections; ++c) {
            conns.push_back(std::make_unique<WireConn>());
            if (!conns.back()->connect(s->socketPath))
                return nullptr;
        }
    }
    // Warm-up: the first correct answer for every (matrix, op).
    ScopedSpan warm(spans, "warmup", setup.index());
    std::set<std::pair<int, std::string>> seen;
    std::uint64_t id = 1u << 30;
    for (const Template& t : in.templates) {
        if (!seen.emplace(static_cast<int>(t.op), t.a).second)
            continue;
        WireConn& c = *conns[0];
        const std::uint64_t lo = in.oracle->completed();
        net::FrameHeader h;
        Buffer payload;
        // kHigh: a lone warm-up request must not wait out a batch cap.
        if (!c.send(t.op, ++id, t.payloadHigh) ||
            !c.recv(h, payload)) {
            std::fprintf(stderr, "warm-up: transport failure\n");
            return nullptr;
        }
        const Outcome o =
            judge(in, t, h, payload, lo, in.oracle->started());
        if (o != Outcome::kOk) {
            std::fprintf(stderr, "warm-up: %s on %s is %s\n",
                         net::toString(t.op), t.a.c_str(),
                         o == Outcome::kFailed ? "failed" : "WRONG");
            return nullptr;
        }
    }
    return s;
}

// --- Load. ---

namespace
{

struct Pending
{
    Clock::time_point due{};
    std::uint32_t tmpl = 0;
    std::uint64_t lo = 0;
    std::int32_t span = -1;
    bool used = false;
};

/** Outstanding requests of one connection, keyed by request id. */
class PendingTable
{
  public:
    static constexpr std::size_t kSlots = 1 << 13;

    PendingTable() : slots_(kSlots) {}

    /** Blocks while the id's slot is still taken (the open loop only
     *  waits here with 8192 requests outstanding). */
    void
    put(std::uint64_t id, const Pending& p)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        freed_.wait(lock, [&] { return !slots_[id % kSlots].used; });
        slots_[id % kSlots] = p;
        slots_[id % kSlots].used = true;
        ++outstanding_;
    }

    std::optional<Pending>
    take(std::uint64_t id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Pending& p = slots_[id % kSlots];
        if (!p.used)
            return std::nullopt;
        p.used = false;
        --outstanding_;
        freed_.notify_all();
        return p;
    }

    std::size_t
    outstanding() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return outstanding_;
    }

  private:
    mutable std::mutex mutex_; //!< guards slots_ and outstanding_
    std::condition_variable freed_;
    std::vector<Pending> slots_;
    std::size_t outstanding_ = 0;
};

/** Shared state of one load phase. */
struct Phase
{
    Phase(Inputs& inputs, SpanLog& log, double seconds,
          std::uint64_t phase_seed)
        : in(inputs), spans(log),
          start(Clock::now() + std::chrono::milliseconds(5)),
          stop(start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds))),
          giveUp(stop + std::chrono::seconds(20)), seed(phase_seed)
    {}

    Inputs& in;
    SpanLog& spans;
    const Clock::time_point start;
    const Clock::time_point stop;
    /** Outstanding answers not back by then are failures. */
    const Clock::time_point giveUp;
    const std::uint64_t seed;
    std::atomic<bool> broken{false};
    std::mutex mutex; //!< guards result
    PhaseResult result;

    void
    merge(const Tally& tally)
    {
        std::lock_guard<std::mutex> lock(mutex);
        result.tally.merge(tally);
    }
};

/** Per-connection accounting of one phase. */
struct ConnState
{
    ConnState(const Phase& ph, int c) : conn(c)
    {
        tally.limitUs = ph.in.spec.limitUs;
    }

    const int conn;
    PendingTable table;
    Tally tally;
    std::uint64_t id = 0;
};

/** Receive and account for one response (the caller saw a frame
 *  arriving). False on transport failure. */
bool
receiveOne(Phase& ph, WireConn& conn, ConnState& cs)
{
    net::FrameHeader h;
    Buffer payload;
    if (!conn.recv(h, payload))
        return false;
    const Clock::time_point now = Clock::now();
    const std::uint64_t hi = ph.in.oracle->started();
    const std::optional<Pending> p = cs.table.take(h.id);
    if (!p)
        return false; // an id this connection never sent
    ph.spans.end(p->span);
    const Template& t = ph.in.templates[p->tmpl];
    switch (judge(ph.in, t, h, payload, p->lo, hi)) {
      case Outcome::kOk: cs.tally.ok(usBetween(p->due, now)); break;
      case Outcome::kFailed: cs.tally.fail(); break;
      case Outcome::kMismatch:
        std::fprintf(stderr, "WRONG answer: %s on %s (id %llu)\n",
                     net::toString(t.op), t.a.c_str(),
                     (unsigned long long)h.id);
        cs.tally.mismatch();
        break;
      case Outcome::kOverrun:
        std::fprintf(stderr, "answer %llu outlived the oracle's ring\n",
                     (unsigned long long)h.id);
        cs.tally.mismatch();
        break;
    }
    return true;
}

/** Send the connection's @p k-th request of the mix, due at @p due. */
bool
sendOne(Phase& ph, WireConn& conn, ConnState& cs, std::size_t k,
        Clock::time_point due)
{
    Inputs& in = ph.in;
    const auto& mix = in.mix[static_cast<std::size_t>(cs.conn)];
    const Inputs::Draw d = mix[k % mix.size()];
    const Template& t = in.templates[d.tmpl];
    const std::uint64_t id = ++cs.id;
    Pending p;
    p.due = due;
    p.tmpl = d.tmpl;
    p.lo = in.oracle->completed();
    p.span = ph.spans.begin("gen.request", -1, id);
    cs.table.put(id, p);
    ScopedSpan write(ph.spans, "net.write", p.span, id);
    return conn.send(t.op, id, d.high ? t.payloadHigh : t.payload);
}

/** Receive until nothing is outstanding, or until @p more says the
 *  phase may still send (then return when idle). */
template <typename More>
void
receiveLoop(Phase& ph, WireConn& conn, ConnState& cs, const More& more)
{
    while (!ph.broken && (more() || cs.table.outstanding() > 0)) {
        if (!conn.awaitFrame(std::min(ph.giveUp,
                                      Clock::now() +
                                          std::chrono::milliseconds(20)))) {
            if (Clock::now() >= ph.giveUp)
                ph.broken = true;
            continue;
        }
        if (!receiveOne(ph, conn, cs))
            ph.broken = true;
    }
}

void
closedLoopConn(Phase& ph, WireConn& conn, int c)
{
    ConnState cs(ph, c);
    std::size_t k = ph.seed * 131 + static_cast<std::size_t>(c) * 7919;
    const Window& w = ph.in.spec.windows[static_cast<std::size_t>(c)];
    const auto window = static_cast<std::size_t>(w.outstanding);
    const auto burst = static_cast<std::size_t>(w.burst);
    std::this_thread::sleep_until(ph.start);
    while (!ph.broken && Clock::now() < ph.stop) {
        while (!ph.broken && cs.table.outstanding() + burst <= window)
            for (std::size_t i = 0; i < burst && !ph.broken; ++i)
                if (!sendOne(ph, conn, cs, k++, Clock::now()))
                    ph.broken = true;
        if (ph.broken || !conn.awaitFrame(ph.giveUp) ||
            !receiveOne(ph, conn, cs))
            ph.broken = true;
    }
    receiveLoop(ph, conn, cs, [] { return false; });
    for (std::size_t i = cs.table.outstanding(); i > 0; --i)
        cs.tally.fail();
    ph.merge(cs.tally);
}

void
openLoopConn(Phase& ph, WireConn& conn, int c)
{
    ConnState cs(ph, c);
    std::atomic<bool> sending{true};
    std::thread receiver(
        [&] { receiveLoop(ph, conn, cs, [&] { return sending.load(); }); });

    std::vector<double> lag;
    std::mt19937_64 rng(ph.seed * 1000003 + static_cast<std::uint64_t>(c));
    std::exponential_distribution<double> gap(ph.in.spec.ratePerSec /
                                              ph.in.spec.connections);
    std::size_t k = ph.seed * 131 + static_cast<std::size_t>(c) * 7919;
    for (double t = gap(rng); !ph.broken; t += gap(rng)) {
        const auto due = ph.start +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(t));
        if (due >= ph.stop)
            break;
        // Sleep to just short of the due time, then spin: a thread
        // woken by the timer alone arrives tens to hundreds of
        // microseconds late on a virtual CPU.
        std::this_thread::sleep_until(due - std::chrono::microseconds(200));
        while (Clock::now() < due) {
        }
        lag.push_back(usBetween(due, Clock::now()));
        if (!sendOne(ph, conn, cs, k++, due))
            ph.broken = true;
    }
    sending = false;
    receiver.join();
    for (std::size_t i = cs.table.outstanding(); i > 0; --i)
        cs.tally.fail();
    ph.merge(cs.tally);
    std::lock_guard<std::mutex> lock(ph.mutex);
    ph.result.schedLagUs.insert(ph.result.schedLagUs.end(), lag.begin(),
                                lag.end());
}

void
writer(Phase& ph, Served& served)
{
    Inputs& in = ph.in;
    std::vector<double> took, lag;
    for (std::size_t k = 0; !ph.broken; ++k) {
        const auto due = ph.start +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    double(k) / in.spec.updatesPerSec));
        if (due >= ph.stop || in.nextDelta >= in.deltas.size())
            break;
        std::this_thread::sleep_until(due);
        lag.push_back(usBetween(due, Clock::now()));
        fmt::CooMatrix delta = in.deltas[in.nextDelta++];
        in.oracle->beginUpdate(delta);
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan sp(ph.spans, "serve.session.apply_updates");
            served.server->session().applyUpdates(in.mutable_,
                                                  std::move(delta));
        }
        took.push_back(usBetween(t0, Clock::now()));
        in.oracle->endUpdate();
    }
    std::lock_guard<std::mutex> lock(ph.mutex);
    ph.result.updateUs = std::move(took);
    ph.result.writerLagUs = std::move(lag);
}

} // namespace

PhaseResult
runLoad(Inputs& in, Served& served, double seconds, std::uint64_t seed,
        bool with_writer, SpanLog& spans)
{
    Phase ph(in, spans, seconds, seed);
    std::vector<std::thread> threads;
    for (int c = 0; c < in.spec.connections; ++c) {
        WireConn& conn = *served.conns[static_cast<std::size_t>(c)];
        threads.emplace_back([&ph, &conn, &in, c] {
            if (in.spec.openLoop)
                openLoopConn(ph, conn, c);
            else
                closedLoopConn(ph, conn, c);
        });
    }
    if (with_writer && in.spec.updatesPerSec > 0)
        threads.emplace_back([&] { writer(ph, served); });
    for (auto& t : threads)
        t.join();
    ph.result.seconds = usBetween(ph.start, Clock::now()) / 1e6;
    if (ph.broken)
        std::fprintf(stderr, "a connection failed; its outstanding "
                             "requests count as failed\n");
    return std::move(ph.result);
}

std::vector<double>
updateProbe(Inputs& in, Served& served, int count)
{
    // The first calls after reads also drop the read path's cached
    // encodings; they run untimed, so the probe times the update.
    const int kUntimed = 50;
    // Paced like the drift writer (500 calls/s): updates arrive one
    // at a time, not back to back.
    const auto kGap = std::chrono::microseconds(2000);
    const fmt::CsrMatrix& csr = matrixNamed(in, in.mutable_).csr;
    std::vector<double> took;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kUntimed + count; ++i) {
        fmt::CooMatrix delta =
            valueDelta(csr, 4, 0x5eed0000u + static_cast<unsigned>(i));
        in.oracle->beginUpdate(delta);
        std::this_thread::sleep_until(t0 + kGap);
        t0 = Clock::now();
        served.server->session().applyUpdates(in.mutable_,
                                              std::move(delta));
        if (i >= kUntimed)
            took.push_back(usBetween(t0, Clock::now()));
        in.oracle->endUpdate();
    }
    return took;
}

double
rssMiB()
{
    // RssAnon: heap, stacks and mappings of the process's own data.
    // File-backed pages (the binary's code faulted in by first calls,
    // with the kernel's fault-around) are left out: they add 0.1-0.2
    // MiB of run-to-run noise to a 1 MiB set-up.
    double kib = 0;
    if (FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "RssAnon: %lf", &kib) == 1)
                break;
        std::fclose(f);
    }
    return kib / 1024.0;
}

} // namespace smashbench
