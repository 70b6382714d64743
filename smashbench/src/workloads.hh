/**
 * @file
 * The three served workloads (interactive, bulk, drift): their
 * seeded inputs and oracles, the set-up of a registry plus an
 * in-process net::Server on a Unix-domain socket, the load phases
 * that drive it over the wire, and the writer that mutates the
 * drift matrix. Every answer is compared bit for bit with an oracle
 * computed locally from a CSR copy of the same dyadic inputs.
 */

#ifndef SMASHBENCH_WORKLOADS_HH
#define SMASHBENCH_WORKLOADS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "formats/coo_matrix.hh"
#include "formats/csr_matrix.hh"
#include "formats/dense_matrix.hh"
#include "net/codec.hh"
#include "net/server.hh"
#include "serve/registry.hh"

namespace smashbench
{

using smash::net::Buffer;
using smash::net::Op;
namespace fmt = smash::fmt;
namespace serve = smash::serve;

/** Command line of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string sockDir = ".";
};

/** One matrix the workload serves. */
struct MatrixInput
{
    std::string name;
    fmt::CooMatrix coo;
    fmt::CsrMatrix csr; //!< the oracle's copy
    Index shards = 0;   //!< > 1 registers through registerSharded
};

/** One request shape with its expected answer. */
struct Template
{
    Op op = Op::kSpmv;
    std::string a;          //!< matrix (SpAdd: left operand)
    std::string b;          //!< SpAdd right operand
    std::vector<Value> x;   //!< SpMV operand
    fmt::DenseMatrix block; //!< SpMM operand
    int operand = -1;       //!< SpMV: index into the epoch oracle's x set
    std::vector<Value> y;   //!< SpMV answer (static matrices)
    fmt::DenseMatrix c;     //!< SpMM answer
    fmt::CooMatrix sum;     //!< SpAdd answer
    /** Encoded request payloads: at the workload's priority, and at
     *  kHigh (encoded once, so the generator only writes bytes). */
    Buffer payload;
    Buffer payloadHigh;
};

/** One closed-loop connection's load. */
struct Window
{
    int outstanding = 1; //!< requests in flight
    int burst = 1;       //!< refilled in blocks of this many
};

/** The fixed shape of each workload (see README.md for the why). */
struct WorkloadSpec
{
    std::string name;
    bool openLoop = false;
    double ratePerSec = 0; //!< open loop: Poisson arrivals, total
    int connections = 2;
    std::vector<Window> windows; //!< closed loop: one per connection
    double highFrac = 0;         //!< share of requests sent at kHigh
    serve::Priority priority = serve::Priority::kNormal;
    double limitUs = 0;       //!< latency limit of within_limit_frac
    double updatesPerSec = 0; //!< drift writer rate
};

WorkloadSpec specFor(const std::string& name);

/**
 * SpMV answers of one matrix across mutation epochs, for a fixed
 * set of operands: epoch 0 comes from eng::spmv on the CSR copy,
 * epoch k from epoch k-1 plus the delta applied — exact, because
 * every value is dyadic. Readers accept an answer equal to any
 * epoch that was current between their send and their receipt.
 */
class EpochOracle
{
  public:
    static constexpr std::uint64_t kRing = 128;

    EpochOracle(const fmt::CsrMatrix& csr,
                std::vector<std::vector<Value>> xs);

    /** Epochs whose mutation has finished / has started. */
    std::uint64_t completed() const { return completed_.load(); }
    std::uint64_t started() const { return started_.load(); }

    /** Publish the next epoch's answers for @p delta, then mark it
     *  started (call before handing @p delta to the server). */
    void beginUpdate(const fmt::CooMatrix& delta);
    /** Mark the started epoch finished (after the server returned). */
    void endUpdate() { completed_.fetch_add(1); }

    enum class Verdict
    {
        kMatch,
        kMismatch,
        kOverrun, //!< the window left the ring: cannot be checked
    };

    /** Compare @p y, the answer for operand @p operand, with every
     *  epoch in [lo, hi]. */
    Verdict check(int operand, const std::vector<Value>& y,
                  std::uint64_t lo, std::uint64_t hi) const;

    const std::vector<Value>& x(int operand) const
    {
        return xs_[static_cast<std::size_t>(operand)];
    }

  private:
    std::vector<std::vector<Value>> xs_;
    mutable std::shared_mutex mutex_; //!< guards ring_
    /** ring_[e % kRing][operand] = A_e x_operand. */
    std::vector<std::vector<std::vector<Value>>> ring_;
    std::atomic<std::uint64_t> started_{0};
    std::atomic<std::uint64_t> completed_{0};
};

/** Everything a run generates from its seed (not part of set-up). */
struct Inputs
{
    WorkloadSpec spec;
    std::vector<MatrixInput> matrices;
    std::vector<Template> templates;
    /** One drawn request: template index and whether it is kHigh. */
    struct Draw
    {
        std::uint32_t tmpl = 0;
        bool high = false;
    };
    /** Seeded request mix per connection: the i-th request a load
     *  phase sends on connection c is mix[c][(offset + i) % size]. */
    std::vector<std::vector<Draw>> mix;
    /** The SpMV matrix that mutation probes and drift update. */
    std::string mutable_;
    std::unique_ptr<EpochOracle> oracle;
    /** The drift writer's deltas, in application order. */
    std::vector<fmt::CooMatrix> deltas;
    std::size_t nextDelta = 0;
};

/** Generate the inputs of @p options.workload from its seed. */
Inputs makeInputs(const RunOptions& options);

/** The verdict on one response. */
enum class Outcome
{
    kOk,
    kFailed,   //!< non-kOk status, kError frame, or another op
    kMismatch, //!< undecodable payload, or other bits than the oracle
    kOverrun,  //!< the epoch window left the oracle's ring
};

/**
 * Judge one response to template @p t sent when epoch @p lo was
 * current and received when epoch @p hi had started. A transport or
 * protocol error, or a non-kOk status, is a failure; a payload that
 * does not decode, or decodes to other bits, is a mismatch.
 */
Outcome judge(const Inputs& in, const Template& t,
              const smash::net::FrameHeader& h, const Buffer& payload,
              std::uint64_t lo, std::uint64_t hi);

/** One client socket speaking raw frames (workloads.cc). */
class WireConn;

/** A live set-up: registry, server, its socket path, and the
 *  connections the load phases drive. */
struct Served
{
    Served();
    ~Served();
    Served(const Served&) = delete;
    Served& operator=(const Served&) = delete;

    std::unique_ptr<serve::MatrixRegistry> registry;
    std::unique_ptr<smash::net::Server> server;
    std::string socketPath;
    std::vector<std::unique_ptr<WireConn>> conns;
};

/** Copies of the input matrices, one per MatrixInput, for a set-up
 *  to take over as its master copies. */
std::vector<fmt::CooMatrix> inputCopies(const Inputs& in);

/**
 * Build a registry from @p copies (inputCopies(in)), start the
 * server, connect, and wait for the first correct answer of each
 * (matrix, op) the workload sends.
 * Returns null (and prints why) when any step fails or any answer is
 * wrong. @p spans times each step when enabled.
 */
std::unique_ptr<Served> setUp(Inputs& in,
                              std::vector<fmt::CooMatrix> copies,
                              const RunOptions& options, int rep,
                              SpanLog& spans);

/** What one load phase measured. */
struct PhaseResult
{
    Tally tally;
    double seconds = 0;                 //!< measured wall time
    std::vector<double> schedLagUs;     //!< open loop: send - due
    std::vector<double> updateUs;       //!< drift writer calls
    std::vector<double> writerLagUs;    //!< drift writer: start - due
};

/** Drive @p served with the workload's load for @p seconds; the
 *  drift writer runs beside the reads when @p with_writer is set. */
PhaseResult runLoad(Inputs& in, Served& served, double seconds,
                    std::uint64_t seed, bool with_writer, SpanLog& spans);

/**
 * Time @p count value-only applyUpdates calls through
 * Server::session() on the mutable matrix (µs each), keeping the
 * epoch oracle in step.
 */
std::vector<double> updateProbe(Inputs& in, Served& served, int count);

/** A value-only delta on @p csr's existing coordinates (dyadic). */
fmt::CooMatrix valueDelta(const fmt::CsrMatrix& csr, Index entries,
                          std::uint64_t seed);

/** Resident anonymous memory of this process (RssAnon), MiB. */
double rssMiB();

} // namespace smashbench

#endif // SMASHBENCH_WORKLOADS_HH
