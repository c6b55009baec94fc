/**
 * @file
 * Open-loop query streams against a serving tier.
 *
 * One generator thread sends queries at scheduled instants
 * (t0 + i / rate) and never blocks on a reply: the QueryServer is
 * driven through its callback form, the Broker through futures that a
 * collector thread drains. Latency runs from each request's scheduled
 * send time, so a stall also charges the requests queued behind it.
 */
#ifndef PERFBENCH_SERVING_HH
#define PERFBENCH_SERVING_HH

#include <condition_variable>
#include <deque>
#include <future>
#include <thread>

#include "bench.hh"
#include "search/query_server.hh"
#include "shard/broker.hh"

namespace perfbench {

/** Expected answer hash of each distinct query. */
struct Expected
{
    std::vector<std::uint64_t> hash;
    /** False when answers change under writes and are not compared. */
    bool check = true;
};

/** Called exactly once per request: success, answer hash, finish time. */
using Done = std::function<void(bool ok, std::uint64_t hash,
                                Clock::time_point finished)>;

/** A serving tier the generator can drive without blocking. */
class Target
{
  public:
    virtual ~Target() = default;
    /** Span name for one request, "layer.call". */
    virtual const char *spanName() const = 0;
    virtual void submit(const MixQuery &query, std::size_t k, Done done)
        = 0;
};

/** QueryServer through its callback submit forms. */
class ServerTarget : public Target
{
  public:
    explicit ServerTarget(dsearch::QueryServer &server) : _server(server)
    {
    }
    const char *spanName() const override { return "search.server"; }
    void submit(const MixQuery &query, std::size_t k, Done done) override;

  private:
    dsearch::QueryServer &_server;
};

/**
 * Broker through its future-returning submit; a collector thread
 * waits on the futures in order and derives each finish instant from
 * the submit return plus the broker's own admission-to-reply latency,
 * so a slow head of line does not delay the others' timestamps.
 */
class BrokerTarget : public Target
{
  public:
    explicit BrokerTarget(dsearch::Broker &broker);
    ~BrokerTarget() override;
    BrokerTarget(const BrokerTarget &) = delete;
    BrokerTarget &operator=(const BrokerTarget &) = delete;
    const char *spanName() const override { return "shard.broker"; }
    void submit(const MixQuery &query, std::size_t k, Done done) override;

  private:
    struct Pending
    {
        std::future<dsearch::BrokerResponse> future;
        Clock::time_point submitted;
        bool ranked = false;
        Done done;
    };
    void collect();

    dsearch::Broker &_broker;
    std::mutex _mutex;
    std::condition_variable _ready;
    std::deque<Pending> _pending;
    bool _stop = false;
    std::thread _collector; // declared last: uses the members above
};

/** What one fixed-rate stream measured. */
struct StreamResult
{
    double rate = 0.0;
    std::size_t attempted = 0;
    std::size_t failed = 0; ///< Refused, shed, timed out, partial, wrong,
                            ///< or unanswered.
    bool checked = true;    ///< Answers were compared (Expected::check).
    std::size_t wrong = 0;  ///< Answered ok but not the expected answer.
    std::string first_wrong;
    std::vector<double> latency_ms; ///< Succeeded requests, from schedule.
    double p50_ms = 0.0;
    double window_p50_ms = 0.0; ///< Median over windows of the window p50.
    double tail_ms = 0.0;   ///< Median over windows of the window tail.
    double tail_q = 0.0;    ///< Quantile taken in each window.
    std::vector<double> window_tails_ms;
    double p99_ms = 0.0;
    std::size_t backlog_max = 0;
    bool growing_backlog = false; ///< Last tenth's p50 over the limit.
    double gen_late_p99_ms = 0.0;
    bool meets_slo = false;
};

/**
 * Run one open-loop stream at @p rate for @p seconds, drawing queries
 * from @p mix.stream starting at @p offset, checking every answer
 * against @p expected. With a tracer, each request is recorded as one
 * span under @p parent.
 */
StreamResult runStream(Target &target, const QueryMix &mix,
                       const Expected &expected, double rate,
                       double seconds, std::size_t offset,
                       Tracer *tracer = nullptr, std::uint32_t parent = 0);

/**
 * The reference stream, then the fixed rate ladder; reports query
 * latency at the reference rate and the highest ladder rate meeting
 * the latency limit. @p phase names the operations in the report.
 */
void runServingPhase(Target &target, const QueryMix &mix,
                     const Expected &expected, const Options &opts,
                     const std::string &phase, Report &report);

/** One human-readable line for a stream. */
void printRate(const StreamResult &result, const char *what);

/** Record a stream's accounting and answer check in @p report. */
void reportStream(const StreamResult &result, const std::string &phase,
                  Report &report);

} // namespace perfbench

#endif // PERFBENCH_SERVING_HH
