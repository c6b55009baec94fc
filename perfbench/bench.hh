/**
 * @file
 * Shared declarations of the repository benchmark (perfbench).
 *
 * The benchmark drives the dsearch library from outside, through its
 * public headers only. main.cc parses the command line into Options,
 * runs one workload (workloads.cc) or, with tracing on, the per-layer
 * ladder (ladder.cc), and prints a Report. run.py builds this
 * program, passes the workload parameters from workloads.json and
 * checks the result line against BENCHMARK.json.
 */
#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fs/memory_fs.hh"
#include "index/doc_table.hh"
#include "search/query.hh"
#include "search/ranked.hh"
#include "search/searcher.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p start to now. */
double secondsSince(Clock::time_point start);

/** Milliseconds between two instants. */
double msBetween(Clock::time_point from, Clock::time_point to);

/**
 * Workload parameters that are the same in every workload and in the
 * smoke mode. They are set here only; workloads.json documents them.
 */
namespace fixed {
inline constexpr unsigned x = 4, y = 0, z = 2; ///< Implementation 2 tuple.
inline constexpr double zipf_s = 0.8;        ///< Repeat skew of the stream.
inline constexpr double ranked_share = 0.2;  ///< Ranked share of queries.
inline constexpr std::size_t top_k = 10;
inline constexpr double slo_ms = 5.0;        ///< p99 latency limit.
inline constexpr double ref_share = 0.5;     ///< Share of --seconds at the
                                             ///< reference rate; the rate
                                             ///< ladder gets the rest.
inline constexpr unsigned server_workers = 4;
inline constexpr unsigned shards = 4;
inline constexpr unsigned shard_workers = 1;
inline constexpr unsigned merge_workers = 4;
/** Live batch per cycle: files rewritten, created and deleted. */
inline constexpr unsigned rewrites = 30, creates = 10, deletes = 10;
inline constexpr double cycle_ms = 100.0;
inline constexpr unsigned compact_every = 8;
} // namespace fixed

/**
 * What the command line sets: the values that differ between
 * workloads or in the smoke mode. The defaults are those of
 * workloads.json's "common" section.
 */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    double scale = 0.1;          ///< CorpusSpec::paperScaled factor.
    unsigned setups = 3;         ///< Set-ups per run (setup_s median).
    unsigned cold_starts = 6;    ///< Extra cold starts after set-up.
    std::size_t distinct_queries = 4000;
    double ref_rate = 1000.0;    ///< Offered query rate (live: the reads
                                 ///< beside the writes).
    std::vector<double> sweep_rates; ///< Fixed ladder for max_qps_at_slo.

    /** Directory for temporary stores and the trace file. */
    std::string work_dir = ".bench_build/work";
};

/** A named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; ///< Sample count or definition, for people.
};

/**
 * What a run produced: metrics, operation accounting per phase, and
 * output checks. Any failed check makes the run incorrect.
 */
class Report
{
  public:
    void metric(std::string name, double value, std::string unit,
                std::string note = {});
    /** Record one output check; a false @p ok fails the run. */
    void check(const std::string &name, bool ok,
               const std::string &detail = {});
    /** Operations of one phase: attempted, failed (refused, shed,
     *  timed out, partial or wrong). */
    void operations(const std::string &phase, std::uint64_t attempted,
                    std::uint64_t failed);

    bool correct() const { return _correct; }
    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }

    /** Human-readable lines, then the JSON result as the last line. */
    void print(bool trace) const;

  private:
    struct Check
    {
        std::string name;
        std::uint64_t passed = 0;
        std::uint64_t failed = 0;
        std::string first_failure;
    };
    struct Phase
    {
        std::string name;
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
    };
    mutable std::mutex _mutex;
    std::vector<Metric> _metrics;
    std::vector<Check> _checks;
    std::vector<Phase> _phases;
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
    bool _correct = true;
};

// ----------------------------------------------------------------------
// Tracing: spans recorded around each call into a library layer, kept
// in memory and written once at the end.
// ----------------------------------------------------------------------

/** One recorded span. */
struct Span
{
    const char *name = "";   ///< "layer.call", e.g. "index.seal".
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root.
    std::uint64_t request = 0; ///< Request id; 0 = not a request.
};

/** Thread-safe in-memory span log. A null Tracer* records nothing. */
class Tracer
{
  public:
    Tracer();
    std::uint32_t begin(const char *name, std::uint32_t parent,
                        std::uint64_t request = 0);
    void end(std::uint32_t id);
    /** Record a finished span whose times were taken elsewhere. */
    void add(const char *name, Clock::time_point start,
             Clock::time_point end, std::uint32_t parent,
             std::uint64_t request);
    std::vector<Span> spans() const;
    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;
    /**
     * Per-layer self time in ms: each span's duration minus the part
     * its children cover, summed by the layer prefix of its name.
     */
    std::vector<std::pair<std::string, double>> selfTimeByLayer() const;

  private:
    std::int64_t now() const;
    Clock::time_point _epoch;
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

/** RAII span; a no-op when the tracer is null. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, std::uint32_t parent = 0,
          std::uint64_t request = 0)
        : _tracer(tracer),
          _id(tracer != nullptr ? tracer->begin(name, parent, request)
                                : 0)
    {
    }
    ~Scope()
    {
        if (_tracer != nullptr)
            _tracer->end(_id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    std::uint32_t id() const { return _id; }

  private:
    Tracer *_tracer;
    std::uint32_t _id;
};

// ----------------------------------------------------------------------
// Generated inputs.
// ----------------------------------------------------------------------

/** 64-bit deterministic generator (splitmix64). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _state(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double unit();
    /** Uniform in [lo, hi). */
    std::size_t range(std::size_t lo, std::size_t hi);

  private:
    std::uint64_t _state;
};

/** One distinct query of the served mix. */
struct MixQuery
{
    std::string text;
    bool ranked = false;
};

/**
 * The seeded query mix: distinct queries over head/torso/tail
 * vocabulary ranks, and a stream of indices into them drawn with Zipf
 * frequencies so popular queries repeat.
 */
struct QueryMix
{
    std::vector<MixQuery> distinct;
    std::vector<std::uint32_t> stream;
};

QueryMix makeQueryMix(const Options &opts, std::size_t vocabulary,
                      std::uint64_t seed);

/** Order-sensitive hash of a boolean answer. */
std::uint64_t hashHits(const dsearch::DocSet &hits);
/** Order-sensitive hash of a ranked answer, scores bit for bit. */
std::uint64_t hashRanked(const std::vector<dsearch::ScoredHit> &hits);

/** Nearest-rank quantile of an unsorted sample (copied). */
double quantile(std::vector<double> sample, double q);
/** Median of an unsorted sample. */
double median(std::vector<double> sample);
/**
 * The highest quantile, in whole percent, that leaves at least 10 of
 * @p n samples beyond it; the median when @p n is too small for that.
 */
double tailQuantile(std::size_t n);
/**
 * Note for a timing reported as its median: the sample count and the
 * tailQuantile percentile with its value, or that no percentile above
 * the median leaves 10 samples beyond it.
 */
std::string tailNote(const std::vector<double> &sample,
                     const std::string &unit);

// ----------------------------------------------------------------------
// Workloads and the traced ladder.
// ----------------------------------------------------------------------

void runBuild(const Options &opts, Report &report);
void runServe(const Options &opts, Report &report);
void runSharded(const Options &opts, Report &report);
void runLive(const Options &opts, Report &report);
void runLadder(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
