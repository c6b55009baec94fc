/**
 * @file
 * Building blocks the workloads (workloads.cc) and the traced ladder
 * (ladder.cc) share: corpus generation, the parallel build, snapshot
 * blobs, direct-evaluation oracles and the live write loop.
 */
#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <map>
#include <set>

#include "bench.hh"
#include "core/engine.hh"
#include "fs/corpus.hh"
#include "fs/mutable_memory_fs.hh"
#include "index/snapshot_store.hh"
#include "live/live_index.hh"
#include "serving.hh"
#include "shard/shard_planner.hh"

namespace perfbench {

/** A generated in-memory corpus. */
struct Corpus
{
    dsearch::CorpusSpec spec;
    std::unique_ptr<dsearch::MemoryFs> fs;
    std::uint64_t bytes = 0;
    std::size_t files = 0;
};

dsearch::CorpusSpec corpusSpec(const Options &opts);
Corpus makeCorpus(const Options &opts);
/** Implementation 2 with the fixed (x, y, z). */
dsearch::Engine parallelEngine(const dsearch::FileSystem &fs,
                               const std::string &root);
std::string saveBlob(const dsearch::IndexSnapshot &snapshot,
                     const dsearch::DocTable &docs);
bool loadBlob(const std::string &blob, dsearch::IndexSnapshot &snapshot,
              dsearch::DocTable &docs);
/** Direct in-thread answers (Searcher::run / RankedSearcher::topK). */
Expected expectedAnswers(const QueryMix &mix,
                         const dsearch::IndexSnapshot &snapshot,
                         const dsearch::DocTable &docs, std::size_t k);
dsearch::ServerOptions serverOptions();
dsearch::BrokerOptions brokerOptions();
dsearch::ShardPlanOptions shardPlanOptions();

/** The live workload's corpus, store and serving pair. */
struct LiveSetup
{
    /**
     * Generate the corpus into fs; with @p tee, also into that
     * MemoryFs (the ladder measures the build layers on it).
     */
    explicit LiveSetup(const Options &opts,
                       dsearch::MemoryFs *tee = nullptr);
    ~LiveSetup();
    LiveSetup(const LiveSetup &) = delete;
    LiveSetup &operator=(const LiveSetup &) = delete;

    /**
     * Fresh store; base build adopted and persisted; then coldStart().
     * @return The cold start's ms.
     */
    double start(const Options &opts, const std::string &first_query);
    /**
     * Replace the serving pair by one recovered from the store
     * (LiveIndex::bootstrap) and answer the first query.
     * @return Elapsed ms.
     */
    double coldStart(const Options &opts, const std::string &first_query);

    dsearch::CorpusSpec corpus_spec;
    dsearch::MutableMemoryFs fs;
    std::uint64_t corpus_bytes = 0;
    std::set<std::string> large;
    std::string store_dir;
    std::unique_ptr<dsearch::SnapshotStore> store;
    std::unique_ptr<dsearch::QueryServer> server;
    std::unique_ptr<dsearch::LiveIndex> live; // before server dies
    bool first_ok = false;
};

/** What the live write loop measured. */
struct LiveResult
{
    std::size_t cycles = 0;
    std::vector<double> cycle_ms;
    std::vector<double> compact_ms;
    std::vector<double> visible_ms;
    std::uint64_t pending_deltas_max = 0;
    std::uint64_t store_bytes = 0;
    std::uint64_t changed_bytes = 0;
};

/**
 * Fixed write cycles for @p seconds: a batch of rewrites, creates
 * and deletes, a synchronous runCycle(), marker-query checks, and a
 * compaction every compact_every cycles.
 */
void runLiveWrites(LiveSetup &setup, const Options &opts, double seconds,
                   Tracer *tracer, std::uint32_t parent, Report &report,
                   LiveResult &out);
void reportLiveWrites(const LiveResult &writes, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
