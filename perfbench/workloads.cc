/**
 * @file
 * The four workloads: build, serve, sharded and live. Each generates
 * its inputs from the seed, sets the system up several times (the
 * median is setup_s), checks outputs against an independent oracle,
 * and measures for --seconds.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <unistd.h>

#include "core/engine.hh"
#include "fs/corpus.hh"
#include "fs/mutable_memory_fs.hh"
#include "index/serialize.hh"
#include "index/snapshot_store.hh"
#include "live/live_index.hh"
#include "search/query_server.hh"
#include "serving.hh"
#include "shard/broker.hh"
#include "shard/shard_planner.hh"
#include "workloads.hh"

namespace perfbench {

using namespace dsearch;

dsearch::CorpusSpec
corpusSpec(const Options &opts)
{
    CorpusSpec spec = CorpusSpec::paperScaled(opts.scale);
    spec.seed = opts.seed * 0x9e3779b97f4a7c15ull + 0x5ea4c4;
    return spec;
}

Corpus
makeCorpus(const Options &opts)
{
    Corpus corpus;
    corpus.spec = corpusSpec(opts);
    corpus.fs = CorpusGenerator(corpus.spec).generateInMemory();
    corpus.bytes = corpus.fs->totalBytes();
    corpus.files = corpus.fs->fileCount();
    return corpus;
}

Engine
parallelEngine(const FileSystem &fs, const std::string &root)
{
    Engine engine = Engine::open(fs, root);
    engine.organization(Implementation::ReplicatedJoin)
        .threads(fixed::x, fixed::y, fixed::z);
    return engine;
}

std::string
saveBlob(const IndexSnapshot &snapshot, const DocTable &docs)
{
    std::ostringstream out;
    if (!saveSnapshot(snapshot, docs, out))
        return {};
    return std::move(out).str();
}

bool
loadBlob(const std::string &blob, IndexSnapshot &snapshot, DocTable &docs)
{
    std::istringstream in(blob);
    return loadSnapshot(snapshot, docs, in);
}

Expected
expectedAnswers(const QueryMix &mix, const IndexSnapshot &snapshot,
                const DocTable &docs, std::size_t k)
{
    Searcher boolean(snapshot, docs.docCount());
    RankedSearcher ranked(snapshot, docs);
    Expected expected;
    for (const MixQuery &q : mix.distinct) {
        Query query = Query::parse(q.text);
        if (q.ranked) {
            std::vector<ScoredHit> hits =
                ranked.topK(ranked.compilePlan(query), k);
            expected.hash.push_back(hashRanked(hits));
        } else {
            DocSet hits = boolean.run(boolean.compilePlan(query));
            expected.hash.push_back(hashHits(hits));
        }
    }
    return expected;
}

ServerOptions
serverOptions()
{
    ServerOptions s;
    s.workers = fixed::server_workers;
    s.queue_capacity = 4096;
    s.overload_policy = OverloadPolicy::RejectNewest;
    return s;
}

BrokerOptions
brokerOptions()
{
    BrokerOptions b;
    b.shard_options.workers = fixed::shard_workers;
    b.shard_options.queue_capacity = 4096;
    b.shard_options.overload_policy = OverloadPolicy::RejectNewest;
    b.merge_workers = fixed::merge_workers;
    b.queue_capacity = 4096;
    b.overload_policy = OverloadPolicy::RejectNewest;
    return b;
}

ShardPlanOptions
shardPlanOptions()
{
    ShardPlanOptions p;
    p.shards = fixed::shards;
    p.placement = ShardPlacement::RoundRobin;
    p.organization = Implementation::ReplicatedJoin;
    p.extractors = fixed::x;
    p.updaters = fixed::y;
    p.joiners = fixed::z;
    return p;
}

namespace {

/** Equal answers for every distinct query, from two ways of asking. */
template <typename Ask>
void
checkDistinct(const QueryMix &mix, const Expected &expected, Ask ask,
              const std::string &name, Report &report)
{
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < mix.distinct.size(); ++i) {
        bool ok = false;
        std::uint64_t hash = ask(mix.distinct[i], ok);
        bool right = ok && hash == expected.hash[i];
        failed += right ? 0 : 1;
        report.check(name, right, mix.distinct[i].text);
    }
    report.operations(name, mix.distinct.size(), failed);
}

void
reportSetups(const std::vector<double> &setup_s,
             const std::vector<double> &cold_ms, Report &report)
{
    report.metric("setup_s", median(setup_s), "s", tailNote(setup_s, "s"));
    report.metric("cold_start_ms", median(cold_ms), "ms",
                  "load + first answer, " + tailNote(cold_ms, "ms"));
}

} // namespace

// ----------------------------------------------------------------------
// build: the paper's workload.
// ----------------------------------------------------------------------

void
runBuild(const Options &opts, Report &report)
{
    Corpus corpus = makeCorpus(opts);
    const std::string &root = corpus.spec.root;
    QueryMix mix = makeQueryMix(opts, corpus.spec.vocabulary_size,
                                opts.seed);
    const double mb = static_cast<double>(corpus.bytes) / 1e6;

    // Oracle: the sequential build.
    Engine::Result sequential =
        Engine::open(*corpus.fs, root).build();
    Expected expected = expectedAnswers(mix, sequential.snapshot,
                                        sequential.docs, fixed::top_k);

    // Set-up: the whole chain once (build, persist, load, answer).
    Engine engine = parallelEngine(*corpus.fs, root);
    std::vector<double> setup_s, cold_ms;
    for (unsigned s = 0; s < opts.setups; ++s) {
        Clock::time_point t = Clock::now();
        Engine::Result built = engine.build();
        std::string blob = saveBlob(built.snapshot, built.docs);
        IndexSnapshot loaded;
        DocTable loaded_docs;
        bool ok = loadBlob(blob, loaded, loaded_docs);
        Searcher(loaded, loaded_docs.docCount())
            .run(Query::parse(mix.distinct[0].text));
        setup_s.push_back(secondsSince(t));
        if (s != 0)
            continue;
        report.check("build.load_ok", ok);
        // Parallel == sequential, and save -> load answers the same.
        Expected parallel = expectedAnswers(mix, built.snapshot, built.docs,
                                            fixed::top_k);
        Expected round_trip = expectedAnswers(mix, loaded, loaded_docs,
                                              fixed::top_k);
        std::uint64_t par_failed = 0, rt_failed = 0;
        for (std::size_t i = 0; i < mix.distinct.size(); ++i) {
            bool par_ok = parallel.hash[i] == expected.hash[i];
            bool rt_ok = round_trip.hash[i] == expected.hash[i];
            par_failed += par_ok ? 0 : 1;
            rt_failed += rt_ok ? 0 : 1;
            report.check("build.parallel_equals_sequential", par_ok,
                         mix.distinct[i].text);
            report.check("build.round_trip_equals_built", rt_ok,
                         mix.distinct[i].text);
        }
        report.operations("build.check_parallel", mix.distinct.size(),
                          par_failed);
        report.operations("build.check_round_trip", mix.distinct.size(),
                          rt_failed);
        report.metric("index_bytes_per_input_byte",
                      static_cast<double>(blob.size())
                          / static_cast<double>(corpus.bytes),
                      "ratio", "snapshot bytes / corpus bytes");
    }

    // Timed: back-to-back builds, each persisted, loaded and asked
    // one query (the cold start).
    std::vector<double> build_ms, save_ms, cold;
    std::uint64_t failed = 0;
    Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opts.seconds));
    for (std::size_t i = 0; Clock::now() < deadline || i < 3; ++i) {
        const std::uint32_t q = mix.stream[i % mix.stream.size()];
        Clock::time_point t0 = Clock::now();
        Engine::Result built = engine.build();
        Clock::time_point t1 = Clock::now();
        std::string blob = saveBlob(built.snapshot, built.docs);
        Clock::time_point t2 = Clock::now();
        IndexSnapshot loaded;
        DocTable loaded_docs;
        bool ok = loadBlob(blob, loaded, loaded_docs);
        std::uint64_t hash = 0;
        Query query = Query::parse(mix.distinct[q].text);
        if (mix.distinct[q].ranked) {
            RankedSearcher ranked(loaded, loaded_docs);
            hash = hashRanked(ranked.topK(query, fixed::top_k));
        } else {
            Searcher searcher(loaded, loaded_docs.docCount());
            hash = hashHits(searcher.run(query));
        }
        Clock::time_point t3 = Clock::now();
        bool right = ok && hash == expected.hash[q];
        failed += right ? 0 : 1;
        report.check("build.first_answer_equals_sequential", right,
                     mix.distinct[q].text);
        build_ms.push_back(msBetween(t0, t1));
        save_ms.push_back(msBetween(t1, t2));
        cold.push_back(msBetween(t2, t3));
    }
    report.operations("build.timed", build_ms.size(), failed);
    reportSetups(setup_s, cold, report);

    std::string n = "n=" + std::to_string(build_ms.size()) + " builds";
    const double tail_q = tailQuantile(build_ms.size());
    report.metric("op_p50_ms", median(build_ms), "ms",
                  "build time (files -> sealed snapshot) p50, " + n);
    report.metric("op_tail_ms", quantile(build_ms, tail_q), "ms",
                  "build time p"
                      + std::to_string(static_cast<int>(tail_q * 100.0))
                      + " (10 or more samples beyond), " + n);
    report.metric("build_mb_per_s", mb / (median(build_ms) / 1000.0),
                  "MB/s", "corpus MB / median build time");
    report.metric("save_ms", median(save_ms), "ms");
    report.metric("corpus_mb", mb, "MB",
                  std::to_string(corpus.files) + " files");
}

// ----------------------------------------------------------------------
// serve: one sealed snapshot behind a QueryServer.
// ----------------------------------------------------------------------

void
runServe(const Options &opts, Report &report)
{
    Corpus corpus = makeCorpus(opts);
    const std::string &root = corpus.spec.root;
    QueryMix mix = makeQueryMix(opts, corpus.spec.vocabulary_size,
                                opts.seed);
    Engine engine = parallelEngine(*corpus.fs, root);

    // Set-up: build, persist, then the cold start — load, start the
    // server, answer the first query. More cold starts follow from
    // the last blob, so cold_start_ms has enough samples.
    std::vector<double> setup_s, cold_ms;
    std::unique_ptr<QueryServer> server;
    Engine::Result built;
    std::string blob;
    auto cold_start = [&] {
        server.reset();
        Clock::time_point tc = Clock::now();
        IndexSnapshot loaded;
        DocTable loaded_docs;
        report.check("serve.load_ok", loadBlob(blob, loaded, loaded_docs));
        server = std::make_unique<QueryServer>(
            std::move(loaded), std::move(loaded_docs), serverOptions());
        QueryResponse first =
            server->submit(Query::parse(mix.distinct[0].text)).get();
        report.check("serve.first_answer_ok", first.ok, first.error);
        cold_ms.push_back(msBetween(tc, Clock::now()));
    };
    for (unsigned s = 0; s < opts.setups; ++s) {
        server.reset();
        Clock::time_point t = Clock::now();
        built = engine.build();
        blob = saveBlob(built.snapshot, built.docs);
        cold_start();
        setup_s.push_back(secondsSince(t));
    }
    for (unsigned k = 0; k < opts.cold_starts; ++k)
        cold_start();
    const std::size_t blob_bytes = blob.size();
    reportSetups(setup_s, cold_ms, report);
    report.metric("index_bytes_per_input_byte",
                  static_cast<double>(blob_bytes)
                      / static_cast<double>(corpus.bytes),
                  "ratio", "snapshot bytes / corpus bytes");

    // Oracle: direct in-thread evaluation over the built snapshot.
    Expected expected = expectedAnswers(mix, built.snapshot, built.docs,
                                        fixed::top_k);
    checkDistinct(
        mix, expected,
        [&](const MixQuery &q, bool &ok) {
            QueryResponse r =
                q.ranked ? server->submitRanked(Query::parse(q.text),
                                                fixed::top_k)
                               .get()
                         : server->submit(Query::parse(q.text)).get();
            ok = r.ok;
            return q.ranked ? hashRanked(r.ranked) : hashHits(r.hits);
        },
        "serve.distinct_equals_direct", report);

    ServerTarget target(*server);
    runServingPhase(target, mix, expected, opts, "serve", report);
    server->shutdown();
}

// ----------------------------------------------------------------------
// sharded: the same corpus and stream through a Broker.
// ----------------------------------------------------------------------

void
runSharded(const Options &opts, Report &report)
{
    Corpus corpus = makeCorpus(opts);
    const std::string &root = corpus.spec.root;
    QueryMix mix = makeQueryMix(opts, corpus.spec.vocabulary_size,
                                opts.seed);

    std::vector<double> setup_s, cold_ms;
    std::unique_ptr<Broker> broker;
    ShardedBuild planned;
    std::vector<std::string> blobs;
    auto cold_start = [&] {
        broker.reset();
        Clock::time_point tc = Clock::now();
        ShardedBuild loaded;
        loaded.global_docs = planned.global_docs;
        for (std::size_t i = 0; i < blobs.size(); ++i) {
            BuiltShard shard;
            report.check("sharded.load_ok",
                         loadBlob(blobs[i], shard.snapshot, shard.docs));
            shard.to_global = planned.shards[i].to_global;
            loaded.shards.push_back(std::move(shard));
        }
        broker = std::make_unique<Broker>(std::move(loaded),
                                          brokerOptions());
        BrokerResponse first =
            broker->submit(Query::parse(mix.distinct[0].text)).get();
        report.check("sharded.first_answer_ok", first.ok && !first.partial,
                     first.error);
        cold_ms.push_back(msBetween(tc, Clock::now()));
    };
    for (unsigned s = 0; s < opts.setups; ++s) {
        broker.reset();
        Clock::time_point t = Clock::now();
        planned =
            ShardPlanner::build(*corpus.fs, root, shardPlanOptions());
        blobs.clear();
        for (const BuiltShard &shard : planned.shards)
            blobs.push_back(saveBlob(shard.snapshot, shard.docs));
        cold_start();
        setup_s.push_back(secondsSince(t));
    }
    for (unsigned k = 0; k < opts.cold_starts; ++k)
        cold_start();
    std::size_t blob_bytes = 0;
    for (const std::string &b : blobs)
        blob_bytes += b.size();
    reportSetups(setup_s, cold_ms, report);
    report.metric("index_bytes_per_input_byte",
                  static_cast<double>(blob_bytes)
                      / static_cast<double>(corpus.bytes),
                  "ratio", "shard snapshot bytes / corpus bytes");

    // Oracle: the unsharded build, evaluated directly.
    Engine::Result unsharded = parallelEngine(*corpus.fs, root).build();
    bool same_docs = unsharded.docs.docCount() == broker->docCount();
    for (DocId d = 0; same_docs && d < unsharded.docs.docCount(); ++d)
        same_docs = unsharded.docs.path(d) == broker->docs().path(d);
    report.check("sharded.global_docs_equal_unsharded", same_docs);
    Expected expected = expectedAnswers(mix, unsharded.snapshot,
                                        unsharded.docs, fixed::top_k);
    checkDistinct(
        mix, expected,
        [&](const MixQuery &q, bool &ok) {
            BrokerResponse r =
                q.ranked ? broker->submitRanked(Query::parse(q.text),
                                                fixed::top_k)
                               .get()
                         : broker->submit(Query::parse(q.text)).get();
            ok = r.ok && !r.partial;
            return q.ranked ? hashRanked(r.ranked) : hashHits(r.hits);
        },
        "sharded.distinct_equals_unsharded", report);

    broker->resetStats();
    {
        BrokerTarget target(*broker);
        runServingPhase(target, mix, expected, opts, "sharded", report);
    }
    BrokerStats stats = broker->stats();
    report.metric("shard_p99_ms", stats.shard_latency.p99 * 1000.0, "ms",
                  "per-shard reply latency");
    broker->shutdown();
}

// ----------------------------------------------------------------------
// live: writes beside reads.
// ----------------------------------------------------------------------

namespace {

class MutableWriter : public CorpusWriter
{
  public:
    MutableWriter(MutableMemoryFs &fs, MemoryFs *tee) : _fs(fs), _tee(tee)
    {
    }
    void
    addFile(const std::string &path, std::string content) override
    {
        if (_tee != nullptr)
            _tee->addFile(path, content);
        _fs.addFile(path, std::move(content));
    }

  private:
    MutableMemoryFs &_fs;
    MemoryFs *_tee;
};

/** A rewritten or created file's body: corpus-like words + marker. */
std::string
liveBody(Rng &rng, const std::string &marker)
{
    std::string text;
    for (int w = 0; w < 300; ++w) {
        text += CorpusGenerator::wordForRank(rng.range(0, 2000));
        text += (w % 12 == 11) ? '\n' : ' ';
    }
    text += marker;
    text += '\n';
    return text;
}

std::string
storeDir(const Options &opts, const char *what)
{
    return opts.work_dir + "/" + what + "-" + std::to_string(getpid());
}

} // namespace

LiveSetup::LiveSetup(const Options &opts, MemoryFs *tee)
    : corpus_spec(corpusSpec(opts)), store_dir(storeDir(opts, "live"))
{
    MutableWriter writer(fs, tee);
    CorpusManifest manifest = CorpusGenerator(corpus_spec).generate(writer);
    corpus_bytes = manifest.total_bytes;
    large.insert(manifest.large_files.begin(), manifest.large_files.end());
    std::filesystem::remove_all(store_dir);
    std::filesystem::create_directories(store_dir);
}

LiveSetup::~LiveSetup()
{
    live.reset();
    server.reset();
    store.reset();
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
}

namespace {

LiveIndexOptions
liveOptions()
{
    LiveIndexOptions o;
    o.merge_threshold = 1u << 30; // compaction is driven by the writer
    return o;
}

SnapshotStoreOptions
storeOptions()
{
    SnapshotStoreOptions o;
    o.sync = false; // fsync time on a shared disk would swamp the figures
    return o;
}

} // namespace

double
LiveSetup::start(const Options &opts, const std::string &first_query)
{
    live.reset();
    server.reset();
    store.reset();
    std::filesystem::remove_all(store_dir);
    std::filesystem::create_directories(store_dir);

    // Base build, adopted and persisted as the first generation.
    Engine::Result built =
        parallelEngine(fs, corpus_spec.root).build();
    {
        SnapshotStore first_store(store_dir, storeOptions());
        QueryServer first_server(IndexSnapshot{}, DocTable{},
                                 serverOptions());
        LiveIndex first(fs, corpus_spec.root, first_server, &first_store,
                        liveOptions());
        first.adopt(std::move(built));
    }
    return coldStart(opts, first_query);
}

double
LiveSetup::coldStart(const Options &opts, const std::string &first_query)
{
    live.reset();
    server.reset();
    store.reset();
    Clock::time_point tc = Clock::now();
    store = std::make_unique<SnapshotStore>(store_dir, storeOptions());
    server = std::make_unique<QueryServer>(IndexSnapshot{}, DocTable{},
                                           serverOptions());
    live = std::make_unique<LiveIndex>(fs, corpus_spec.root, *server,
                                       store.get(), liveOptions());
    live->bootstrap();
    first_ok = server->submit(Query::parse(first_query)).get().ok;
    return msBetween(tc, Clock::now());
}

void
runLiveWrites(LiveSetup &setup, const Options &opts, double seconds,
              Tracer *tracer, std::uint32_t parent, Report &report,
              LiveResult &out)
{
    Rng rng(opts.seed * 0xa0761d6478bd642full + 77);
    MutableMemoryFs &fs = setup.fs;
    QueryServer &server = *setup.server;
    LiveIndex &live = *setup.live;

    // Paths the writer may rewrite or delete (small files only).
    std::vector<std::string> pool;
    {
        std::shared_ptr<const ServingState> state = server.serving();
        for (DocId d = 0; d < state->docs.docCount(); ++d) {
            const std::string &p = state->docs.path(d);
            if (!setup.large.count(p) && fs.isFile(p))
                pool.push_back(p);
        }
        std::sort(pool.begin(), pool.end());
        pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    }
    std::map<std::string, std::size_t> marker_of; // path -> cycle
    std::vector<std::set<std::string>> holders;   // cycle -> paths
    std::set<std::string> deleted;

    auto ask = [&](std::size_t cycle, const char *name) {
        QueryResponse r =
            server.submit(Query::parse("qxm" + std::to_string(cycle))).get();
        std::shared_ptr<const ServingState> state = server.serving();
        std::set<std::string> got;
        bool resurrected = false;
        for (DocId d : r.hits) {
            const std::string &p = state->docs.path(d);
            got.insert(p);
            resurrected |= deleted.count(p) != 0;
        }
        bool right = r.ok && got == holders[cycle] && !resurrected;
        report.check(std::string("live.") + name, right,
                     "marker qxm" + std::to_string(cycle));
        report.check("live.deleted_never_return", !resurrected);
        return right;
    };

    const Clock::time_point t0 = Clock::now();
    const std::size_t cycles = std::max<std::size_t>(
        1,
        static_cast<std::size_t>(seconds * 1000.0 / fixed::cycle_ms));
    std::uint64_t failed = 0;
    for (std::size_t c = 0; c < cycles; ++c) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         static_cast<double>(c) * fixed::cycle_ms)));
        Scope cycle_span(tracer, "live.write_cycle", parent, c + 1);
        const std::string marker = "qxm" + std::to_string(c);
        holders.emplace_back();
        auto claim = [&](const std::string &path) {
            auto it = marker_of.find(path);
            if (it != marker_of.end())
                holders[it->second].erase(path);
            marker_of[path] = c;
            holders[c].insert(path);
        };
        for (unsigned r = 0; r < fixed::rewrites && !pool.empty();
             ++r) {
            const std::string &path = pool[rng.range(0, pool.size())];
            std::string body = liveBody(rng, marker);
            out.changed_bytes += body.size();
            fs.addFile(path, std::move(body));
            claim(path);
        }
        for (unsigned k = 0; k < fixed::creates; ++k) {
            std::string path = setup.corpus_spec.root + "/live/c"
                + std::to_string(c) + "_" + std::to_string(k) + ".txt";
            std::string body = liveBody(rng, marker);
            out.changed_bytes += body.size();
            fs.addFile(path, std::move(body));
            claim(path);
            pool.push_back(path);
        }
        for (unsigned k = 0; k < fixed::deletes && pool.size() > 1; ++k) {
            std::size_t at = rng.range(0, pool.size());
            std::string path = pool[at];
            if (holders[c].count(path))
                continue; // keep this cycle's markers checkable
            pool[at] = pool.back();
            pool.pop_back();
            fs.removeFile(path);
            auto it = marker_of.find(path);
            if (it != marker_of.end()) {
                holders[it->second].erase(path);
                marker_of.erase(it);
            }
            deleted.insert(path);
        }
        const Clock::time_point written = Clock::now();

        Clock::time_point tc = Clock::now();
        {
            Scope span(tracer, "live.run_cycle", cycle_span.id(), c + 1);
            live.runCycle();
        }
        out.cycle_ms.push_back(msBetween(tc, Clock::now()));
        bool right;
        {
            Scope span(tracer, "search.marker_query", cycle_span.id(),
                       c + 1);
            right = ask(c, "marker_returns_exactly_rewritten");
        }
        out.visible_ms.push_back(msBetween(written, Clock::now()));
        if (c > 0) {
            // An older marker still names exactly its surviving files.
            right &= ask(rng.range(0, c), "older_marker_exact");
        }
        failed += right ? 0 : 1;
        out.pending_deltas_max = std::max<std::uint64_t>(
            out.pending_deltas_max, live.stats().pending_deltas);

        if ((c + 1) % fixed::compact_every == 0) {
            Clock::time_point tk = Clock::now();
            bool merged;
            {
                Scope span(tracer, "live.compact", cycle_span.id(), c + 1);
                merged = live.compactNow();
            }
            out.compact_ms.push_back(msBetween(tk, Clock::now()));
            report.check("live.compaction_ok", merged);
            std::uint64_t gen = live.stats().generation;
            std::error_code ec;
            auto size = std::filesystem::file_size(
                setup.store->generationPath(gen), ec);
            if (!ec)
                out.store_bytes += size;
        }
    }
    out.cycles = cycles;
    report.operations("live.write_cycles", cycles, failed);
}

void
runLive(const Options &opts, Report &report)
{
    LiveSetup setup(opts);
    QueryMix mix = makeQueryMix(opts, setup.corpus_spec.vocabulary_size,
                                opts.seed);

    std::vector<double> setup_s, cold_ms;
    for (unsigned s = 0; s < opts.setups; ++s) {
        Clock::time_point t = Clock::now();
        cold_ms.push_back(setup.start(opts, mix.distinct[0].text));
        setup_s.push_back(secondsSince(t));
        report.check("live.first_answer_ok", setup.first_ok);
    }
    for (unsigned k = 0; k < opts.cold_starts; ++k) {
        cold_ms.push_back(setup.coldStart(opts, mix.distinct[0].text));
        report.check("live.first_answer_ok", setup.first_ok);
    }
    reportSetups(setup_s, cold_ms, report);
    {
        std::error_code ec;
        auto size = std::filesystem::file_size(
            setup.store->generationPath(setup.store->newestGeneration()),
            ec);
        report.metric("index_bytes_per_input_byte",
                      ec ? 0.0
                         : static_cast<double>(size)
                             / static_cast<double>(setup.corpus_bytes),
                      "ratio", "first generation bytes / corpus bytes");
    }

    // The query stream's answers change under the writes, so they are
    // not compared; the marker queries are this workload's check.
    Expected unchecked;
    unchecked.hash.assign(mix.distinct.size(), 0);
    unchecked.check = false;

    StreamResult reads;
    ServerTarget target(*setup.server);
    std::thread reader([&] {
        reads = runStream(target, mix, unchecked, opts.ref_rate,
                          opts.seconds, 0);
    });
    LiveResult writes;
    runLiveWrites(setup, opts, opts.seconds, nullptr, 0, report, writes);
    reader.join();
    reportStream(reads, "live.reads", report);
    printRate(reads, "reads");

    // The live tier's own latency is visibility: from a file write
    // until a query returns it. It is milliseconds of scan, delta
    // build and publish work, so host noise at the scale of a query
    // hop does not swamp it the way it swamps query latency.
    const std::string n = "n=" + std::to_string(reads.latency_ms.size());
    const std::string nv = "n=" + std::to_string(writes.visible_ms.size());
    report.metric("op_p50_ms", median(writes.visible_ms), "ms",
                  "write -> visible p50, " + nv);
    report.metric("op_tail_ms", quantile(writes.visible_ms, 0.9), "ms",
                  "write -> visible p90, " + nv);
    report.metric("query_p50_ms", reads.p50_ms, "ms", n);
    report.metric("query_p99_ms", reads.p99_ms, "ms", n);
    reportLiveWrites(writes, report);
}

void
reportLiveWrites(const LiveResult &w, Report &report)
{
    const std::string n = "n=" + std::to_string(w.visible_ms.size());
    report.metric("visible_p50_ms", median(w.visible_ms), "ms", n);
    report.metric("visible_p90_ms", quantile(w.visible_ms, 0.9), "ms", n);
    report.metric("write_bytes_per_changed_byte",
                  w.changed_bytes == 0
                      ? 0.0
                      : static_cast<double>(w.store_bytes)
                          / static_cast<double>(w.changed_bytes),
                  "ratio",
                  std::to_string(w.store_bytes) + " store bytes / "
                      + std::to_string(w.changed_bytes) + " changed");
    report.metric("live.cycle_ms", median(w.cycle_ms), "ms",
                  "runCycle " + tailNote(w.cycle_ms, "ms"));
    report.metric("live.compact_ms", median(w.compact_ms), "ms",
                  "compactNow " + tailNote(w.compact_ms, "ms"));
    report.metric("live.pending_deltas_max",
                  static_cast<double>(w.pending_deltas_max), "count");
    report.metric("live.store_bytes_written",
                  static_cast<double>(w.store_bytes), "bytes");
}

} // namespace perfbench
