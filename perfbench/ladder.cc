/**
 * @file
 * The traced run: a ladder that calls each library layer in turn on
 * the workload's corpus and query mix, with a span around every call,
 * and reports the per-layer metrics. Every layer is measured whatever
 * the workload, so each traced run reports the same metric set; the
 * workload sets the corpus scale, the mix and the rates.
 *
 * Tracing overhead is the workload's own end-to-end number measured
 * twice in this process over equal windows, once without spans and
 * once with them.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "core/engine.hh"
#include "fs/traversal.hh"
#include "index/index_backend.hh"
#include "index/index_join.hh"
#include "index/posting_block.hh"
#include "search/plan.hh"
#include "text/term_extractor.hh"
#include "workloads.hh"

namespace perfbench {

using namespace dsearch;

namespace {

double
msSince(Clock::time_point t)
{
    return secondsSince(t) * 1000.0;
}

/** Median wall time of @p reps calls of @p fn, in ms, each a span. */
template <typename Fn>
double
timedMedian(Tracer *tracer, const char *name, std::uint32_t parent,
            int reps, Fn fn)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        Scope span(tracer, name, parent);
        Clock::time_point t = Clock::now();
        fn();
        ms.push_back(msSince(t));
    }
    return median(ms);
}

/** Closed-loop round trips of @p count stream queries, in µs. */
template <typename Ask>
std::vector<double>
roundTrips(const QueryMix &mix, std::size_t count, Ask ask)
{
    std::vector<double> us;
    for (std::size_t i = 0; i < count; ++i) {
        const MixQuery &q = mix.distinct[mix.stream[i]];
        Clock::time_point t = Clock::now();
        ask(q);
        us.push_back(secondsSince(t) * 1e6);
    }
    return us;
}

} // namespace

void
runLadder(const Options &opts, Report &report)
{
    Tracer tracer;
    Tracer *tr = &tracer;
    const std::uint32_t root = tracer.begin("bench.ladder", 0);
    // Short fixed windows per stream so the ladder fits one run.
    const double window = std::max(0.5, opts.seconds * 0.1);

    MemoryFs memfs;
    LiveSetup live_setup(opts, &memfs);
    const std::string &corpus_root = live_setup.corpus_spec.root;
    const double mb = static_cast<double>(memfs.totalBytes()) / 1e6;
    QueryMix mix = makeQueryMix(opts, live_setup.corpus_spec.vocabulary_size,
                                opts.seed);

    // ---- fs -----------------------------------------------------------
    FileList files;
    const double filenames_ms =
        timedMedian(tr, "fs.generate_filenames", root, 3,
                    [&] { files = generateFilenames(memfs, corpus_root); });
    report.metric("fs.filenames_ms", filenames_ms, "ms",
                  std::to_string(files.size()) + " files, median of 3");
    {
        Scope span(tr, "fs.read_all", root);
        Clock::time_point t = Clock::now();
        std::string buf;
        std::uint64_t bytes = 0;
        for (const FileEntry &f : files) {
            memfs.readFile(f.path, buf);
            bytes += buf.size();
        }
        report.metric("fs.read_mb_per_s",
                      static_cast<double>(bytes) / 1e6 / secondsSince(t),
                      "MB/s", "readFile over every file, one thread");
    }

    // ---- text ---------------------------------------------------------
    std::vector<TermBlock> blocks(files.size());
    {
        Scope span(tr, "text.extract_all", root);
        TermExtractor extractor(memfs);
        Clock::time_point t = Clock::now();
        for (std::size_t i = 0; i < files.size(); ++i)
            extractor.extract(files[i], blocks[i]);
        report.metric("text.extract_mb_per_s", mb / secondsSince(t), "MB/s",
                      "TermExtractor::extract, one thread");
    }

    // ---- index --------------------------------------------------------
    std::vector<TermBlock> replica_blocks = blocks;
    std::unique_ptr<IndexBackend> backend = makeBackend(Config::sequential());
    {
        Scope span(tr, "index.add_blocks", root);
        Clock::time_point t = Clock::now();
        for (TermBlock &b : blocks)
            backend->addBlock(std::move(b));
        report.metric("index.update_ms", msSince(t), "ms",
                      "IndexBackend::addBlock over pre-extracted blocks");
    }
    blocks.clear();
    blocks.shrink_to_fit();
    std::vector<InvertedIndex> single = backend->release();
    IndexSnapshot sealed;
    {
        const double postings =
            static_cast<double>(single.front().postingCount());
        Scope span(tr, "index.seal", root);
        Clock::time_point t = Clock::now();
        sealed = IndexSnapshot::seal(std::move(single.front()));
        report.metric("index.seal_postings_per_s",
                      postings / secondsSince(t), "1/s",
                      "IndexSnapshot::seal, packed");
    }
    {
        const unsigned lanes = fixed::x;
        std::unique_ptr<IndexBackend> replicated =
            makeBackend(Config::replicatedNoJoin(lanes));
        for (TermBlock &b : replica_blocks)
            replicated->addBlock(std::move(b), b.doc % lanes);
        replica_blocks.clear();
        replica_blocks.shrink_to_fit();
        std::vector<InvertedIndex> replicas = replicated->release();
        Scope span(tr, "index.join", root);
        Clock::time_point t = Clock::now();
        InvertedIndex joined =
            joinParallel(std::move(replicas), fixed::z);
        report.metric("index.join_ms", msSince(t), "ms",
                      "joinParallel of " + std::to_string(lanes)
                          + " replicas, " + std::to_string(fixed::z)
                          + " threads");
    }
    std::string blob;
    DocTable docs = DocTable::fromFileList(files);
    report.metric("index.save_ms",
                  timedMedian(tr, "index.save", root, 3,
                              [&] { blob = saveBlob(sealed, docs); }),
                  "ms", "saveSnapshot to memory, median of 3");
    report.metric("index.load_ms",
                  timedMedian(tr, "index.load", root, 3,
                              [&] {
                                  IndexSnapshot s;
                                  DocTable d;
                                  loadBlob(blob, s, d);
                              }),
                  "ms", "loadSnapshot from memory, median of 3");
    report.metric("index.bytes_per_posting",
                  static_cast<double>(blob.size())
                      / static_cast<double>(sealed.postingCount()),
                  "bytes");

    // ---- pipeline / core ---------------------------------------------
    double sequential_s = 0.0;
    {
        Scope span(tr, "pipeline.sequential_build", root);
        Clock::time_point t = Clock::now();
        Engine::open(memfs, corpus_root).build();
        sequential_s = secondsSince(t);
    }
    Engine engine = parallelEngine(memfs, corpus_root);
    Engine::Result built;
    const double parallel_ms =
        timedMedian(tr, "pipeline.parallel_build", root, 2,
                    [&] { built = engine.build(); });
    report.metric("pipeline.sequential_build_s", sequential_s, "s");
    report.metric("pipeline.parallel_speedup",
                  sequential_s / (parallel_ms / 1000.0), "ratio",
                  "sequential / Implementation 2 ("
                      + std::to_string(fixed::x) + ","
                      + std::to_string(fixed::y) + ","
                      + std::to_string(fixed::z) + ")");

    // ---- search -------------------------------------------------------
    Searcher direct(built.snapshot, built.docs.docCount());
    RankedSearcher ranked(built.snapshot, built.docs);
    std::vector<QueryPlan> plans;
    {
        Scope span(tr, "search.compile_all", root);
        Clock::time_point t = Clock::now();
        for (const MixQuery &q : mix.distinct) {
            plans.push_back(QueryPlan::compile(
                Query::parse(q.text),
                [&](const std::string &term) { return ranked.df(term); }));
        }
        report.metric("search.compile_us",
                      secondsSince(t) * 1e6
                          / static_cast<double>(mix.distinct.size()),
                      "us", "Query::parse + QueryPlan::compile, mean");
    }
    const std::size_t exec_n =
        std::min<std::size_t>(mix.stream.size(), 20000);
    {
        Scope span(tr, "search.direct_exec", root);
        std::vector<double> exec_us, hits;
        std::uint64_t blocks_decoded = 0;
        std::unordered_set<std::uint64_t> seen;
        std::size_t repeats = 0;
        Clock::time_point budget = Clock::now();
        std::size_t i = 0;
        for (; i < exec_n && (i < 500 || secondsSince(budget) < window);
             ++i) {
            const std::uint32_t q = mix.stream[i];
            repeats += seen.insert(plans[q].fingerprint()).second ? 0 : 1;
            std::uint64_t b0 = postingBlocksDecoded();
            Clock::time_point t = Clock::now();
            std::size_t n = mix.distinct[q].ranked
                ? ranked.topK(plans[q], fixed::top_k).size()
                : direct.run(plans[q]).size();
            exec_us.push_back(secondsSince(t) * 1e6);
            blocks_decoded += postingBlocksDecoded() - b0;
            hits.push_back(static_cast<double>(n));
        }
        const std::string n = "n=" + std::to_string(i);
        report.metric("search.exec_p50_us", median(exec_us), "us", n);
        report.metric("search.exec_p99_us", quantile(exec_us, 0.99), "us",
                      n);
        report.metric("search.blocks_per_query",
                      static_cast<double>(blocks_decoded)
                          / static_cast<double>(i),
                      "count", "postingBlocksDecoded() delta, mean");
        report.metric("search.hits_per_query", median(hits), "count",
                      "median; p10 " + std::to_string(quantile(hits, 0.1))
                          + " p90 " + std::to_string(quantile(hits, 0.9)));
        report.metric("search.repeat_share",
                      static_cast<double>(repeats) / static_cast<double>(i),
                      "ratio", "stream queries whose plan was seen before");
    }

    Expected expected = expectedAnswers(mix, built.snapshot, built.docs,
                                        fixed::top_k);
    QueryServer server(built.snapshot, built.docs, serverOptions());
    const std::size_t rt_n = 2000;
    std::vector<double> server_us;
    {
        Scope span(tr, "search.server_round_trips", root);
        // Direct and server times of the same queries, interleaved.
        std::vector<double> direct_us;
        for (std::size_t i = 0; i < rt_n; ++i) {
            const MixQuery &q = mix.distinct[mix.stream[i]];
            Clock::time_point t = Clock::now();
            if (q.ranked)
                ranked.topK(Query::parse(q.text), fixed::top_k);
            else
                direct.run(Query::parse(q.text));
            direct_us.push_back(secondsSince(t) * 1e6);
            t = Clock::now();
            if (q.ranked)
                server.submitRanked(Query::parse(q.text), fixed::top_k)
                    .get();
            else
                server.submit(Query::parse(q.text)).get();
            server_us.push_back(secondsSince(t) * 1e6);
        }
        report.metric("search.server_overhead_us",
                      median(server_us) - median(direct_us), "us",
                      "QueryServer round trip p50 - direct p50, same "
                      "queries");
    }
    ServerTarget server_target(server);
    {
        Scope span(tr, "search.stream", root);
        StreamResult r = runStream(server_target, mix, expected,
                                   opts.ref_rate, window, 0, tr, span.id());
        reportStream(r, "ladder.serve", report);
        report.metric("search.backlog_max",
                      static_cast<double>(r.backlog_max), "count",
                      "peak outstanding at the reference rate");
        report.metric("search.gen_late_ms", r.gen_late_p99_ms, "ms",
                      "generator lateness p99");
    }

    // ---- shard --------------------------------------------------------
    std::unique_ptr<Broker> broker;
    {
        Scope span(tr, "shard.plan_build", root);
        broker = std::make_unique<Broker>(
            ShardPlanner::build(memfs, corpus_root, shardPlanOptions()),
            brokerOptions());
    }
    {
        Scope span(tr, "shard.round_trips", root);
        std::vector<double> broker_us = roundTrips(
            mix, rt_n, [&](const MixQuery &q) {
                if (q.ranked)
                    broker
                        ->submitRanked(Query::parse(q.text), fixed::top_k)
                        .get();
                else
                    broker->submit(Query::parse(q.text)).get();
            });
        report.metric("shard.fanout_overhead_us",
                      median(broker_us) - median(server_us), "us",
                      "Broker round trip p50 - QueryServer p50, same "
                      "queries");
    }
    broker->resetStats();
    {
        BrokerTarget target(*broker);
        Scope span(tr, "shard.stream", root);
        StreamResult r = runStream(target, mix, expected, opts.ref_rate,
                                   window, 0, tr, span.id());
        reportStream(r, "ladder.sharded", report);
    }
    {
        BrokerStats stats = broker->stats();
        report.metric("shard.shard_p99_ms", stats.shard_latency.p99 * 1000.0,
                      "ms", "Broker::stats().shard_latency");
        report.metric("shard.partial_share",
                      stats.completed == 0
                          ? 0.0
                          : static_cast<double>(stats.partial)
                              / static_cast<double>(stats.completed),
                      "ratio");
    }

    // ---- live ---------------------------------------------------------
    {
        Scope span(tr, "live.setup", root);
        live_setup.start(opts, mix.distinct[0].text);
    }
    LiveResult writes;
    {
        Scope span(tr, "live.writes", root);
        runLiveWrites(live_setup, opts, window * 2.0, tr, span.id(), report,
                      writes);
    }
    reportLiveWrites(writes, report);

    // ---- tracing overhead: the workload's own number, twice ---------
    Expected unchecked = expected;
    unchecked.check = false; // live answers change under the writes
    ServerTarget live_target(*live_setup.server);
    BrokerTarget broker_target(*broker);
    auto measure = [&](Tracer *t) -> double {
        if (opts.workload == "build") {
            return timedMedian(t, "pipeline.parallel_build", root, 2,
                               [&] { engine.build(); });
        }
        Target *target = &server_target;
        if (opts.workload == "sharded")
            target = &broker_target;
        else if (opts.workload == "live")
            target = &live_target;
        return runStream(*target, mix,
                         opts.workload == "live" ? unchecked : expected,
                         opts.ref_rate, window, 0, t, root)
            .p50_ms;
    };
    const double untraced = measure(nullptr);
    const double traced = measure(tr);
    report.metric("trace.overhead_pct", (traced - untraced) / untraced * 100,
                  "%", "traced vs untraced op p50, same process");
    server.shutdown();
    tracer.end(root);

    for (const auto &[layer, ms] : tracer.selfTimeByLayer())
        report.metric("self." + layer + "_ms", ms, "ms", "span self time");
    std::filesystem::create_directories(opts.work_dir);
    const std::string path = opts.work_dir + "/trace-" + opts.workload + "-"
        + std::to_string(opts.seed) + ".jsonl";
    report.check("trace.written", tracer.write(path), path);
    report.metric("trace.spans", static_cast<double>(tracer.spans().size()),
                  "count");
}

} // namespace perfbench
