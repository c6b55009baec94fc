/**
 * @file
 * End-to-end tests for the live incremental pipeline
 * (live/live_index.hh): change visibility through runCycle(),
 * compaction equivalence, crash recovery at every injected stage
 * (kill-mid-merge, kill-mid-publish, kill-mid-save), degraded mode,
 * bootstrap reconciliation, and hot-swap consistency under
 * concurrent queries + background threads (the check_tsan_live_index
 * centerpiece).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hh"
#include "fs/mutable_memory_fs.hh"
#include "live/live_index.hh"
#include "search/query_server.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace dsearch {
namespace {

namespace stdfs = std::filesystem;

/** Boolean query through the serving path; panics on rejection. */
DocSet
ask(QueryServer &server, const std::string &text)
{
    QueryResponse response =
        server.submit(Query::parse(text)).get();
    EXPECT_TRUE(response.ok) << response.error;
    return response.hits;
}

/** Ranked query through the serving path. */
std::vector<ScoredHit>
askRanked(QueryServer &server, const std::string &text, std::size_t k)
{
    QueryResponse response =
        server.submitRanked(Query::parse(text), k).get();
    EXPECT_TRUE(response.ok) << response.error;
    return response.ranked;
}

/** Resolve boolean hits to paths via the serving DocTable. */
std::vector<std::string>
askPaths(QueryServer &server, const std::string &text)
{
    std::shared_ptr<const ServingState> state = server.serving();
    std::vector<std::string> paths;
    for (DocId doc : ask(server, text))
        paths.push_back(state->docs.path(doc));
    return paths;
}

class LiveIndexTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        disarmAllFaults();
        setLogLevel(LogLevel::Silent);
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        _dir = ::testing::TempDir() + "dsearch_live_" + info->name();
        std::error_code ec;
        stdfs::remove_all(_dir, ec);

        _fs.addFile("/docs/a.txt", "apple pie");
        _fs.addFile("/docs/b.txt", "apple cherry");
        _fs.addFile("/docs/c.txt", "banana");
    }

    void
    TearDown() override
    {
        disarmAllFaults();
        std::error_code ec;
        stdfs::remove_all(_dir, ec);
    }

    /** Build the base, adopt it into server + live. */
    std::unique_ptr<LiveIndex>
    makeLive(QueryServer &server, SnapshotStore *store,
             LiveIndexOptions options = {})
    {
        auto live = std::make_unique<LiveIndex>(
            _fs, "/", server, store, options);
        live->adopt(Engine::open(_fs, "/").build());
        return live;
    }

    MutableMemoryFs _fs;
    std::string _dir;
};

TEST_F(LiveIndexTest, AdoptServesTheBaseBuild)
{
    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    auto live = makeLive(server, nullptr);

    EXPECT_EQ(ask(server, "apple").size(), 2u);
    EXPECT_EQ(askPaths(server, "banana"),
              (std::vector<std::string>{"/docs/c.txt"}));
    EXPECT_EQ(askRanked(server, "apple OR banana", 5).size(), 3u);
    EXPECT_EQ(live->stats().doc_count, 3u);
}

TEST_F(LiveIndexTest, CycleMakesChangesVisible)
{
    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    auto live = makeLive(server, nullptr);

    // Create.
    _fs.addFile("/docs/d.txt", "durian apple");
    EXPECT_TRUE(live->runCycle());
    EXPECT_EQ(ask(server, "durian").size(), 1u);
    EXPECT_EQ(ask(server, "apple").size(), 3u);

    // Modify (same size as the original to exercise mtime detection).
    _fs.addFile("/docs/c.txt", "cocoa!");
    EXPECT_TRUE(live->runCycle());
    EXPECT_TRUE(ask(server, "banana").empty());
    EXPECT_EQ(askPaths(server, "cocoa"),
              (std::vector<std::string>{"/docs/c.txt"}));

    // Delete; the doc vanishes from positive AND negative queries.
    _fs.removeFile("/docs/a.txt");
    EXPECT_TRUE(live->runCycle());
    EXPECT_EQ(ask(server, "pie").size(), 0u);
    DocSet everything = ask(server, "NOT zzzznothing");
    EXPECT_EQ(everything.size(), 3u); // b, c-new, d

    // Idle cycle: no change, no publish.
    LiveStats before = live->stats();
    EXPECT_FALSE(live->runCycle());
    EXPECT_EQ(live->stats().publishes, before.publishes);

    EXPECT_GE(live->stats().deltas_built, 2u);
    EXPECT_EQ(live->stats().tombstones, 2u); // old c + deleted a
}

TEST_F(LiveIndexTest, LayerTimesGrowAndFitInsideCycles)
{
    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    auto live = makeLive(server, nullptr);
    LiveStats prev = live->stats();
    EXPECT_EQ(prev.scan_seconds, 0.0); // adopt() is not a cycle
    EXPECT_EQ(prev.delta_seconds, 0.0);
    EXPECT_EQ(prev.publish_seconds, 0.0);

    double wall = 0.0;
    for (int cycle = 0; cycle < 12; ++cycle) {
        if (cycle % 3 != 2) // every third cycle is idle
            _fs.addFile("/docs/n" + std::to_string(cycle) + ".txt",
                        "fresh words cycle" + std::to_string(cycle));
        if (cycle == 7)
            _fs.removeFile("/docs/b.txt");
        if (cycle == 10)
            armFault("live.delta_build", {.fire_limit = 1});
        Timer timer;
        live->runCycle();
        wall += timer.elapsedSec();

        LiveStats now = live->stats();
        EXPECT_GT(now.scan_seconds, prev.scan_seconds); // every cycle
        EXPECT_GE(now.delta_seconds, prev.delta_seconds);
        EXPECT_GE(now.publish_seconds, prev.publish_seconds);
        if (now.deltas_built > prev.deltas_built) {
            EXPECT_GT(now.delta_seconds, prev.delta_seconds);
        }
        if (now.publishes > prev.publishes) {
            EXPECT_GT(now.publish_seconds, prev.publish_seconds);
        }
        prev = now;
    }
    EXPECT_EQ(prev.failed_deltas, 1u);
    EXPECT_GT(prev.delta_seconds, 0.0);
    EXPECT_GT(prev.publish_seconds, 0.0);
    EXPECT_LE(prev.scan_seconds + prev.delta_seconds
                  + prev.publish_seconds,
              wall);

    // Compaction publishes, but is not a cycle layer.
    live->compactNow();
    EXPECT_EQ(live->stats().publish_seconds, prev.publish_seconds);
}

TEST_F(LiveIndexTest, PublishedDocTablesStayReadableWhileLiveAppends)
{
    // Each generation's DocTable shares its full chunks with the live
    // index's table, which keeps appending. Readers hold published
    // generations and re-read every path while cycles append more
    // than DocTable::chunk_docs documents (TSan: check_tsan_live_index).
    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    auto live = makeLive(server, nullptr);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> bad{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                std::shared_ptr<const ServingState> state =
                    server.serving();
                const DocTable &docs = state->docs;
                for (DocId doc = 0; doc < docs.docCount(); ++doc) {
                    const std::string &path = docs.path(doc);
                    if (path.rfind("/docs/", 0) != 0
                        && path.rfind("/grow/", 0) != 0)
                        bad.fetch_add(1);
                }
            }
        });
    }

    const std::size_t files = DocTable::chunk_docs * 2 + 40;
    for (std::size_t i = 0; i < files; ++i) {
        _fs.addFile("/grow/f" + std::to_string(i) + ".txt",
                    "grow" + std::to_string(i % 7));
        if (i % 37 == 36)
            live->runCycle();
    }
    live->runCycle();
    stop.store(true);
    for (std::thread &reader : readers)
        reader.join();

    EXPECT_EQ(bad.load(), 0u);
    std::shared_ptr<const ServingState> state = server.serving();
    EXPECT_EQ(state->docs.docCount(), 3 + files);
    std::set<std::string> want, got;
    for (std::size_t i = 0; i < files; ++i)
        want.insert("/grow/f" + std::to_string(i) + ".txt");
    for (DocId doc = 3; doc < state->docs.docCount(); ++doc)
        got.insert(state->docs.path(doc));
    EXPECT_EQ(got, want);
    EXPECT_EQ(ask(server, "grow3").size(), files / 7 + (files % 7 > 3));
}

TEST_F(LiveIndexTest, CompactionPreservesAnswersAndPersists)
{
    SnapshotStore store(_dir, {.sync = false});
    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    auto live = makeLive(server, &store);
    std::uint64_t adopted_gen = live->stats().generation;
    EXPECT_GT(adopted_gen, 0u);

    _fs.addFile("/docs/d.txt", "durian");
    _fs.addFile("/docs/e.txt", "elderberry apple");
    EXPECT_TRUE(live->runCycle());
    _fs.removeFile("/docs/c.txt");
    EXPECT_TRUE(live->runCycle());

    DocSet apple_before = ask(server, "apple");
    DocSet not_apple_before = ask(server, "NOT apple");
    auto ranked_before = askRanked(server, "apple OR durian", 10);

    ASSERT_TRUE(live->compactNow());
    LiveStats stats = live->stats();
    EXPECT_EQ(stats.merges, 1u);
    EXPECT_EQ(stats.pending_deltas, 0u);
    EXPECT_FALSE(stats.degraded);
    EXPECT_GT(stats.generation, adopted_gen);

    // Same questions, same answers — compaction must be invisible.
    EXPECT_EQ(ask(server, "apple"), apple_before);
    EXPECT_EQ(ask(server, "NOT apple"), not_apple_before);
    auto ranked_after = askRanked(server, "apple OR durian", 10);
    ASSERT_EQ(ranked_after.size(), ranked_before.size());
    for (std::size_t i = 0; i < ranked_after.size(); ++i)
        EXPECT_EQ(ranked_after[i].doc, ranked_before[i].doc);

    // The compacted generation is on disk and loads.
    IndexSnapshot snapshot;
    DocTable docs;
    EXPECT_EQ(store.load(snapshot, docs), stats.generation);
}

TEST_F(LiveIndexTest, TombstonedDocsStayDeadAfterCompaction)
{
    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    auto live = makeLive(server, nullptr);

    _fs.removeFile("/docs/b.txt");
    EXPECT_TRUE(live->runCycle());
    _fs.addFile("/docs/n.txt", "nectarine");
    EXPECT_TRUE(live->runCycle());
    ASSERT_TRUE(live->compactNow());

    EXPECT_EQ(ask(server, "cherry").size(), 0u);
    // The resurrection check: /docs/b.txt's DocId is still in the
    // table but must not surface through NOT after its postings were
    // compacted away.
    for (const std::string &path :
         askPaths(server, "NOT zzzzmissing"))
        EXPECT_NE(path, "/docs/b.txt");
}

TEST_F(LiveIndexTest, KillMidPublishIsRepublishedNextCycle)
{
    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    auto live = makeLive(server, nullptr);

    _fs.addFile("/docs/d.txt", "durian");
    {
        ScopedFault fault("live.publish", {.fire_limit = 1});
        EXPECT_TRUE(live->runCycle());
        EXPECT_EQ(fault.fires(), 1u);
    }
    // The delta committed but the swap was skipped: queries still see
    // the old generation.
    EXPECT_EQ(live->stats().skipped_publishes, 1u);
    EXPECT_TRUE(ask(server, "durian").empty());

    // The next cycle — with NO new filesystem changes — notices the
    // pending publish and performs it.
    EXPECT_FALSE(live->runCycle()); // no new mutation...
    EXPECT_EQ(ask(server, "durian").size(), 1u); // ...yet republished
}

TEST_F(LiveIndexTest, MergeRetryThenDegradeThenRecover)
{
    SnapshotStore store(_dir, {.sync = false});
    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    LiveIndexOptions options;
    options.merge_retries = 2;
    options.retry_backoff_sec = 0.0005;
    auto live = makeLive(server, &store, options);

    _fs.addFile("/docs/d.txt", "durian");
    EXPECT_TRUE(live->runCycle());

    // One transient failure: the retry succeeds.
    {
        ScopedFault fault("live.merge", {.fire_limit = 1});
        EXPECT_TRUE(live->compactNow());
    }
    LiveStats stats = live->stats();
    EXPECT_EQ(stats.merges, 1u);
    EXPECT_EQ(stats.merge_failures, 1u);
    EXPECT_FALSE(stats.degraded);

    // Persistent failure: retries exhaust, the pipeline degrades —
    // but serving continues and deltas stay pending.
    _fs.addFile("/docs/e.txt", "elderberry");
    EXPECT_TRUE(live->runCycle());
    {
        ScopedFault fault("live.merge");
        EXPECT_FALSE(live->compactNow());
    }
    stats = live->stats();
    EXPECT_TRUE(stats.degraded);
    EXPECT_FALSE(stats.last_error.empty());
    EXPECT_GE(stats.pending_deltas, 1u);
    EXPECT_EQ(ask(server, "elderberry").size(), 1u); // still serving

    // Fault cleared: the next compaction catches up and the degraded
    // flag lifts.
    EXPECT_TRUE(live->compactNow());
    stats = live->stats();
    EXPECT_FALSE(stats.degraded);
    EXPECT_TRUE(stats.last_error.empty());
    EXPECT_EQ(stats.pending_deltas, 0u);
}

TEST_F(LiveIndexTest, KillMidSaveKeepsServingOldGeneration)
{
    SnapshotStore store(_dir, {.sync = false});
    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    LiveIndexOptions options;
    options.merge_retries = 1;
    auto live = makeLive(server, &store, options);
    std::uint64_t adopted_gen = live->stats().generation;

    _fs.addFile("/docs/d.txt", "durian");
    EXPECT_TRUE(live->runCycle());

    // The save "crashes" mid-write: compaction must count as failed,
    // the in-memory state must be untouched, and the store must still
    // load the adopted generation.
    {
        ScopedFault fault("snapshot_store.crash_mid_write",
                          {.fire_limit = 1});
        EXPECT_FALSE(live->compactNow());
    }
    LiveStats stats = live->stats();
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.generation, adopted_gen);
    EXPECT_GE(stats.pending_deltas, 1u);
    EXPECT_EQ(ask(server, "durian").size(), 1u); // deltas still serve

    IndexSnapshot snapshot;
    DocTable docs;
    EXPECT_EQ(store.load(snapshot, docs), adopted_gen);

    // Retry without the fault: full recovery.
    EXPECT_TRUE(live->compactNow());
    EXPECT_GT(live->stats().generation, adopted_gen);
}

TEST_F(LiveIndexTest, BootstrapRecoversAndReconciles)
{
    std::uint64_t saved_gen = 0;
    {
        SnapshotStore store(_dir, {.sync = false});
        QueryServer server(IndexSnapshot{}, DocTable{}, {});
        auto live = makeLive(server, &store);
        _fs.addFile("/docs/d.txt", "durian");
        EXPECT_TRUE(live->runCycle());
        ASSERT_TRUE(live->compactNow());
        saved_gen = live->stats().generation;
        // Process "dies" here; the store survives.
    }

    // Changes while down: one edit, one create, one delete.
    _fs.addFile("/docs/a.txt", "apricot tart");
    _fs.addFile("/docs/e.txt", "elderberry");
    _fs.removeFile("/docs/c.txt");

    SnapshotStore store(_dir, {.sync = false});
    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    LiveIndex live(_fs, "/", server, &store);
    EXPECT_EQ(live.bootstrap(), saved_gen);

    // Recovered base + first-cycle reconciliation, all visible.
    EXPECT_EQ(ask(server, "durian").size(), 1u);   // recovered
    EXPECT_EQ(ask(server, "apricot").size(), 1u);  // edit while down
    EXPECT_EQ(ask(server, "elderberry").size(), 1u); // created
    EXPECT_TRUE(ask(server, "banana").empty());    // deleted
    EXPECT_TRUE(ask(server, "pie").empty());       // old /docs/a.txt
}

TEST_F(LiveIndexTest, BootstrapWithEmptyStoreStartsFresh)
{
    SnapshotStore store(_dir, {.sync = false});
    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    LiveIndex live(_fs, "/", server, &store);
    EXPECT_EQ(live.bootstrap(), 0u);

    // The whole corpus arrives as the first delta.
    EXPECT_EQ(ask(server, "apple").size(), 2u);
    EXPECT_EQ(ask(server, "banana").size(), 1u);
    EXPECT_GE(live.stats().deltas_built, 1u);
}

/**
 * The hot-swap consistency centerpiece: a writer rewrites a PAIR of
 * files with a fresh marker each round (one publish covers both), a
 * query thread hammers boolean + ranked queries for the invariant
 * that every response sees a complete pair — pre-swap or post-swap,
 * never a mix — and background scanner/merger threads do the
 * publishing and compacting. TSan runs this test for the data-race
 * half of the guarantee.
 */
TEST_F(LiveIndexTest, HotSwapNeverTearsUnderConcurrentQueries)
{
    _fs.addFile("/pair/x.txt", "pair round0");
    _fs.addFile("/pair/y.txt", "pair round0");

    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    LiveIndexOptions options;
    options.scan_interval_sec = 0.001;
    options.merge_threshold = 3;
    auto live = makeLive(server, nullptr, options);
    live->start();

    std::atomic<bool> stop{false};
    std::thread querier([&] {
        while (!stop.load()) {
            // Every alive generation has exactly 2 docs matching
            // "pair": a torn publish (delta without tombstones, or
            // half a pair) would show 1, 3 or 4.
            QueryResponse boolean =
                server.submit(Query::parse("pair")).get();
            ASSERT_TRUE(boolean.ok) << boolean.error;
            EXPECT_EQ(boolean.hits.size(), 2u);

            QueryResponse ranked =
                server.submitRanked(Query::parse("pair"), 10).get();
            ASSERT_TRUE(ranked.ok) << ranked.error;
            EXPECT_EQ(ranked.ranked.size(), 2u);
        }
    });

    for (int round = 1; round <= 30; ++round) {
        std::string body = "pair round" + std::to_string(round);
        _fs.addFile("/pair/x.txt", body);
        _fs.addFile("/pair/y.txt", body);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
    querier.join();
    live->stop();

    // Settle: a final synchronous cycle + compaction, then the last
    // round must be what serves.
    live->runCycle();
    live->compactNow();
    EXPECT_EQ(ask(server, "round30").size(), 2u);
    LiveStats stats = live->stats();
    EXPECT_GT(stats.scans, 0u);
    EXPECT_GT(stats.publishes, 0u);
    EXPECT_GT(server.stats().swaps, 1u);
}

/** Background threads + store + faults firing probabilistically:
 *  the pipeline must neither crash nor wedge, and must converge once
 *  faults clear. */
TEST_F(LiveIndexTest, BackgroundThreadsSurviveFaultStorm)
{
    SnapshotStore store(_dir, {.sync = false});
    QueryServer server(IndexSnapshot{}, DocTable{}, {});
    LiveIndexOptions options;
    options.scan_interval_sec = 0.001;
    options.merge_threshold = 2;
    options.merge_retries = 2;
    options.retry_backoff_sec = 0.0005;
    auto live = makeLive(server, &store, options);
    live->start();

    armFault("live.scan", {.probability = 0.2, .seed = 7});
    armFault("live.merge", {.probability = 0.3, .seed = 11});
    armFault("live.publish", {.probability = 0.2, .seed = 13});

    for (int round = 0; round < 20; ++round) {
        _fs.addFile("/churn/f" + std::to_string(round % 5) + ".txt",
                    "storm round" + std::to_string(round));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    disarmAllFaults();
    live->stop();

    // Converge synchronously and verify the end state is exact.
    live->runCycle();
    live->runCycle(); // republish if the last publish was skipped
    live->compactNow();
    EXPECT_EQ(ask(server, "storm").size(), 5u);
    EXPECT_EQ(ask(server, "round19").size(), 1u);
    EXPECT_FALSE(live->stats().degraded);
}

} // namespace
} // namespace dsearch
