/**
 * @file
 * Tests for the Engine facade (core/engine.hh): fluent configuration,
 * snapshot shape per organization, and the serialize -> snapshot ->
 * cursor round-trip.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/engine.hh"
#include "fs/corpus.hh"
#include "fs/memory_fs.hh"
#include "index/serialize.hh"
#include "search/multi_searcher.hh"
#include "search/searcher.hh"

namespace dsearch {
namespace {

TEST(Engine, DefaultBuildIsSequentialUnified)
{
    MemoryFs fs;
    fs.addFile("/a.txt", "alpha beta");
    fs.addFile("/b.txt", "beta gamma");

    Engine::Result result = Engine::open(fs, "/").build();
    EXPECT_EQ(result.config.impl, Implementation::Sequential);
    EXPECT_TRUE(result.snapshot.unified());
    EXPECT_EQ(result.docs.docCount(), 2u);
    EXPECT_EQ(result.snapshot.termCount(), 3u);
    EXPECT_EQ(result.snapshot.cursor("beta").toDocSet(),
              (std::vector<DocId>{0, 1}));
    EXPECT_GT(result.times.total, 0.0);
    EXPECT_EQ(result.extraction.files, 2u);
}

TEST(Engine, StageTimesPartsFitInsideTheTotal)
{
    auto fs = CorpusGenerator(CorpusSpec::tiny(4)).generateInMemory();
    for (const Config &cfg :
         {Config::sequential(), Config::sharedLocked(3),
          Config::replicatedJoin(3, 0, 2), Config::replicatedJoin(2, 2, 1),
          Config::replicatedNoJoin(3)}) {
        Engine::Result built = Engine::open(*fs, "/").config(cfg).build();
        const StageTimes &t = built.times;
        // The seal is timed, and inside the total with every other
        // (non-overlapping, Stage 1 not pipelined) phase.
        EXPECT_GT(t.seal, 0.0) << cfg.describe();
        EXPECT_GE(t.join, 0.0) << cfg.describe();
        EXPECT_LE(t.filename_generation + t.read_and_extract
                      + t.index_update + t.join + t.seal,
                  t.total)
            << cfg.describe();
    }
}

TEST(Engine, FluentKnobsReachTheConfig)
{
    MemoryFs fs;
    fs.addFile("/a.txt", "one two");

    Engine engine = Engine::open(fs, "/")
                        .organization(Implementation::SharedLocked)
                        .threads(3, 2)
                        .lockShards(4)
                        .queueCapacity(64)
                        .enBloc(true)
                        .distribution(DistributionKind::SizeBalanced);
    EXPECT_EQ(engine.currentConfig().impl,
              Implementation::SharedLocked);
    EXPECT_EQ(engine.currentConfig().extractors, 3u);
    EXPECT_EQ(engine.currentConfig().updaters, 2u);
    EXPECT_EQ(engine.currentConfig().lock_shards, 4u);
    EXPECT_EQ(engine.currentConfig().queue_capacity, 64u);
    EXPECT_EQ(engine.currentConfig().distribution,
              DistributionKind::SizeBalanced);

    Engine::Result result = engine.build();
    EXPECT_TRUE(result.snapshot.unified());
    EXPECT_EQ(result.snapshot.termCount(), 2u);
}

TEST(Engine, ReplicatedJoinDefaultsToOneJoiner)
{
    MemoryFs fs;
    fs.addFile("/a.txt", "one");
    Engine::Result result =
        Engine::open(fs, "/")
            .organization(Implementation::ReplicatedJoin)
            .threads(2, 2) // z omitted
            .build();
    EXPECT_EQ(result.config.joiners, 1u);
    EXPECT_TRUE(result.snapshot.unified());
}

TEST(Engine, NoJoinKeepsOneSegmentPerReplica)
{
    auto fs = CorpusGenerator(CorpusSpec::tiny(5)).generateInMemory();
    Engine::Result result =
        Engine::open(*fs, "/")
            .organization(Implementation::ReplicatedNoJoin)
            .threads(2, 3)
            .build();
    EXPECT_EQ(result.snapshot.segmentCount(), 3u);
    MultiSearcher searcher(result.snapshot, result.docs.docCount());
    EXPECT_FALSE(searcher.run(Query::parse("ba")).empty());
}

TEST(Engine, RebuildIsIndependent)
{
    auto fs = CorpusGenerator(CorpusSpec::tiny(8)).generateInMemory();
    Engine engine = Engine::open(*fs, "/")
                        .organization(Implementation::ReplicatedJoin)
                        .threads(2, 2, 1);
    Engine::Result first = engine.build();
    Engine::Result second = engine.build();
    EXPECT_EQ(first.snapshot.termCount(),
              second.snapshot.termCount());
    EXPECT_EQ(first.snapshot.postingCount(),
              second.snapshot.postingCount());
}

TEST(Engine, SerializeSnapshotCursorRoundTrip)
{
    auto fs = CorpusGenerator(CorpusSpec::tiny(21)).generateInMemory();
    Engine::Result built =
        Engine::open(*fs, "/")
            .organization(Implementation::ReplicatedJoin)
            .threads(3, 2, 1)
            .build();

    std::stringstream stream;
    ASSERT_TRUE(saveSnapshot(built.snapshot, built.docs, stream));

    IndexSnapshot loaded;
    DocTable docs;
    ASSERT_TRUE(loadSnapshot(loaded, docs, stream));

    // Same shape...
    ASSERT_EQ(docs.docCount(), built.docs.docCount());
    ASSERT_EQ(loaded.termCount(), built.snapshot.termCount());
    ASSERT_EQ(loaded.postingCount(), built.snapshot.postingCount());

    // ...and cursor-identical content for every term.
    std::size_t checked = 0;
    built.snapshot.forEachTerm(
        [&](const std::string &term, PostingCursor original) {
            PostingCursor reloaded = loaded.cursor(term);
            EXPECT_EQ(reloaded.toDocSet(), original.toDocSet())
                << "term '" << term << "'";
            ++checked;
        });
    EXPECT_EQ(checked, built.snapshot.termCount());

    // Queries over the reloaded snapshot agree too.
    Searcher before(built.snapshot, built.docs.docCount());
    Searcher after(loaded, docs.docCount());
    for (const char *text : {"ba", "be OR bi", "NOT ba"}) {
        Query q = Query::parse(text);
        EXPECT_EQ(before.run(q), after.run(q)) << text;
    }
}

TEST(EngineDeath, SaveSnapshotRejectsMultiSegment)
{
    auto fs = CorpusGenerator(CorpusSpec::tiny(5)).generateInMemory();
    Engine::Result result =
        Engine::open(*fs, "/")
            .organization(Implementation::ReplicatedNoJoin)
            .threads(2, 2)
            .build();
    std::stringstream stream;
    EXPECT_DEATH(saveSnapshot(result.snapshot, result.docs, stream),
                 "multi-segment");
}

} // namespace
} // namespace dsearch
