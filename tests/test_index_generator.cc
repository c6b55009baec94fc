/**
 * @file
 * Unit and property tests for the index generator
 * (core/index_generator.hh).
 *
 * The central property: every parallel organization must produce an
 * index (or replica set) whose merged contents equal the sequential
 * index, for any thread configuration.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/index_generator.hh"
#include "fs/corpus.hh"
#include "index/index_join.hh"
#include "index/serialize.hh"
#include "util/logging.hh"

namespace dsearch {
namespace {

/** Shared tiny corpus for all tests in this file. */
class IndexGeneratorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        CorpusSpec spec = CorpusSpec::tiny(11);
        _fs = CorpusGenerator(spec).generateInMemory().release();
        IndexGenerator sequential(*_fs, "/", Config::sequential());
        _reference = new BuildResult(sequential.build());
        _reference->primary().sortPostings();
    }

    static void
    TearDownTestSuite()
    {
        delete _reference;
        _reference = nullptr;
        delete _fs;
        _fs = nullptr;
    }

    /** Merge a result's indices and compare with the reference. */
    static void
    expectEquivalent(BuildResult result)
    {
        InvertedIndex merged =
            joinSequential(std::move(result.indices));
        merged.sortPostings();
        EXPECT_TRUE(sameContents(merged, _reference->primary()))
            << "divergent index for " << result.config.describe();
        EXPECT_EQ(result.docs.docCount(),
                  _reference->docs.docCount());
    }

    static MemoryFs *_fs;
    static BuildResult *_reference;
};

MemoryFs *IndexGeneratorTest::_fs = nullptr;
BuildResult *IndexGeneratorTest::_reference = nullptr;

TEST_F(IndexGeneratorTest, SequentialBuildIsSane)
{
    const BuildResult &r = *_reference;
    EXPECT_EQ(r.indices.size(), 1u);
    EXPECT_GT(r.primary().termCount(), 0u);
    EXPECT_GT(r.primary().postingCount(), r.primary().termCount());
    EXPECT_EQ(r.docs.docCount(), CorpusSpec::tiny(11).file_count);
    EXPECT_EQ(r.extraction.files, r.docs.docCount());
    EXPECT_EQ(r.extraction.read_errors, 0u);
    EXPECT_GT(r.extraction.tokens, r.extraction.unique_terms);
}

TEST_F(IndexGeneratorTest, SequentialStageTimesPopulated)
{
    const StageTimes &t = _reference->times;
    EXPECT_GT(t.total, 0.0);
    EXPECT_GE(t.filename_generation, 0.0);
    EXPECT_GT(t.read_and_extract, 0.0);
    EXPECT_GT(t.index_update, 0.0);
    EXPECT_EQ(t.join, 0.0);
    EXPECT_LE(t.filename_generation + t.read_and_extract
                  + t.index_update,
              t.total * 1.5);
}

TEST_F(IndexGeneratorTest, SequentialIsDeterministic)
{
    IndexGenerator generator(*_fs, "/", Config::sequential());
    BuildResult again = generator.build();
    again.primary().sortPostings();
    EXPECT_TRUE(
        sameContents(again.primary(), _reference->primary()));
}

TEST_F(IndexGeneratorTest, Impl1DirectInsertEquivalent)
{
    IndexGenerator generator(*_fs, "/", Config::sharedLocked(4, 0));
    BuildResult result = generator.build();
    EXPECT_EQ(result.indices.size(), 1u);
    expectEquivalent(std::move(result));
}

TEST_F(IndexGeneratorTest, Impl1BufferedEquivalent)
{
    IndexGenerator generator(*_fs, "/", Config::sharedLocked(3, 2));
    BuildResult result = generator.build();
    EXPECT_EQ(result.indices.size(), 1u);
    expectEquivalent(std::move(result));
}

TEST_F(IndexGeneratorTest, Impl2JoinsToSingleIndex)
{
    IndexGenerator generator(*_fs, "/",
                             Config::replicatedJoin(3, 2, 2));
    BuildResult result = generator.build();
    EXPECT_EQ(result.indices.size(), 1u);
    EXPECT_GE(result.times.join, 0.0);
    expectEquivalent(std::move(result));
}

TEST_F(IndexGeneratorTest, SnapshotOutputSealsWhatIndicesOutputReleases)
{
    // One result type, two finalizations: Snapshot fills `snapshot`
    // (the merge-and-pack seal) and leaves `indices` empty; Indices
    // does the reverse, and sealing its release gives the same bytes.
    IndexGenerator generator(*_fs, "/",
                             Config::replicatedJoin(3, 2, 2));
    BuildResult sealed = generator.build(BuildOutput::Snapshot);
    EXPECT_TRUE(sealed.indices.empty());
    EXPECT_EQ(sealed.snapshot.segmentCount(), 1u);
    EXPECT_LE(sealed.times.join + sealed.times.seal, sealed.times.total);

    BuildResult released = generator.build(BuildOutput::Indices);
    EXPECT_EQ(released.snapshot.segmentCount(), 0u);
    ASSERT_EQ(released.indices.size(), 1u);
    EXPECT_EQ(released.times.seal, 0.0);
    released.sealIndices();
    EXPECT_TRUE(released.indices.empty());

    std::ostringstream a, b;
    ASSERT_TRUE(saveSnapshot(sealed.snapshot, sealed.docs, a));
    ASSERT_TRUE(saveSnapshot(released.snapshot, released.docs, b));
    EXPECT_EQ(a.str(), b.str());
}

TEST_F(IndexGeneratorTest, Impl3KeepsReplicas)
{
    Config cfg = Config::replicatedNoJoin(4, 2);
    IndexGenerator generator(*_fs, "/", cfg);
    BuildResult result = generator.build();
    EXPECT_EQ(result.indices.size(), cfg.replicaCount());
    expectEquivalent(std::move(result));
}

TEST_F(IndexGeneratorTest, Impl3ExtractorReplicas)
{
    Config cfg = Config::replicatedNoJoin(5, 0);
    IndexGenerator generator(*_fs, "/", cfg);
    BuildResult result = generator.build();
    EXPECT_EQ(result.indices.size(), 5u);
    expectEquivalent(std::move(result));
}

TEST_F(IndexGeneratorTest, PipelinedStage1Equivalent)
{
    Config cfg = Config::replicatedNoJoin(3, 0);
    cfg.pipelined_stage1 = true;
    IndexGenerator generator(*_fs, "/", cfg);
    BuildResult result = generator.build();
    EXPECT_EQ(result.docs.docCount(), _reference->docs.docCount());
    expectEquivalent(std::move(result));
}

TEST_F(IndexGeneratorTest, PipelinedStage1SharedIndex)
{
    Config cfg = Config::sharedLocked(2, 1);
    cfg.pipelined_stage1 = true;
    IndexGenerator generator(*_fs, "/", cfg);
    expectEquivalent(generator.build());
}

TEST_F(IndexGeneratorTest, ImmediateModeSequentialEquivalent)
{
    Config cfg = Config::sequential();
    cfg.en_bloc = false;
    IndexGenerator generator(*_fs, "/", cfg);
    expectEquivalent(generator.build());
}

TEST_F(IndexGeneratorTest, ImmediateModeParallelEquivalent)
{
    Config cfg = Config::sharedLocked(3, 0);
    cfg.en_bloc = false;
    IndexGenerator generator(*_fs, "/", cfg);
    expectEquivalent(generator.build());
}

TEST_F(IndexGeneratorTest, DistributionStrategiesEquivalent)
{
    for (DistributionKind kind :
         {DistributionKind::RoundRobin, DistributionKind::SizeBalanced,
          DistributionKind::SharedQueue,
          DistributionKind::WorkStealing}) {
        Config cfg = Config::replicatedNoJoin(3, 0);
        cfg.distribution = kind;
        IndexGenerator generator(*_fs, "/", cfg);
        expectEquivalent(generator.build());
    }
}

TEST_F(IndexGeneratorTest, TinyQueueCapacityStillCorrect)
{
    Config cfg = Config::replicatedJoin(4, 3, 1);
    cfg.queue_capacity = 1; // maximal back-pressure
    IndexGenerator generator(*_fs, "/", cfg);
    expectEquivalent(generator.build());
}

TEST_F(IndexGeneratorTest, MoreThreadsThanFilesWorks)
{
    MemoryFs small;
    small.addFile("/only.txt", "one single file");
    Config cfg = Config::replicatedJoin(8, 6, 3);
    IndexGenerator generator(small, "/", cfg);
    BuildResult result = generator.build();
    ASSERT_EQ(result.indices.size(), 1u);
    EXPECT_EQ(result.primary().termCount(), 3u);
    EXPECT_EQ(result.docs.docCount(), 1u);
}

TEST_F(IndexGeneratorTest, EmptyRootProducesEmptyIndex)
{
    MemoryFs empty;
    empty.mkdirs("/nothing");
    setLogLevel(LogLevel::Silent);
    IndexGenerator generator(empty, "/nothing",
                             Config::sharedLocked(2, 1));
    BuildResult result = generator.build();
    setLogLevel(LogLevel::Info);
    EXPECT_EQ(result.docs.docCount(), 0u);
    EXPECT_TRUE(result.primary().empty());
}

TEST_F(IndexGeneratorTest, ExtractionStatsAggregateAcrossThreads)
{
    IndexGenerator generator(*_fs, "/",
                             Config::replicatedNoJoin(4, 0));
    BuildResult result = generator.build();
    EXPECT_EQ(result.extraction.files,
              _reference->extraction.files);
    EXPECT_EQ(result.extraction.tokens,
              _reference->extraction.tokens);
    EXPECT_EQ(result.extraction.unique_terms,
              _reference->extraction.unique_terms);
    EXPECT_EQ(result.extraction.bytes, _reference->extraction.bytes);
}

/**
 * The central equivalence property, swept over implementations and
 * thread tuples.
 */
struct SweepParam
{
    Implementation impl;
    unsigned x, y, z;
};

class GeneratorSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(GeneratorSweep, MatchesSequentialIndex)
{
    static MemoryFs *fs =
        CorpusGenerator(CorpusSpec::tiny(23)).generateInMemory()
            .release();
    static InvertedIndex *reference = [] {
        IndexGenerator sequential(*fs, "/", Config::sequential());
        auto *index =
            new InvertedIndex(std::move(sequential.build().indices
                                            .front()));
        index->sortPostings();
        return index;
    }();

    SweepParam p = GetParam();
    Config cfg;
    cfg.impl = p.impl;
    cfg.extractors = p.x;
    cfg.updaters = p.y;
    cfg.joiners = p.z;
    IndexGenerator generator(*fs, "/", cfg);
    BuildResult result = generator.build();
    InvertedIndex merged = joinSequential(std::move(result.indices));
    merged.sortPostings();
    ASSERT_TRUE(sameContents(merged, *reference))
        << "divergent index for " << cfg.describe();
}

INSTANTIATE_TEST_SUITE_P(
    ConfigTuples, GeneratorSweep,
    ::testing::Values(
        SweepParam{Implementation::SharedLocked, 1, 0, 0},
        SweepParam{Implementation::SharedLocked, 2, 0, 0},
        SweepParam{Implementation::SharedLocked, 5, 0, 0},
        SweepParam{Implementation::SharedLocked, 1, 1, 0},
        SweepParam{Implementation::SharedLocked, 3, 1, 0},
        SweepParam{Implementation::SharedLocked, 3, 2, 0},
        SweepParam{Implementation::SharedLocked, 8, 4, 0},
        SweepParam{Implementation::ReplicatedJoin, 1, 0, 1},
        SweepParam{Implementation::ReplicatedJoin, 3, 0, 1},
        SweepParam{Implementation::ReplicatedJoin, 3, 5, 1},
        SweepParam{Implementation::ReplicatedJoin, 6, 2, 1},
        SweepParam{Implementation::ReplicatedJoin, 8, 4, 1},
        SweepParam{Implementation::ReplicatedJoin, 4, 3, 2},
        SweepParam{Implementation::ReplicatedJoin, 5, 5, 4},
        SweepParam{Implementation::ReplicatedNoJoin, 1, 0, 0},
        SweepParam{Implementation::ReplicatedNoJoin, 3, 2, 0},
        SweepParam{Implementation::ReplicatedNoJoin, 6, 2, 0},
        SweepParam{Implementation::ReplicatedNoJoin, 9, 4, 0},
        SweepParam{Implementation::ReplicatedNoJoin, 2, 7, 0}),
    [](const ::testing::TestParamInfo<SweepParam> &info) {
        const SweepParam &p = info.param;
        std::string impl_tag;
        switch (p.impl) {
          case Implementation::SharedLocked:
            impl_tag = "Impl1";
            break;
          case Implementation::ReplicatedJoin:
            impl_tag = "Impl2";
            break;
          case Implementation::ReplicatedNoJoin:
            impl_tag = "Impl3";
            break;
          default:
            impl_tag = "Seq";
            break;
        }
        return impl_tag + "_x" + std::to_string(p.x) + "_y"
               + std::to_string(p.y) + "_z" + std::to_string(p.z);
    });

TEST_F(IndexGeneratorTest, ShardedLockEquivalent)
{
    for (std::size_t shards : {2u, 8u, 64u}) {
        Config cfg = Config::sharedLocked(4, 0);
        cfg.lock_shards = shards;
        IndexGenerator generator(*_fs, "/", cfg);
        BuildResult result = generator.build();
        EXPECT_EQ(result.indices.size(), 1u);
        expectEquivalent(std::move(result));
    }
}

TEST_F(IndexGeneratorTest, ShardedLockWithUpdatersEquivalent)
{
    Config cfg = Config::sharedLocked(3, 2);
    cfg.lock_shards = 16;
    IndexGenerator generator(*_fs, "/", cfg);
    expectEquivalent(generator.build());
}

TEST(IndexGeneratorConfig, ShardedLockValidation)
{
    Config cfg = Config::replicatedNoJoin(2, 1);
    cfg.lock_shards = 4;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "lock sharding");

    Config cfg2 = Config::sharedLocked(2, 1);
    cfg2.lock_shards = 0;
    EXPECT_EXIT(cfg2.validate(), ::testing::ExitedWithCode(1),
                "lock_shards");

    Config cfg3 = Config::sharedLocked(2, 1);
    cfg3.lock_shards = 4;
    cfg3.en_bloc = false;
    EXPECT_EXIT(cfg3.validate(), ::testing::ExitedWithCode(1),
                "immediate");
}

TEST(IndexGeneratorStages, MeasureSequentialStagesShape)
{
    auto fs = CorpusGenerator(CorpusSpec::tiny(31)).generateInMemory();
    StageTimes times =
        IndexGenerator::measureSequentialStages(*fs, "/");
    EXPECT_GT(times.read_files, 0.0);
    EXPECT_GT(times.read_and_extract, 0.0);
    EXPECT_GT(times.index_update, 0.0);
    // Reading + extracting includes reading.
    EXPECT_GE(times.read_and_extract, times.read_files * 0.5);
    EXPECT_GT(times.total, 0.0);
}

} // namespace
} // namespace dsearch
