/**
 * @file
 * Failure-injection tests: the generator must survive unreadable
 * files (fs/flaky_fs.hh) in every organization, skipping exactly the
 * same deterministic set; and transient failures (fail-then-succeed)
 * must be absorbed by the extractor's bounded retry without skipping
 * anything.
 */

#include <gtest/gtest.h>

#include "core/index_generator.hh"
#include "fs/corpus.hh"
#include "fs/flaky_fs.hh"
#include "fs_listing_check.hh"
#include "index/index_join.hh"
#include "text/term_extractor.hh"
#include "util/logging.hh"

namespace dsearch {
namespace {

class FlakyFsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _inner = CorpusGenerator(CorpusSpec::tiny(321))
                     .generateInMemory();
        setLogLevel(LogLevel::Silent); // expected warnings
    }

    void TearDown() override { setLogLevel(LogLevel::Info); }

    std::unique_ptr<MemoryFs> _inner;
};

TEST_F(FlakyFsTest, MetadataPassesThrough)
{
    FlakyFs flaky(*_inner, 1.0); // every read fails
    EXPECT_EQ(flaky.list("/corpus").size(),
              _inner->list("/corpus").size());
    FileList files = generateFilenames(flaky, "/");
    EXPECT_EQ(files.size(), _inner->fileCount());
}

TEST_F(FlakyFsTest, ListingCarriesFileMetadata)
{
    FlakyFs flaky(*_inner, 0.5);
    EXPECT_EQ(expectListingMatchesLookups(flaky, "/"),
              _inner->fileCount());
    // Listing a file's metadata never reads it.
    EXPECT_EQ(flaky.failedReads(), 0u);
}

TEST_F(FlakyFsTest, ZeroProbabilityNeverFails)
{
    FlakyFs flaky(*_inner, 0.0);
    FileList files = generateFilenames(flaky, "/");
    std::string content;
    for (const FileEntry &file : files)
        ASSERT_TRUE(flaky.readFile(file.path, content));
    EXPECT_EQ(flaky.failedReads(), 0u);
}

TEST_F(FlakyFsTest, FullProbabilityAlwaysFails)
{
    FlakyFs flaky(*_inner, 1.0);
    std::string content;
    FileList files = generateFilenames(flaky, "/");
    for (const FileEntry &file : files)
        ASSERT_FALSE(flaky.readFile(file.path, content));
    EXPECT_EQ(flaky.failedReads(), files.size());
}

TEST_F(FlakyFsTest, FailureSetIsDeterministic)
{
    FlakyFs a(*_inner, 0.3, 9);
    FlakyFs b(*_inner, 0.3, 9);
    FileList files = generateFilenames(*_inner, "/");
    for (const FileEntry &file : files)
        EXPECT_EQ(a.failsOn(file.path), b.failsOn(file.path));
}

TEST_F(FlakyFsTest, FailureRateApproximatelyHonored)
{
    FlakyFs flaky(*_inner, 0.3, 5);
    FileList files = generateFilenames(*_inner, "/");
    std::size_t failing = 0;
    for (const FileEntry &file : files)
        if (flaky.failsOn(file.path))
            ++failing;
    double rate =
        static_cast<double>(failing) / static_cast<double>(files.size());
    EXPECT_NEAR(rate, 0.3, 0.1);
}

TEST_F(FlakyFsTest, SequentialBuildSkipsAndSurvives)
{
    FlakyFs flaky(*_inner, 0.25, 7);
    IndexGenerator generator(flaky, "/", Config::sequential());
    BuildResult result = generator.build();

    FileList files = generateFilenames(*_inner, "/");
    std::size_t expected_failures = 0;
    for (const FileEntry &file : files)
        if (flaky.failsOn(file.path))
            ++expected_failures;

    EXPECT_EQ(result.extraction.read_errors, expected_failures);
    EXPECT_EQ(result.extraction.files,
              files.size() - expected_failures);
    EXPECT_GT(result.primary().termCount(), 0u);
}

TEST_F(FlakyFsTest, TransientFailuresSucceedAfterBudget)
{
    FlakyFs flaky(*_inner, 1.0); // every file is in the failing set
    flaky.setTransientFailures(2);

    FileList files = generateFilenames(*_inner, "/");
    ASSERT_FALSE(files.empty());
    const std::string &path = files.front().path;
    std::string content;
    EXPECT_FALSE(flaky.readFile(path, content)); // attempt 1 fails
    EXPECT_FALSE(flaky.readFile(path, content)); // attempt 2 fails
    EXPECT_TRUE(flaky.readFile(path, content));  // budget burned
    EXPECT_FALSE(content.empty());
    EXPECT_TRUE(flaky.readFile(path, content)); // and stays readable
    EXPECT_EQ(flaky.failedReads(), 2u);

    // Budgets are per path: a different file starts failing afresh.
    std::string other;
    EXPECT_FALSE(flaky.readFile(files.back().path, other));
}

TEST_F(FlakyFsTest, TransientModeResetsWhenReconfigured)
{
    FlakyFs flaky(*_inner, 1.0);
    flaky.setTransientFailures(1);
    FileList files = generateFilenames(*_inner, "/");
    std::string content;
    EXPECT_FALSE(flaky.readFile(files.front().path, content));
    EXPECT_TRUE(flaky.readFile(files.front().path, content));

    flaky.setTransientFailures(1); // counts reset: fails once again
    EXPECT_FALSE(flaky.readFile(files.front().path, content));
    EXPECT_TRUE(flaky.readFile(files.front().path, content));

    flaky.setTransientFailures(0); // back to permanent
    EXPECT_FALSE(flaky.readFile(files.front().path, content));
    EXPECT_FALSE(flaky.readFile(files.front().path, content));
}

TEST_F(FlakyFsTest, ExtractorRetryRecoversTransientFailures)
{
    FlakyFs flaky(*_inner, 1.0);
    flaky.setTransientFailures(2); // within the default retry budget

    TermExtractor extractor(flaky);
    FileList files = generateFilenames(flaky, "/");
    TermBlock block;
    for (const FileEntry &file : files) {
        EXPECT_TRUE(extractor.extract(file, block)) << file.path;
        EXPECT_FALSE(block.empty()) << file.path;
    }

    const ExtractorStats &stats = extractor.stats();
    EXPECT_EQ(stats.files, files.size());
    EXPECT_EQ(stats.read_errors, 0u); // nothing was skipped
    EXPECT_EQ(stats.read_retries, 2u * files.size());
}

TEST_F(FlakyFsTest, ExtractorRetryIsBoundedOnPermanentFailure)
{
    FlakyFs flaky(*_inner, 1.0); // permanent: retrying cannot help

    TermExtractor extractor(flaky);
    FileList files = generateFilenames(flaky, "/");
    TermBlock block;
    ASSERT_FALSE(extractor.extract(files.front(), block));

    const ExtractorStats &stats = extractor.stats();
    EXPECT_EQ(stats.read_errors, 1u);
    EXPECT_EQ(stats.read_retries, 2u); // default bound, then skip
    // 1 initial + 2 retries reached the filesystem.
    EXPECT_EQ(flaky.failedReads(), 3u);
}

TEST_F(FlakyFsTest, RetryDisabledSkipsImmediately)
{
    FlakyFs flaky(*_inner, 1.0);
    flaky.setTransientFailures(1); // would recover on first retry

    TermExtractor extractor(flaky);
    extractor.setReadRetries(0);
    FileList files = generateFilenames(flaky, "/");
    TermBlock block;
    EXPECT_FALSE(extractor.extract(files.front(), block));
    EXPECT_EQ(extractor.stats().read_retries, 0u);
    EXPECT_EQ(extractor.stats().read_errors, 1u);
}

TEST_F(FlakyFsTest, BuildUnderTransientFailuresLosesNothing)
{
    // A full sequential build over a filesystem where *every* read
    // fails once: the retry path must deliver the same index a
    // healthy filesystem produces.
    IndexGenerator healthy_gen(*_inner, "/", Config::sequential());
    BuildResult healthy = healthy_gen.build();
    InvertedIndex reference = std::move(healthy.indices.front());
    reference.sortPostings();

    FlakyFs flaky(*_inner, 1.0);
    flaky.setTransientFailures(1);
    IndexGenerator generator(flaky, "/", Config::sequential());
    BuildResult result = generator.build();

    EXPECT_EQ(result.extraction.read_errors, 0u);
    EXPECT_EQ(result.extraction.files, _inner->fileCount());
    EXPECT_GT(result.extraction.read_retries, 0u);
    InvertedIndex built = std::move(result.indices.front());
    built.sortPostings();
    EXPECT_TRUE(sameContents(built, reference));
}

/**
 * Property: with deterministic failures, every organization builds
 * the same (reduced) index.
 */
class FlakyEquivalence : public ::testing::TestWithParam<double>
{
};

TEST_P(FlakyEquivalence, AllImplementationsAgreeUnderFailures)
{
    setLogLevel(LogLevel::Silent);
    auto inner = CorpusGenerator(CorpusSpec::tiny(55))
                     .generateInMemory();
    FlakyFs flaky(*inner, GetParam(), 13);

    IndexGenerator sequential(flaky, "/", Config::sequential());
    InvertedIndex reference =
        std::move(sequential.build().indices.front());
    reference.sortPostings();

    for (Config cfg :
         {Config::sharedLocked(3, 1), Config::replicatedJoin(3, 2, 1),
          Config::replicatedNoJoin(4, 0)}) {
        IndexGenerator generator(flaky, "/", cfg);
        BuildResult result = generator.build();
        InvertedIndex merged =
            joinSequential(std::move(result.indices));
        merged.sortPostings();
        EXPECT_TRUE(sameContents(merged, reference))
            << cfg.describe() << " diverged at failure rate "
            << GetParam();
    }
    setLogLevel(LogLevel::Info);
}

INSTANTIATE_TEST_SUITE_P(FailureRates, FlakyEquivalence,
                         ::testing::Values(0.05, 0.25, 0.75));

} // namespace
} // namespace dsearch
