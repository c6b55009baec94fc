/**
 * @file
 * Tests for the re-scan change feed (live/scan_diff.hh): walk
 * capture, the size/mtime modification rule, linear-merge diffing,
 * the "live.scan" abort contract, and DocTable baseline
 * reconstruction for crash recovery.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fs/corpus.hh"
#include "fs/flaky_fs.hh"
#include "fs/memory_fs.hh"
#include "fs/mutable_memory_fs.hh"
#include "index/doc_table.hh"
#include "live/scan_diff.hh"
#include "util/fault.hh"

namespace dsearch {
namespace {

/**
 * The scan as it was before listings carried metadata: list() for the
 * tree shape, then fileSize() and fileMtime() per file.
 */
void
lookupScan(const FileSystem &fs, const std::string &dir,
           ScanSnapshot &out)
{
    for (const DirEntry &entry : fs.list(dir)) {
        std::string path = joinPath(dir, entry.name);
        if (entry.is_dir)
            lookupScan(fs, path, out);
        else
            out.emplace(path, FileState{fs.fileSize(path),
                                        fs.fileMtime(path)});
    }
}

/** Expect scanFileSystem() to equal lookupScan() over @p fs. */
void
expectScanMatchesLookups(const FileSystem &fs)
{
    ScanSnapshot scan, oracle;
    ASSERT_TRUE(scanFileSystem(fs, "/", scan));
    lookupScan(fs, "/", oracle);
    ASSERT_FALSE(oracle.empty());
    EXPECT_EQ(scan, oracle);
}

class ScanDiffTest : public ::testing::Test
{
  protected:
    void SetUp() override { disarmAllFaults(); }
    void TearDown() override { disarmAllFaults(); }
};

TEST_F(ScanDiffTest, CapturesEveryRegularFile)
{
    MutableMemoryFs fs;
    fs.addFile("/a.txt", "aaa");
    fs.addFile("/docs/b.txt", "bb");
    fs.addFile("/docs/deep/c.txt", "c");

    ScanSnapshot scan;
    ASSERT_TRUE(scanFileSystem(fs, "/", scan));
    ASSERT_EQ(scan.size(), 3u);
    EXPECT_EQ(scan.at("/a.txt").size, 3u);
    EXPECT_EQ(scan.at("/docs/b.txt").size, 2u);
    EXPECT_EQ(scan.at("/docs/deep/c.txt").size, 1u);
    EXPECT_GT(scan.at("/a.txt").mtime, 0u);
}

TEST_F(ScanDiffTest, DiffDetectsCreateModifyDelete)
{
    MutableMemoryFs fs;
    fs.addFile("/keep.txt", "same");
    fs.addFile("/edit.txt", "v1");
    fs.addFile("/gone.txt", "bye");

    ScanSnapshot before;
    ASSERT_TRUE(scanFileSystem(fs, "/", before));

    fs.addFile("/new.txt", "hi");
    fs.addFile("/edit.txt", "v2-longer");
    fs.removeFile("/gone.txt");

    ScanSnapshot after;
    ASSERT_TRUE(scanFileSystem(fs, "/", after));

    ScanDiff diff = diffScans(before, after);
    ASSERT_EQ(diff.created.size(), 1u);
    EXPECT_EQ(diff.created[0], "/new.txt");
    ASSERT_EQ(diff.modified.size(), 1u);
    EXPECT_EQ(diff.modified[0], "/edit.txt");
    ASSERT_EQ(diff.deleted.size(), 1u);
    EXPECT_EQ(diff.deleted[0], "/gone.txt");
}

TEST_F(ScanDiffTest, SameSizeRewriteDetectedViaMtime)
{
    MutableMemoryFs fs;
    fs.addFile("/a.txt", "aaaa");
    ScanSnapshot before;
    ASSERT_TRUE(scanFileSystem(fs, "/", before));

    fs.addFile("/a.txt", "bbbb"); // same size, mtime bumps
    ScanSnapshot after;
    ASSERT_TRUE(scanFileSystem(fs, "/", after));

    ScanDiff diff = diffScans(before, after);
    ASSERT_EQ(diff.modified.size(), 1u);
    EXPECT_EQ(diff.modified[0], "/a.txt");
}

TEST_F(ScanDiffTest, ZeroMtimeFallsBackToSizeOnly)
{
    // MemoryFs population order gives mtimes; a baseline from a
    // DocTable has mtime 0. Equal sizes + one zero mtime must NOT
    // read as modified (that would re-index the whole corpus after
    // every recovery).
    ScanSnapshot prev;
    prev["/a.txt"] = FileState{10, 0};
    ScanSnapshot next;
    next["/a.txt"] = FileState{10, 42};
    EXPECT_TRUE(diffScans(prev, next).empty());

    // But a size change always counts, mtimes or not.
    next["/a.txt"].size = 11;
    ScanDiff diff = diffScans(prev, next);
    ASSERT_EQ(diff.modified.size(), 1u);
}

TEST_F(ScanDiffTest, IdenticalScansDiffEmpty)
{
    MutableMemoryFs fs;
    fs.addFile("/a.txt", "a");
    fs.addFile("/b/c.txt", "c");
    ScanSnapshot one, two;
    ASSERT_TRUE(scanFileSystem(fs, "/", one));
    ASSERT_TRUE(scanFileSystem(fs, "/", two));
    EXPECT_TRUE(diffScans(one, two).empty());
}

TEST_F(ScanDiffTest, WorksOnImmutableMemoryFs)
{
    // The scanner must work over any FileSystem, including the
    // immutable build-bench one (whose fileMtime is population
    // order).
    MemoryFs fs;
    fs.addFile("/x.txt", "xx");
    fs.addFile("/d/y.txt", "y");
    ScanSnapshot scan;
    ASSERT_TRUE(scanFileSystem(fs, "/", scan));
    ASSERT_EQ(scan.size(), 2u);
    EXPECT_EQ(scan.at("/x.txt").size, 2u);
}

TEST_F(ScanDiffTest, ScanEqualsPerPathLookups)
{
    // Names that sort between a directory and its children ("d" <
    // "d.txt" < "d/...") exercise the walk-order/path-order gap.
    MutableMemoryFs fs;
    fs.addFile("/d/x.txt", "12345");
    fs.addFile("/d.txt", "abc");
    fs.addFile("/d0/y.txt", "");
    fs.addFile("/d/e/z.txt", "zz");
    fs.addFile("/d.txt", "abcd"); // rewritten: later mtime
    expectScanMatchesLookups(fs);

    std::unique_ptr<MemoryFs> corpus =
        CorpusGenerator(CorpusSpec::tiny(11)).generateInMemory();
    expectScanMatchesLookups(*corpus);
    expectScanMatchesLookups(FlakyFs(*corpus, 0.5));
}

TEST_F(ScanDiffTest, AbortedWalkReturnsFalse)
{
    MutableMemoryFs fs;
    fs.addFile("/a/one.txt", "1");
    fs.addFile("/b/two.txt", "2");
    fs.addFile("/c/three.txt", "3");

    ScopedFault fault("live.scan", {.fire_limit = 1});
    ScanSnapshot scan;
    EXPECT_FALSE(scanFileSystem(fs, "/", scan));
    EXPECT_EQ(fault.fires(), 1u);

    // Disarmed (fire budget spent): the same walk completes.
    ASSERT_TRUE(scanFileSystem(fs, "/", scan));
    EXPECT_EQ(scan.size(), 3u);
}

TEST_F(ScanDiffTest, BaselineFromDocTable)
{
    DocTable docs;
    docs.add("/a.txt", 10);
    docs.add("/b.txt", 20);
    docs.add("/a.txt", 12); // superseding version: later id wins

    ScanSnapshot base = baselineFromDocTable(docs);
    ASSERT_EQ(base.size(), 2u);
    EXPECT_EQ(base.at("/a.txt").size, 12u);
    EXPECT_EQ(base.at("/a.txt").mtime, 0u);
    EXPECT_EQ(base.at("/b.txt").size, 20u);
}

} // namespace
} // namespace dsearch
