/**
 * @file
 * Unit tests for the in-memory filesystem (fs/memory_fs.hh).
 */

#include <gtest/gtest.h>

#include "fs/memory_fs.hh"
#include "fs_listing_check.hh"

namespace dsearch {
namespace {

TEST(MemoryFs, StartsEmpty)
{
    MemoryFs fs;
    EXPECT_EQ(fs.fileCount(), 0u);
    EXPECT_EQ(fs.totalBytes(), 0u);
    EXPECT_TRUE(fs.isDirectory("/"));
    EXPECT_TRUE(fs.list("/").empty());
}

TEST(MemoryFs, AddAndReadFile)
{
    MemoryFs fs;
    fs.addFile("/docs/a.txt", "hello world");
    EXPECT_TRUE(fs.isFile("/docs/a.txt"));
    EXPECT_EQ(fs.fileSize("/docs/a.txt"), 11u);
    std::string content;
    ASSERT_TRUE(fs.readFile("/docs/a.txt", content));
    EXPECT_EQ(content, "hello world");
}

TEST(MemoryFs, ParentDirectoriesCreatedImplicitly)
{
    MemoryFs fs;
    fs.addFile("/a/b/c/file.txt", "x");
    EXPECT_TRUE(fs.isDirectory("/a"));
    EXPECT_TRUE(fs.isDirectory("/a/b"));
    EXPECT_TRUE(fs.isDirectory("/a/b/c"));
    EXPECT_FALSE(fs.isFile("/a/b"));
}

TEST(MemoryFs, ListingIsSortedAndTyped)
{
    MemoryFs fs;
    fs.addFile("/dir/zeta.txt", "z");
    fs.addFile("/dir/alpha.txt", "a");
    fs.mkdirs("/dir/middle");
    auto entries = fs.list("/dir");
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].name, "alpha.txt");
    EXPECT_FALSE(entries[0].is_dir);
    EXPECT_EQ(entries[1].name, "middle");
    EXPECT_TRUE(entries[1].is_dir);
    EXPECT_EQ(entries[2].name, "zeta.txt");
}

TEST(MemoryFs, ListingCarriesFileMetadata)
{
    MemoryFs fs;
    fs.addFile("/a.txt", "alpha");
    fs.addFile("/docs/b.txt", "");
    fs.addFile("/docs/deep/c.txt", "gamma ray");
    fs.addFile("/a.txt", "alpha, rewritten"); // later mtime
    fs.mkdirs("/empty/dir");
    EXPECT_EQ(expectListingMatchesLookups(fs, "/"), 3u);

    std::vector<DirEntry> root = fs.list("/");
    ASSERT_EQ(root.size(), 3u);
    EXPECT_EQ(root[0].size, 16u);
    EXPECT_GT(root[0].mtime, fs.fileMtime("/docs/deep/c.txt"));
}

TEST(MemoryFs, OverwriteReplacesContentAndAccounting)
{
    MemoryFs fs;
    fs.addFile("/f.txt", "12345");
    fs.addFile("/f.txt", "123");
    EXPECT_EQ(fs.fileCount(), 1u);
    EXPECT_EQ(fs.totalBytes(), 3u);
    std::string content;
    ASSERT_TRUE(fs.readFile("/f.txt", content));
    EXPECT_EQ(content, "123");
}

TEST(MemoryFs, MissingPathsBehave)
{
    MemoryFs fs;
    fs.addFile("/a.txt", "x");
    EXPECT_FALSE(fs.isFile("/missing.txt"));
    EXPECT_FALSE(fs.isDirectory("/missing"));
    EXPECT_EQ(fs.fileSize("/missing.txt"), 0u);
    std::string content;
    EXPECT_FALSE(fs.readFile("/missing.txt", content));
    EXPECT_TRUE(fs.list("/missing").empty());
}

TEST(MemoryFs, ReadOnDirectoryFails)
{
    MemoryFs fs;
    fs.mkdirs("/dir");
    std::string content;
    EXPECT_FALSE(fs.readFile("/dir", content));
    EXPECT_EQ(fs.fileSize("/dir"), 0u);
}

TEST(MemoryFs, ListOnFileIsEmpty)
{
    MemoryFs fs;
    fs.addFile("/f.txt", "x");
    EXPECT_TRUE(fs.list("/f.txt").empty());
}

TEST(MemoryFs, TotalsAccumulate)
{
    MemoryFs fs;
    fs.addFile("/a", std::string(100, 'a'));
    fs.addFile("/b", std::string(200, 'b'));
    EXPECT_EQ(fs.fileCount(), 2u);
    EXPECT_EQ(fs.totalBytes(), 300u);
}

TEST(MemoryFs, EmptyFile)
{
    MemoryFs fs;
    fs.addFile("/empty.txt", "");
    EXPECT_TRUE(fs.isFile("/empty.txt"));
    EXPECT_EQ(fs.fileSize("/empty.txt"), 0u);
    std::string content = "sentinel";
    ASSERT_TRUE(fs.readFile("/empty.txt", content));
    EXPECT_TRUE(content.empty());
}

TEST(MemoryFs, MkdirsIdempotent)
{
    MemoryFs fs;
    fs.mkdirs("/x/y");
    fs.mkdirs("/x/y");
    EXPECT_TRUE(fs.isDirectory("/x/y"));
}

TEST(MemoryFsDeath, FileInMiddleOfPathPanics)
{
    MemoryFs fs;
    fs.addFile("/a.txt", "x");
    EXPECT_DEATH(fs.addFile("/a.txt/nested.txt", "y"), "");
}

TEST(MemoryFsDeath, DirectoryOverwriteByFilePanics)
{
    MemoryFs fs;
    fs.mkdirs("/dir");
    EXPECT_DEATH(fs.addFile("/dir", "y"), "");
}

} // namespace
} // namespace dsearch
