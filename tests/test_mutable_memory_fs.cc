/**
 * @file
 * Tests for the concurrently mutable in-memory filesystem
 * (fs/mutable_memory_fs.hh): path normalization, implicit
 * directories, deterministic listings, the logical mtime clock, and
 * reader/writer thread safety (part of the check_tsan_live_index
 * suite).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "fs/mutable_memory_fs.hh"
#include "fs_listing_check.hh"

namespace dsearch {
namespace {

TEST(MutableMemoryFsTest, AddAndReadFile)
{
    MutableMemoryFs fs;
    fs.addFile("/a.txt", "hello");
    EXPECT_TRUE(fs.isFile("/a.txt"));
    EXPECT_EQ(fs.fileSize("/a.txt"), 5u);
    std::string content;
    ASSERT_TRUE(fs.readFile("/a.txt", content));
    EXPECT_EQ(content, "hello");
    EXPECT_EQ(fs.fileCount(), 1u);
}

TEST(MutableMemoryFsTest, ReplaceBumpsMtime)
{
    MutableMemoryFs fs;
    fs.addFile("/a.txt", "one");
    std::uint64_t first = fs.fileMtime("/a.txt");
    EXPECT_GT(first, 0u);
    fs.addFile("/a.txt", "two"); // same size, new content
    std::uint64_t second = fs.fileMtime("/a.txt");
    EXPECT_GT(second, first);
    EXPECT_EQ(fs.fileCount(), 1u);
}

TEST(MutableMemoryFsTest, ImplicitDirectories)
{
    MutableMemoryFs fs;
    fs.addFile("/docs/work/a.txt", "a");
    EXPECT_TRUE(fs.isDirectory("/"));
    EXPECT_TRUE(fs.isDirectory("/docs"));
    EXPECT_TRUE(fs.isDirectory("/docs/work"));
    EXPECT_FALSE(fs.isDirectory("/docs/work/a.txt"));
    EXPECT_FALSE(fs.isDirectory("/other"));

    // Removing the only file under a directory removes the directory.
    EXPECT_TRUE(fs.removeFile("/docs/work/a.txt"));
    EXPECT_FALSE(fs.isDirectory("/docs"));
    EXPECT_FALSE(fs.removeFile("/docs/work/a.txt")); // already gone
}

TEST(MutableMemoryFsTest, ListIsSortedAndComplete)
{
    MutableMemoryFs fs;
    fs.addFile("/b.txt", "b");
    fs.addFile("/a.txt", "a");
    fs.addFile("/sub/x.txt", "x");
    fs.addFile("/sub/y.txt", "y");
    fs.addFile("/zub/z.txt", "z");

    std::vector<DirEntry> entries = fs.list("/");
    ASSERT_EQ(entries.size(), 4u);
    EXPECT_EQ(entries[0].name, "a.txt");
    EXPECT_FALSE(entries[0].is_dir);
    EXPECT_EQ(entries[1].name, "b.txt");
    EXPECT_EQ(entries[2].name, "sub");
    EXPECT_TRUE(entries[2].is_dir);
    EXPECT_EQ(entries[3].name, "zub");
    EXPECT_TRUE(entries[3].is_dir);

    std::vector<DirEntry> sub = fs.list("/sub");
    ASSERT_EQ(sub.size(), 2u);
    EXPECT_EQ(sub[0].name, "x.txt");
    EXPECT_EQ(sub[1].name, "y.txt");
}

TEST(MutableMemoryFsTest, ListingCarriesFileMetadata)
{
    MutableMemoryFs fs;
    fs.addFile("/a.txt", "alpha");
    fs.addFile("/docs/b.txt", "");
    fs.addFile("/docs/deep/c.txt", "gamma ray");
    fs.addFile("/docs/deep0.txt", "sorts after the deep/ run");
    fs.addFile("/a.txt", "alpha, rewritten");
    EXPECT_EQ(expectListingMatchesLookups(fs, "/"), 4u);

    fs.removeFile("/docs/b.txt");
    fs.addFile("/docs/deep/c.txt", "gamma");
    EXPECT_EQ(expectListingMatchesLookups(fs, "/"), 3u);
    EXPECT_EQ(expectListingMatchesLookups(fs, "/docs/"), 2u);
}

TEST(MutableMemoryFsTest, NormalizesSloppyPaths)
{
    MutableMemoryFs fs;
    fs.addFile("//docs///a.txt", "a");
    EXPECT_TRUE(fs.isFile("/docs/a.txt"));
    EXPECT_TRUE(fs.isDirectory("/docs/"));
    EXPECT_TRUE(fs.removeFile("/docs/a.txt/"));
}

TEST(MutableMemoryFsTest, MissingPathsBehave)
{
    MutableMemoryFs fs;
    fs.addFile("/a.txt", "a");
    EXPECT_FALSE(fs.isFile("/missing"));
    EXPECT_EQ(fs.fileSize("/missing"), 0u);
    EXPECT_EQ(fs.fileMtime("/missing"), 0u);
    std::string content;
    EXPECT_FALSE(fs.readFile("/missing", content));
    EXPECT_TRUE(fs.list("/missing").empty());
}

/**
 * Reader/writer race: one thread churns files while others walk and
 * read. The assertions are weak (no torn sizes, list() never throws);
 * the real check is TSan finding no data race.
 */
TEST(MutableMemoryFsTest, ConcurrentReadersAndWriter)
{
    MutableMemoryFs fs;
    for (int i = 0; i < 16; ++i)
        fs.addFile("/stable/f" + std::to_string(i) + ".txt",
                   std::string(16, 'x'));

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        for (int round = 0; round < 400; ++round) {
            std::string path =
                "/churn/f" + std::to_string(round % 8) + ".txt";
            if (round % 3 == 2)
                fs.removeFile(path);
            else
                fs.addFile(path, std::string(8 + round % 5, 'y'));
        }
        stop.store(true);
    });

    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back([&] {
            std::string content;
            while (!stop.load()) {
                for (const DirEntry &top : fs.list("/")) {
                    if (!top.is_dir)
                        continue;
                    for (const DirEntry &entry :
                         fs.list("/" + top.name)) {
                        std::string path =
                            "/" + top.name + "/" + entry.name;
                        // A successful read must never be torn:
                        // every body written is one repeated char.
                        if (fs.readFile(path, content)
                            && !content.empty())
                            EXPECT_EQ(content.find_first_not_of(
                                          content[0]),
                                      std::string::npos);
                    }
                }
            }
        });
    }

    writer.join();
    for (std::thread &reader : readers)
        reader.join();

    // The stable tree survived the churn untouched.
    EXPECT_EQ(fs.list("/stable").size(), 16u);
}

} // namespace
} // namespace dsearch
