/**
 * @file
 * Unit tests for the real-disk backend (fs/disk_fs.hh), using a
 * temporary directory.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>

#include "fs/disk_fs.hh"
#include "fs/traversal.hh"
#include "fs_listing_check.hh"

namespace dsearch {
namespace {

namespace stdfs = std::filesystem;

class DiskFsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _root = stdfs::temp_directory_path()
                / ("dsearch_diskfs_test_"
                   + std::to_string(::getpid()));
        stdfs::create_directories(_root / "sub");
        write(_root / "a.txt", "alpha content");
        write(_root / "sub" / "b.txt", "beta");
    }

    void TearDown() override { stdfs::remove_all(_root); }

    static void
    write(const stdfs::path &path, const std::string &content)
    {
        std::ofstream out(path, std::ios::binary);
        out << content;
    }

    stdfs::path _root;
};

TEST_F(DiskFsTest, ListsRootSorted)
{
    DiskFs fs(_root.string());
    auto entries = fs.list("/");
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].name, "a.txt");
    EXPECT_FALSE(entries[0].is_dir);
    EXPECT_EQ(entries[1].name, "sub");
    EXPECT_TRUE(entries[1].is_dir);
}

TEST_F(DiskFsTest, ReadsFileContent)
{
    DiskFs fs(_root.string());
    std::string content;
    ASSERT_TRUE(fs.readFile("/a.txt", content));
    EXPECT_EQ(content, "alpha content");
    ASSERT_TRUE(fs.readFile("/sub/b.txt", content));
    EXPECT_EQ(content, "beta");
}

TEST_F(DiskFsTest, FileSizeAndTypeQueries)
{
    DiskFs fs(_root.string());
    EXPECT_TRUE(fs.isFile("/a.txt"));
    EXPECT_FALSE(fs.isDirectory("/a.txt"));
    EXPECT_TRUE(fs.isDirectory("/sub"));
    EXPECT_FALSE(fs.isFile("/sub"));
    EXPECT_EQ(fs.fileSize("/a.txt"), 13u);
}

TEST_F(DiskFsTest, MissingFileReadFails)
{
    DiskFs fs(_root.string());
    std::string content;
    EXPECT_FALSE(fs.readFile("/nope.txt", content));
    EXPECT_FALSE(fs.isFile("/nope.txt"));
    EXPECT_EQ(fs.fileSize("/nope.txt"), 0u);
}

TEST_F(DiskFsTest, EmptyFileReads)
{
    write(_root / "empty.txt", "");
    DiskFs fs(_root.string());
    std::string content = "sentinel";
    ASSERT_TRUE(fs.readFile("/empty.txt", content));
    EXPECT_TRUE(content.empty());
}

TEST_F(DiskFsTest, BinaryContentRoundTrips)
{
    std::string binary("\x00\x01\xFF\x7F bin", 8);
    write(_root / "bin.dat", binary);
    DiskFs fs(_root.string());
    std::string content;
    ASSERT_TRUE(fs.readFile("/bin.dat", content));
    EXPECT_EQ(content, binary);
}

TEST_F(DiskFsTest, TrailingSlashRootNormalized)
{
    DiskFs fs(_root.string() + "/");
    EXPECT_TRUE(fs.isFile("/a.txt"));
}

TEST_F(DiskFsTest, ListingCarriesFileMetadata)
{
    write(_root / "sub" / "deeper.txt", "twelve bytes");
    stdfs::create_directories(_root / "sub" / "empty");
    DiskFs fs(_root.string());
    EXPECT_EQ(expectListingMatchesLookups(fs, "/"), 3u);
    std::vector<DirEntry> entries = fs.list("/");
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].size, 13u);
}

TEST_F(DiskFsTest, MtimeIsHostTimeAndTracksRewrites)
{
    DiskFs fs(_root.string());
    // Nanoseconds since the Unix epoch: within a day of now.
    const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
    const std::uint64_t day = 86'400ull * 1'000'000'000ull;
    std::uint64_t stamp = fs.fileMtime("/a.txt");
    EXPECT_GT(stamp + day, static_cast<std::uint64_t>(now));
    EXPECT_LT(stamp, static_cast<std::uint64_t>(now) + day);

    // A same-size rewrite with a later stamp shows in the listing.
    stdfs::last_write_time(_root / "a.txt",
                           stdfs::last_write_time(_root / "a.txt")
                               + std::chrono::seconds(5));
    EXPECT_EQ(fs.fileMtime("/a.txt"), stamp + 5'000'000'000ull);
    EXPECT_EQ(fs.list("/")[0].mtime, stamp + 5'000'000'000ull);
    EXPECT_EQ(fs.fileMtime("/sub"), 0u);
    EXPECT_EQ(fs.fileMtime("/nope.txt"), 0u);
}

TEST_F(DiskFsTest, SymlinksAreNotListed)
{
    stdfs::create_symlink(_root / "a.txt", _root / "sub" / "link.txt");
    stdfs::create_directory_symlink(_root / "sub", _root / "sub_link");
    DiskFs fs(_root.string());
    auto entries = fs.list("/");
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[1].name, "sub");
    ASSERT_EQ(fs.list("/sub").size(), 1u);
    EXPECT_EQ(fs.list("/sub")[0].name, "b.txt");
}

TEST_F(DiskFsTest, DirectorySymlinkSelfLoopTerminates)
{
    // sub/loop -> .. would otherwise repeat the whole tree under
    // sub/loop/sub/loop/... until the path length limit.
    stdfs::create_directory_symlink("..", _root / "sub" / "loop");
    DiskFs fs(_root.string());
    FileList files = generateFilenames(fs, "/");
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0].path, "/a.txt");
    EXPECT_EQ(files[1].path, "/sub/b.txt");
}

TEST_F(DiskFsTest, TwoLinkDirectoryCycleTerminates)
{
    // Two links per directory level make the walk branch at every
    // level; following them never finishes.
    stdfs::create_directories(_root / "x");
    write(_root / "x" / "only.txt", "once");
    stdfs::create_directory_symlink("..", _root / "x" / "up1");
    stdfs::create_directory_symlink("..", _root / "x" / "up2");
    stdfs::create_directory_symlink("x", _root / "x_again");
    DiskFs fs(_root.string());
    FileList files = generateFilenames(fs, "/");
    std::size_t only = 0;
    for (const FileEntry &file : files)
        only += file.path.find("only.txt") != std::string::npos;
    EXPECT_EQ(files.size(), 3u);
    EXPECT_EQ(only, 1u);
}

TEST(DiskFsDeath, MissingRootIsFatal)
{
    EXPECT_EXIT(DiskFs("/definitely/not/a/real/path/xyz"),
                ::testing::ExitedWithCode(1), "not a directory");
}

} // namespace
} // namespace dsearch
