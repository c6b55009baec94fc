/**
 * @file
 * Shared check for the FileSystem listing contract (DirEntry): every
 * listed file carries the size and mtime that fileSize() and
 * fileMtime() report for its path, and every directory carries 0.
 */

#ifndef DSEARCH_TESTS_FS_LISTING_CHECK_HH
#define DSEARCH_TESTS_FS_LISTING_CHECK_HH

#include <gtest/gtest.h>

#include <string>

#include "fs/file_system.hh"

namespace dsearch {

/**
 * Walk @p fs depth-first from @p dir, checking every entry against
 * the per-path lookups.
 *
 * @return Number of files checked.
 */
inline std::size_t
expectListingMatchesLookups(const FileSystem &fs, const std::string &dir)
{
    std::size_t files = 0;
    for (const DirEntry &entry : fs.list(dir)) {
        std::string path = joinPath(dir, entry.name);
        if (entry.is_dir) {
            EXPECT_EQ(entry.size, 0u) << path;
            EXPECT_EQ(entry.mtime, 0u) << path;
            EXPECT_TRUE(fs.isDirectory(path)) << path;
            files += expectListingMatchesLookups(fs, path);
        } else {
            EXPECT_TRUE(fs.isFile(path)) << path;
            EXPECT_EQ(entry.size, fs.fileSize(path)) << path;
            EXPECT_EQ(entry.mtime, fs.fileMtime(path)) << path;
            ++files;
        }
    }
    return files;
}

} // namespace dsearch

#endif // DSEARCH_TESTS_FS_LISTING_CHECK_HH
