/**
 * @file
 * Storage abstraction for the index generator.
 *
 * The paper's generator reads a real directory tree; the reproduction
 * also needs a deterministic in-memory corpus for tests, benchmarks
 * and the platform simulator. Both storage backends implement this
 * interface, so Stage 1 (traversal) and Stage 2 (term extraction) are
 * storage agnostic.
 *
 * Implementations must support concurrent read-only use: the parallel
 * generator reads files from many extractor threads at once.
 */

#ifndef DSEARCH_FS_FILE_SYSTEM_HH
#define DSEARCH_FS_FILE_SYSTEM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dsearch {

/** Document identifier, assigned during Stage 1 traversal. */
using DocId = std::uint32_t;

/** Sentinel for "no document". */
inline constexpr DocId invalid_doc = static_cast<DocId>(-1);

/**
 * One entry of a directory listing.
 *
 * A listing carries each regular file's metadata, so a walk never
 * looks a path up again after list() saw it: for a file entry, size
 * and mtime equal what fileSize() and fileMtime() report for the same
 * path at listing time. Directory entries carry 0 in both. Only
 * regular files and directories are listed; symbolic links (to
 * either), sockets, fifos and devices are skipped, so a walk cannot
 * loop through a linked directory or index one file under two paths.
 */
struct DirEntry
{
    std::string name;        ///< Leaf name, no separators.
    bool is_dir = false;     ///< True for subdirectories.
    std::uint64_t size = 0;  ///< Files: fileSize(); directories: 0.
    std::uint64_t mtime = 0; ///< Files: fileMtime(); directories: 0.
};

/**
 * Abstract read-only filesystem.
 *
 * Paths are '/'-separated and absolute within the filesystem (the
 * disk implementation maps them onto a host root directory).
 */
class FileSystem
{
  public:
    virtual ~FileSystem() = default;

    /**
     * List a directory.
     *
     * Entries are returned in a deterministic (lexicographic) order so
     * document IDs are stable across runs, with file metadata filled
     * in (see DirEntry).
     *
     * @param path Directory to list.
     * @return Entries; empty when the path is missing or not a
     *         directory.
     */
    virtual std::vector<DirEntry> list(const std::string &path) const
        = 0;

    /** @return True when @p path names an existing directory. */
    virtual bool isDirectory(const std::string &path) const = 0;

    /** @return True when @p path names an existing regular file. */
    virtual bool isFile(const std::string &path) const = 0;

    /**
     * @return Size of a regular file in bytes; 0 when missing.
     */
    virtual std::uint64_t fileSize(const std::string &path) const = 0;

    /**
     * Modification stamp of a regular file; 0 when missing or when
     * the backend tracks none (the default). The only contract is
     * monotonicity per path: a later modification yields a larger
     * stamp. Disk backends report host mtime; in-memory backends a
     * logical write counter. The live-index change feed
     * (live/scan_diff.hh) compares stamps between re-scans,
     * ugrep-indexer style, to catch same-size rewrites that
     * fileSize() alone would miss.
     */
    virtual std::uint64_t
    fileMtime(const std::string &path) const
    {
        (void)path;
        return 0;
    }

    /**
     * Read an entire file.
     *
     * @param path File to read.
     * @param out  Receives the content (replaced, not appended).
     * @return True on success; false when the file is missing or
     *         unreadable (the generator skips such files with a
     *         warning, matching desktop-search behaviour on files that
     *         vanish mid-indexing).
     */
    virtual bool readFile(const std::string &path, std::string &out)
        const = 0;
};

/** Join two '/'-separated path fragments. */
inline std::string
joinPath(const std::string &dir, const std::string &leaf)
{
    if (dir.empty() || dir == "/")
        return "/" + leaf;
    return dir + "/" + leaf;
}

} // namespace dsearch

#endif // DSEARCH_FS_FILE_SYSTEM_HH
