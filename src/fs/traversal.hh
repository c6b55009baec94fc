/**
 * @file
 * Stage 1 of the index generator: filename generation.
 *
 * The paper measured Stage 1 at 2-5% of total runtime and therefore
 * runs it on a single thread to completion, producing the full set of
 * filenames in main memory before term extraction starts (running it
 * concurrently cost a pair of lock operations per filename and was
 * "highly inefficient"). This module implements that single-threaded
 * traversal; the concurrent variant used by ablation E6 lives in the
 * core generator where the queue machinery is available.
 */

#ifndef DSEARCH_FS_TRAVERSAL_HH
#define DSEARCH_FS_TRAVERSAL_HH

#include <functional>
#include <string>
#include <vector>

#include "fs/file_system.hh"

namespace dsearch {

/** One file discovered by Stage 1. */
struct FileEntry
{
    DocId doc = invalid_doc;  ///< Assigned in traversal order.
    std::string path;         ///< Virtual absolute path.
    std::uint64_t size = 0;   ///< Size in bytes at traversal time.
};

/** The complete Stage 1 output. */
using FileList = std::vector<FileEntry>;

/**
 * Depth-first traversal of every regular file under @p root.
 *
 * Directories are visited in the deterministic order produced by
 * FileSystem::list(). Unreadable directories are skipped (the backend
 * warns).
 *
 * @param fs    Filesystem to walk.
 * @param root  Directory (or single file) to start from.
 * @param visit Called once per regular file with (path, size); the
 *              size comes from the listing, not another lookup.
 */
void traverseFiles(const FileSystem &fs, const std::string &root,
                   const std::function<void(const std::string &,
                                            std::uint64_t)> &visit);

/**
 * Stage 1: generate the filename list with document IDs assigned in
 * traversal order.
 *
 * @param fs   Filesystem to walk.
 * @param root Directory to index.
 * @return All files under @p root; empty when the root is missing.
 */
FileList generateFilenames(const FileSystem &fs,
                           const std::string &root);

} // namespace dsearch

#endif // DSEARCH_FS_TRAVERSAL_HH
