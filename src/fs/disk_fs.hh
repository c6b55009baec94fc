/**
 * @file
 * Real-disk filesystem backend.
 *
 * Maps dsearch's '/'-rooted virtual paths onto a host directory via
 * std::filesystem. This is the backend a real desktop-search
 * deployment uses; the examples index actual directories through it.
 */

#ifndef DSEARCH_FS_DISK_FS_HH
#define DSEARCH_FS_DISK_FS_HH

#include <string>
#include <vector>

#include "fs/file_system.hh"

namespace dsearch {

/**
 * Read-only view of a host directory tree.
 *
 * Virtual path "/a/b.txt" resolves to "<root>/a/b.txt". Listings are
 * sorted by name so document IDs are stable across runs, cost one
 * lstat per entry, and skip symbolic links (see DirEntry). File
 * mtimes are nanoseconds since the Unix epoch.
 */
class DiskFs : public FileSystem
{
  public:
    /**
     * @param root Host directory that backs the virtual root; must
     *             exist (fatal otherwise — user error).
     */
    explicit DiskFs(std::string root);

    /** @return The host root directory. */
    const std::string &root() const { return _root; }

    // FileSystem interface.
    std::vector<DirEntry> list(const std::string &path) const override;
    bool isDirectory(const std::string &path) const override;
    bool isFile(const std::string &path) const override;
    std::uint64_t fileSize(const std::string &path) const override;
    std::uint64_t fileMtime(const std::string &path) const override;
    bool readFile(const std::string &path, std::string &out)
        const override;

  private:
    /** Resolve a virtual path to a host path. */
    std::string resolve(const std::string &path) const;

    std::string _root;
};

} // namespace dsearch

#endif // DSEARCH_FS_DISK_FS_HH
