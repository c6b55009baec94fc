#include "fs/disk_fs.hh"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>

#include "util/fault.hh"
#include "util/logging.hh"

namespace dsearch {

namespace stdfs = std::filesystem;

namespace {

/**
 * A file's modification stamp: nanoseconds since the Unix epoch. The
 * scan diff only compares stamps, and 0 means "no stamp", so a
 * pre-1970 time clamps to 1 instead of wrapping.
 */
std::uint64_t
mtimeStamp(const struct stat &st)
{
    std::int64_t ns = static_cast<std::int64_t>(st.st_mtim.tv_sec)
            * 1'000'000'000
        + st.st_mtim.tv_nsec;
    return ns <= 0 ? 1 : static_cast<std::uint64_t>(ns);
}

/** stat() @p host_path; true when it names a regular file. */
bool
statFile(const std::string &host_path, struct stat &st)
{
    return ::stat(host_path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

} // namespace

DiskFs::DiskFs(std::string root) : _root(std::move(root))
{
    std::error_code ec;
    if (!stdfs::is_directory(_root, ec))
        fatal("DiskFs: '" + _root + "' is not a directory");
    // Normalize away a trailing separator.
    while (_root.size() > 1 && _root.back() == '/')
        _root.pop_back();
}

std::string
DiskFs::resolve(const std::string &path) const
{
    if (path.empty() || path == "/")
        return _root;
    if (path.front() == '/')
        return _root + path;
    return _root + "/" + path;
}

std::vector<DirEntry>
DiskFs::list(const std::string &path) const
{
    std::vector<DirEntry> entries;
    DIR *dir = ::opendir(resolve(path).c_str());
    if (dir == nullptr) {
        warn("DiskFs: cannot list '" + path + "': "
             + std::generic_category().message(errno));
        return entries;
    }
    // One lstat per entry, relative to the open directory, yields the
    // type and a file's size and mtime together, so a walk never stats
    // a listed path again. lstat does not follow links: a symbolic link
    // (to a file or a directory) is skipped with the sockets, fifos and
    // devices, which keeps a linked directory cycle from being walked
    // forever and a linked file from being indexed under two paths.
    while (const dirent *de = ::readdir(dir)) {
        std::string_view name(de->d_name);
        if (name == "." || name == "..")
            continue;
        struct stat st;
        if (::fstatat(::dirfd(dir), de->d_name, &st, AT_SYMLINK_NOFOLLOW)
            != 0)
            continue; // vanished between readdir and lstat
        if (S_ISDIR(st.st_mode))
            entries.push_back(DirEntry{std::string(name), true});
        else if (S_ISREG(st.st_mode))
            entries.push_back(DirEntry{std::string(name), false,
                                       static_cast<std::uint64_t>(st.st_size),
                                       mtimeStamp(st)});
    }
    ::closedir(dir);
    std::sort(entries.begin(), entries.end(),
              [](const DirEntry &a, const DirEntry &b) {
                  return a.name < b.name;
              });
    return entries;
}

bool
DiskFs::isDirectory(const std::string &path) const
{
    std::error_code ec;
    return stdfs::is_directory(resolve(path), ec) && !ec;
}

bool
DiskFs::isFile(const std::string &path) const
{
    std::error_code ec;
    return stdfs::is_regular_file(resolve(path), ec) && !ec;
}

std::uint64_t
DiskFs::fileSize(const std::string &path) const
{
    struct stat st;
    return statFile(resolve(path), st)
        ? static_cast<std::uint64_t>(st.st_size)
        : 0;
}

std::uint64_t
DiskFs::fileMtime(const std::string &path) const
{
    struct stat st;
    return statFile(resolve(path), st) ? mtimeStamp(st) : 0;
}

bool
DiskFs::readFile(const std::string &path, std::string &out) const
{
    // Injectable I/O failure (util/fault.hh): a live filesystem loses
    // files and permissions mid-run; tests arm this to prove callers
    // skip or retry instead of crashing.
    if (faultFires("disk_fs.read"))
        return false;
    std::ifstream in(resolve(path), std::ios::binary);
    if (!in)
        return false;
    in.seekg(0, std::ios::end);
    std::streampos size = in.tellg();
    if (size < 0)
        return false;
    out.resize(static_cast<std::size_t>(size));
    in.seekg(0, std::ios::beg);
    in.read(out.data(), size);
    return static_cast<bool>(in) || size == 0;
}

} // namespace dsearch
