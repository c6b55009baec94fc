#include "fs/mutable_memory_fs.hh"

#include <mutex>

#include "util/logging.hh"

namespace dsearch {

std::string
MutableMemoryFs::normalize(const std::string &path)
{
    std::string norm;
    norm.reserve(path.size() + 1);
    for (char c : path) {
        if (c == '/' && !norm.empty() && norm.back() == '/')
            continue;
        norm.push_back(c);
    }
    if (norm.empty() || norm.front() != '/')
        norm.insert(norm.begin(), '/');
    while (norm.size() > 1 && norm.back() == '/')
        norm.pop_back();
    return norm;
}

void
MutableMemoryFs::addFile(const std::string &path, std::string content)
{
    std::string norm = normalize(path);
    if (norm == "/")
        panic("MutableMemoryFs::addFile: empty path");
    std::unique_lock lock(_mutex);
    File &file = _files[norm];
    file.content = std::move(content);
    file.mtime = ++_clock;
}

bool
MutableMemoryFs::removeFile(const std::string &path)
{
    std::string norm = normalize(path);
    std::unique_lock lock(_mutex);
    return _files.erase(norm) > 0;
}

std::size_t
MutableMemoryFs::fileCount() const
{
    std::shared_lock lock(_mutex);
    return _files.size();
}

std::uint64_t
MutableMemoryFs::clock() const
{
    std::shared_lock lock(_mutex);
    return _clock;
}

bool
MutableMemoryFs::isDirectoryLocked(const std::string &norm) const
{
    if (norm == "/")
        return true;
    // A directory exists iff some file path extends it past a '/'.
    std::string prefix = norm + "/";
    auto it = _files.lower_bound(prefix);
    return it != _files.end()
        && it->first.compare(0, prefix.size(), prefix) == 0;
}

std::vector<DirEntry>
MutableMemoryFs::list(const std::string &path) const
{
    std::vector<DirEntry> entries;
    std::string norm = normalize(path);
    std::string prefix = norm == "/" ? "/" : norm + "/";

    std::shared_lock lock(_mutex);
    // Files are kept sorted, so one ordered scan over the prefix range
    // yields both files (exact children) and implied subdirectories
    // (longer paths under the prefix) in lexicographic order. Each
    // subdirectory appears as a run of consecutive keys; skip to the
    // end of the run after emitting it once.
    auto it = _files.lower_bound(prefix);
    while (it != _files.end()
           && it->first.compare(0, prefix.size(), prefix) == 0) {
        std::string_view rest(it->first);
        rest.remove_prefix(prefix.size());
        std::size_t slash = rest.find('/');
        if (slash == std::string_view::npos) {
            entries.push_back(DirEntry{std::string(rest), false,
                                       it->second.content.size(),
                                       it->second.mtime});
            ++it;
        } else {
            std::string name(rest.substr(0, slash));
            entries.push_back(DirEntry{name, true});
            // Skip past every key inside this subdirectory: they all
            // start with prefix+name+"/", and '0' is '/'+1, so
            // prefix+name+"0" upper-bounds the run.
            it = _files.lower_bound(prefix + name + "0");
        }
    }
    return entries;
}

bool
MutableMemoryFs::isDirectory(const std::string &path) const
{
    std::string norm = normalize(path);
    std::shared_lock lock(_mutex);
    return isDirectoryLocked(norm);
}

bool
MutableMemoryFs::isFile(const std::string &path) const
{
    std::string norm = normalize(path);
    std::shared_lock lock(_mutex);
    return _files.count(norm) > 0;
}

std::uint64_t
MutableMemoryFs::fileSize(const std::string &path) const
{
    std::string norm = normalize(path);
    std::shared_lock lock(_mutex);
    auto it = _files.find(norm);
    return it == _files.end() ? 0 : it->second.content.size();
}

std::uint64_t
MutableMemoryFs::fileMtime(const std::string &path) const
{
    std::string norm = normalize(path);
    std::shared_lock lock(_mutex);
    auto it = _files.find(norm);
    return it == _files.end() ? 0 : it->second.mtime;
}

bool
MutableMemoryFs::readFile(const std::string &path, std::string &out)
    const
{
    std::string norm = normalize(path);
    std::shared_lock lock(_mutex);
    auto it = _files.find(norm);
    if (it == _files.end())
        return false;
    out = it->second.content;
    return true;
}

} // namespace dsearch
