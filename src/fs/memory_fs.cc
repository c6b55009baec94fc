#include "fs/memory_fs.hh"

#include "util/logging.hh"
#include "util/string_util.hh"

namespace dsearch {

/**
 * Filesystem node: either a directory (children ordered by name for
 * deterministic listings) or a regular file with inline content.
 */
struct MemoryFs::Node
{
    bool is_dir = true;
    std::string content;
    std::uint64_t mtime = 0;
    std::map<std::string, std::unique_ptr<Node>> children;
};

MemoryFs::MemoryFs() : _root(std::make_unique<Node>()) {}

MemoryFs::~MemoryFs() = default;

const MemoryFs::Node *
MemoryFs::lookup(const std::string &path) const
{
    const Node *node = _root.get();
    for (const std::string &part : split(path, '/')) {
        if (!node->is_dir)
            return nullptr;
        auto it = node->children.find(part);
        if (it == node->children.end())
            return nullptr;
        node = it->second.get();
    }
    return node;
}

MemoryFs::Node *
MemoryFs::makeDirs(const std::string &path)
{
    Node *node = _root.get();
    for (const std::string &part : split(path, '/')) {
        if (!node->is_dir)
            panic("MemoryFs: file in the middle of path '" + path + "'");
        auto it = node->children.find(part);
        if (it == node->children.end()) {
            it = node->children
                     .emplace(part, std::make_unique<Node>())
                     .first;
        }
        node = it->second.get();
    }
    if (!node->is_dir)
        panic("MemoryFs: '" + path + "' exists as a file");
    return node;
}

void
MemoryFs::addFile(const std::string &path, std::string content)
{
    std::vector<std::string> parts = split(path, '/');
    if (parts.empty())
        panic("MemoryFs::addFile: empty path");
    std::string leaf = parts.back();
    std::string dir = "/";
    for (std::size_t i = 0; i + 1 < parts.size(); ++i)
        dir = joinPath(dir, parts[i]);

    Node *parent = makeDirs(dir);
    auto it = parent->children.find(leaf);
    if (it != parent->children.end()) {
        if (it->second->is_dir)
            panic("MemoryFs: '" + path + "' exists as a directory");
        _total_bytes -= it->second->content.size();
        --_file_count;
    } else {
        it = parent->children.emplace(leaf, std::make_unique<Node>())
                 .first;
    }
    Node *file = it->second.get();
    file->is_dir = false;
    _total_bytes += content.size();
    file->content = std::move(content);
    file->mtime = ++_clock;
    ++_file_count;
}

void
MemoryFs::mkdirs(const std::string &path)
{
    makeDirs(path);
}

std::vector<DirEntry>
MemoryFs::list(const std::string &path) const
{
    std::vector<DirEntry> entries;
    const Node *node = lookup(path);
    if (node == nullptr || !node->is_dir)
        return entries;
    entries.reserve(node->children.size());
    for (const auto &[name, child] : node->children) {
        if (child->is_dir)
            entries.push_back(DirEntry{name, true});
        else
            entries.push_back(DirEntry{name, false, child->content.size(),
                                       child->mtime});
    }
    return entries;
}

bool
MemoryFs::isDirectory(const std::string &path) const
{
    const Node *node = lookup(path);
    return node != nullptr && node->is_dir;
}

bool
MemoryFs::isFile(const std::string &path) const
{
    const Node *node = lookup(path);
    return node != nullptr && !node->is_dir;
}

std::uint64_t
MemoryFs::fileSize(const std::string &path) const
{
    const Node *node = lookup(path);
    if (node == nullptr || node->is_dir)
        return 0;
    return node->content.size();
}

std::uint64_t
MemoryFs::fileMtime(const std::string &path) const
{
    const Node *node = lookup(path);
    if (node == nullptr || node->is_dir)
        return 0;
    return node->mtime;
}

bool
MemoryFs::readFile(const std::string &path, std::string &out) const
{
    const Node *node = lookup(path);
    if (node == nullptr || node->is_dir)
        return false;
    out = node->content;
    return true;
}

} // namespace dsearch
