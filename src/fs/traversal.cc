#include "fs/traversal.hh"

#include "util/logging.hh"

namespace dsearch {

namespace {

void
walk(const FileSystem &fs, const std::string &dir,
     const std::function<void(const std::string &, std::uint64_t)>
         &visit)
{
    for (const DirEntry &entry : fs.list(dir)) {
        std::string path = joinPath(dir, entry.name);
        if (entry.is_dir)
            walk(fs, path, visit);
        else
            visit(path, entry.size);
    }
}

} // namespace

void
traverseFiles(const FileSystem &fs, const std::string &root,
              const std::function<void(const std::string &,
                                       std::uint64_t)> &visit)
{
    if (fs.isFile(root)) {
        visit(root, fs.fileSize(root));
        return;
    }
    if (!fs.isDirectory(root)) {
        warn("traverseFiles: root '" + root + "' does not exist");
        return;
    }
    walk(fs, root, visit);
}

FileList
generateFilenames(const FileSystem &fs, const std::string &root)
{
    FileList files;
    traverseFiles(fs, root,
                  [&files](const std::string &path, std::uint64_t size) {
                      FileEntry entry;
                      entry.doc = static_cast<DocId>(files.size());
                      entry.path = path;
                      entry.size = size;
                      files.push_back(std::move(entry));
                  });
    return files;
}

} // namespace dsearch
