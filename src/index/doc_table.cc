#include "index/doc_table.hh"

#include "util/logging.hh"

namespace dsearch {

DocTable
DocTable::fromFileList(const FileList &files)
{
    DocTable table;
    table._full.reserve(files.size() / chunk_docs);
    table._sizes.reserve(files.size());
    table._tail.reserve(chunk_docs);
    for (const FileEntry &file : files) {
        if (file.doc != table._sizes.size())
            panic("DocTable::fromFileList: non-dense document IDs");
        table._tail.push_back(file.path);
        table._sizes.push_back(file.size);
        if (table._tail.size() == chunk_docs)
            table.sealTail();
    }
    return table;
}

void
DocTable::sealTail()
{
    _full.push_back(std::make_shared<const Chunk>(std::move(_tail)));
    _tail = Chunk();
    _tail.reserve(chunk_docs);
}

DocId
DocTable::add(std::string path, std::uint64_t size)
{
    DocId doc = static_cast<DocId>(_sizes.size());
    _tail.push_back(std::move(path));
    _sizes.push_back(size);
    if (_tail.size() == chunk_docs)
        sealTail();
    return doc;
}

const std::string &
DocTable::path(DocId doc) const
{
    if (doc >= _sizes.size())
        panic("DocTable::path: document ID out of range");
    std::size_t chunk = doc / chunk_docs;
    std::size_t slot = doc % chunk_docs;
    return chunk < _full.size() ? (*_full[chunk])[slot] : _tail[slot];
}

std::uint64_t
DocTable::sizeBytes(DocId doc) const
{
    if (doc >= _sizes.size())
        panic("DocTable::sizeBytes: document ID out of range");
    return _sizes[doc];
}

} // namespace dsearch
