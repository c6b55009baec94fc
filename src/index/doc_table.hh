/**
 * @file
 * Document table: the docID <-> filename mapping.
 *
 * Document IDs are assigned once, by the single-threaded Stage 1, so
 * every index replica agrees on file identity and the later join is a
 * disjoint merge. The table is immutable while the parallel stages
 * run, which is what makes lock-free sharing of it safe.
 *
 * Sharing: the live index appends to its table every cycle and
 * publishes a copy of it with every generation, so a copy must not
 * cost O(docs) in strings. Paths are stored in chunks of chunk_docs
 * entries. A full chunk never changes again and is held by
 * shared_ptr, so copies share it; only the partial tail chunk (fewer
 * than chunk_docs paths) is deep-copied, and add() never writes into
 * a chunk another copy can see. Sizes stay one flat array (8 bytes a
 * document, copied) so sizeBytes() — ranked scoring's per-hit lookup
 * — stays a single index.
 *
 * Thread safety: one DocTable object is not safe to mutate while
 * another thread uses it. Distinct copies are independent values and
 * may be used from different threads at once — one appending while
 * others read theirs — because the chunks they share are immutable
 * and shared_ptr reference counts are atomic.
 */

#ifndef DSEARCH_INDEX_DOC_TABLE_HH
#define DSEARCH_INDEX_DOC_TABLE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fs/traversal.hh"

namespace dsearch {

/** Append-only docID <-> path table; see the file comment. */
class DocTable
{
  public:
    /** Paths per shared chunk. */
    static constexpr std::size_t chunk_docs = 256;

    DocTable() = default;

    /** Build directly from Stage 1 output (IDs must be dense). */
    static DocTable fromFileList(const FileList &files);

    /**
     * Append a document.
     *
     * @param path Virtual path of the file.
     * @param size File size in bytes.
     * @return The assigned document ID (dense, starting at 0).
     */
    DocId add(std::string path, std::uint64_t size);

    /** @return Number of documents. */
    std::size_t docCount() const { return _sizes.size(); }

    /** @return Path of @p doc (panics on out-of-range IDs). */
    const std::string &path(DocId doc) const;

    /** @return Recorded size of @p doc in bytes. */
    std::uint64_t sizeBytes(DocId doc) const;

    /** @return True when @p doc is a valid ID for this table. */
    bool
    contains(DocId doc) const
    {
        return doc < _sizes.size();
    }

  private:
    using Chunk = std::vector<std::string>;

    /** Seal the tail as a shared full chunk and start a new tail. */
    void sealTail();

    std::vector<std::shared_ptr<const Chunk>> _full; ///< Immutable.
    Chunk _tail;                      ///< < chunk_docs paths, owned.
    std::vector<std::uint64_t> _sizes; ///< One per document.
};

} // namespace dsearch

#endif // DSEARCH_INDEX_DOC_TABLE_HH
