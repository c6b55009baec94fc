/**
 * @file
 * The inverted index: term -> list of documents containing the term.
 *
 * Implemented as the paper describes: a hash map (FNV1 hashing) from
 * term to posting list. Two insertion paths exist:
 *
 *  - addBlock() takes a file's unique terms en bloc. Because each file
 *    is scanned exactly once and duplicates were already eliminated in
 *    the extractor, no (term, doc) duplicate check is needed — the
 *    design choice §3 of the paper argues for.
 *
 *  - addOccurrence() inserts a single occurrence and performs the
 *    linear duplicate scan the paper describes for the rejected
 *    immediate-insertion design. It exists for ablation E7.
 *
 * Zero-copy / hash-once contract: TermBlock spans carry the FNV-1a
 * hash the extractor computed, and every insert path hands that hash
 * to the map (findOrEmplaceHashed), so Stage 3 never re-hashes a term
 * and only materializes a std::string key the first time a term is
 * seen globally. merge() — the concatenating join behind
 * joinSequential/joinParallel — likewise moves slots between maps
 * with their cached hashes, and the merge-and-pack seal partitions
 * and probes lanes by them, so a term is hashed once in the build,
 * by the scanner, and again only when the sealed term table is made.
 *
 * The class itself is single-threaded; concurrent use is coordinated
 * by SharedIndex (Implementation 1) or by giving each thread a private
 * replica (Implementations 2 and 3).
 */

#ifndef DSEARCH_INDEX_INVERTED_INDEX_HH
#define DSEARCH_INDEX_INVERTED_INDEX_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "text/term_extractor.hh"
#include "util/hash_map.hh"

namespace dsearch {

/** Documents containing a term, in insertion order (unsorted). */
using PostingList = std::vector<DocId>;

/** Single-threaded inverted index; see the file comment. */
class InvertedIndex
{
  public:
    InvertedIndex() = default;

    InvertedIndex(const InvertedIndex &) = delete;
    InvertedIndex &operator=(const InvertedIndex &) = delete;

    // Explicit moves so the moved-from index reads as empty (the
    // defaulted ones would copy the posting counter).
    InvertedIndex(InvertedIndex &&other) noexcept
        : _map(std::move(other._map)),
          _postings(std::exchange(other._postings, 0))
    {
    }

    InvertedIndex &
    operator=(InvertedIndex &&other) noexcept
    {
        _map = std::move(other._map);
        _postings = std::exchange(other._postings, 0);
        return *this;
    }

    /**
     * Insert one file's unique terms en bloc (no duplicate checks;
     * the extractor guarantees uniqueness). Reuses the hashes cached
     * in the block's spans.
     */
    void addBlock(const TermBlock &block);

    /**
     * En-bloc insert of a subset of a block's terms, given by span
     * indices: same semantics as addBlock() restricted to those spans.
     * Used by the sharded-lock wrapper, which groups a block's terms
     * by shard.
     */
    void addBlockSpans(const TermBlock &block,
                       const std::uint32_t *indices, std::size_t count);

    /**
     * Insert one term occurrence, checking the posting list for a
     * previous (term, doc) pair — the linear search the en-bloc
     * design eliminates.
     */
    void addOccurrence(std::string_view term, DocId doc);

    /** addOccurrence() with a caller-supplied term hash. */
    void addOccurrenceHashed(std::uint64_t hash, std::string_view term,
                             DocId doc);

    /**
     * Append @p count postings to @p term's list with no duplicate
     * check — the bulk path for materializing a sealed segment back
     * into mutable form (live-index compaction decodes each term's
     * cursor into a scratch buffer and hands it here). The caller
     * owns the no-duplicates invariant, exactly as in addBlock().
     */
    void addPostings(std::string_view term, const DocId *docs,
                     std::size_t count);

    /**
     * @return Posting list for @p term, or nullptr when the term is
     *         unknown. Heterogeneous: no std::string is allocated for
     *         the probe.
     */
    const PostingList *postings(std::string_view term) const;

    /** @return Number of distinct terms. */
    std::size_t termCount() const { return _map.size(); }

    /** @return Total (term, doc) pairs across all posting lists. */
    std::uint64_t postingCount() const { return _postings; }

    /** @return True when the index holds nothing. */
    bool empty() const { return _map.empty(); }

    /** Drop all content. */
    void clear();

    /**
     * Explicit deep copy. Indices are move-only so accidental copies
     * of multi-million-posting tables cannot happen silently; cloning
     * is for benchmarks and tools that need to reuse a replica set.
     */
    InvertedIndex clone() const;

    /**
     * Merge another index into this one (the concatenating join;
     * Implementation 2's seal merges lanes without it, see
     * PostingSegment::build).
     *
     * Posting lists for shared terms are concatenated; when document
     * sets were disjoint (as in the generator, where each file is
     * processed by exactly one thread) the result has no duplicates.
     * Slots move over with their cached hashes — no term is re-hashed.
     * @p other is left empty.
     */
    void merge(InvertedIndex &&other);

    /**
     * Remove every posting of @p doc (incremental maintenance: the
     * file was deleted or is being re-indexed). Linear in the total
     * posting count; desktop-scale indices tolerate that for the
     * rare-delete case.
     *
     * @return Number of postings removed.
     */
    std::uint64_t removeDoc(DocId doc);

    /**
     * Erase terms whose posting lists became empty (after
     * removeDoc()).
     *
     * @return Number of terms erased.
     */
    std::size_t eraseEmptyTerms();

    /**
     * Sort every posting list ascending (canonical form for
     * comparison, serialization and search).
     */
    void sortPostings();

    /**
     * Visit every (term, postings) pair.
     *
     * @param fn Callable taking (const std::string &,
     *           const PostingList &). Iteration order is hash order.
     */
    template <typename Fn>
    void
    forEachTerm(Fn &&fn) const
    {
        for (const auto &slot : _map)
            fn(slot.key, slot.value);
    }

    /**
     * Visit every term with its cached hash and a mutable posting
     * list: (std::uint64_t hash, const std::string &, PostingList &).
     * The seal path sorts a list in place when it is unsorted and
     * frees it once packed; keys and hashes stay read-only, so
     * threads that each touch only the lists of the terms they own
     * never race (hash order).
     */
    template <typename Fn>
    void
    forEachHashedTerm(Fn &&fn)
    {
        for (auto &slot : _map)
            fn(std::uint64_t{slot.hash}, std::as_const(slot.key),
               slot.value);
    }

    /**
     * postings() with the caller's cached hash and a mutable list
     * (the seal path's cross-lane probe); nullptr when unknown.
     */
    PostingList *postingsHashed(std::uint64_t hash,
                                std::string_view term);

    /** Pre-size the term table for @p expected_terms entries. */
    void reserveTerms(std::size_t expected_terms);

  private:
    HashMap<std::string, PostingList> _map;
    std::uint64_t _postings = 0;
};

/**
 * Structural equality after canonicalization: same term set, same
 * sorted posting lists. Both arguments must already be sorted via
 * sortPostings().
 */
bool sameContents(const InvertedIndex &a, const InvertedIndex &b);

} // namespace dsearch

#endif // DSEARCH_INDEX_INVERTED_INDEX_HH
