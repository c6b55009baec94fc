/**
 * @file
 * IndexSnapshot: the immutable, compressed read side of a built index.
 *
 * Sealing separates the build organization (IndexBackend) from the
 * query-time reader: whatever organization produced the postings —
 * shared-locked, sharded, replicated-joined or unjoined replicas —
 * queries see only a snapshot of one or more *segments*, each an
 * immutable PostingSegment whose per-term access is a PostingCursor.
 *
 * A PostingSegment is not the build-side hash-map-of-vectors: sealing
 * merges each term's lists from one or more build-side indices into
 * one sorted list, block-encodes it (see posting_block.hh) into one
 * contiguous per-segment arena — every term's blocks back to back —
 * and drops the per-term heap vectors. The merge and the encode run
 * term-partitioned on several threads (PostingSegment::build), which
 * is how Implementation 2's "Join Forces" step now happens: its
 * replicas are never concatenated into one mutable index first. The
 * term table maps term -> {offset, byte length, count, skip range};
 * the segment also caches its terms in lexicographic order so
 * serialization and ordered iteration never re-sort. The build-side
 * InvertedIndex stays uncompressed, so Stage-3 insert throughput is
 * untouched; only sealed, read-only data pays the (en-masse,
 * cache-friendly) encode.
 *
 *  - Joined organizations seal to a single segment; Searcher and
 *    RankedSearcher require that (unified()).
 *  - Implementation 3 seals its unjoined replicas to one segment per
 *    replica; MultiSearcher evaluates segments in parallel.
 *
 * Snapshots share segments by reference: copying a snapshot is two
 * pointer copies, and every copy (and every cursor vended from it)
 * stays valid for as long as any copy lives.
 */

#ifndef DSEARCH_INDEX_INDEX_SNAPSHOT_HH
#define DSEARCH_INDEX_INDEX_SNAPSHOT_HH

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "index/inverted_index.hh"
#include "index/posting_block.hh"
#include "index/posting_cursor.hh"

namespace dsearch {

/** Where a merge-and-pack seal (PostingSegment::build) spent its time. */
struct SealTimes
{
    /** Wall seconds of the parallel k-way merge + block packing. */
    double merge = 0.0;

    /** Wall seconds assembling the shares into the segment. */
    double assemble = 0.0;
};

/**
 * One sealed segment: every term's postings block-compressed into a
 * single contiguous arena, plus a hashed term table and the cached
 * lexicographic term order. Immutable after build()/load; move-only
 * (cursors and the sorted order point into its storage).
 */
class PostingSegment
{
  public:
    /** Where one term's postings live inside the segment arenas. */
    struct TermEntry
    {
        std::uint64_t offset = 0;     ///< First byte in the arena.
        std::uint32_t bytes = 0;      ///< Encoded byte length.
        std::uint32_t count = 0;      ///< Documents in the list.
        std::uint32_t skip_begin = 0; ///< First entry in the skip arena.
        std::uint32_t skip_count = 0; ///< Blocks after the first.
    };

    PostingSegment() = default;

    // Move-only: _sorted points into _terms' slot storage, which
    // vector moves preserve but copies would not.
    PostingSegment(PostingSegment &&) noexcept = default;
    PostingSegment &operator=(PostingSegment &&) noexcept = default;
    PostingSegment(const PostingSegment &) = delete;
    PostingSegment &operator=(const PostingSegment &) = delete;

    /**
     * Merge-and-pack seal of @p lanes into one segment — the only
     * seal path; a single index is the k = 1 case.
     *
     * @p threads threads each own the terms whose cached hash falls
     * in their share (hash % threads). For each owned term a thread
     * k-way merges the term's lists from every lane — sorting a lane
     * list in place only when it is not already sorted — and packs
     * the merged list straight into a private arena plus skip
     * entries. Skip offsets are term-relative, so the per-thread
     * arenas then concatenate into the segment with only the term
     * entries rebased (reserveSealed / addSealedTerm / finishSealed).
     * The bytes are identical to sorting the concatenated lists and
     * encoding them, whatever the lane split or thread count.
     *
     * @param lanes   Indices to merge (consumed). Their document sets
     *                should be disjoint, as the generator's lanes are;
     *                a document in two lanes is kept twice.
     * @param threads Merge-and-pack threads (0 is taken as 1).
     * @param codec   Block codec; fresh seals default to the
     *                bit-packed one, varint exists for the v2 writer
     *                and A/B benching.
     * @param times   When non-null, receives the phase split.
     */
    static PostingSegment build(std::vector<InvertedIndex> &&lanes,
                                std::size_t threads = 1,
                                PostingCodec codec = PostingCodec::Packed,
                                SealTimes *times = nullptr);

    /** @return The block codec this segment's postings use. */
    PostingCodec codec() const { return _codec; }

    /**
     * Set the codec before assembling via addSealedTerm() (the v2/v3
     * loaders; bytes must already match the codec's layout).
     */
    void setCodec(PostingCodec codec) { _codec = codec; }

    /**
     * @return Documents in @p term's posting list, 0 for unknown
     *         terms. Pure term-table lookup — unlike cursor(), this
     *         never decodes a block, so df/metadata aggregation stays
     *         O(1) per term.
     */
    std::uint32_t
    termDocCount(std::string_view term) const
    {
        const TermEntry *entry = _terms.find(term);
        return entry == nullptr ? 0 : entry->count;
    }

    /**
     * @return Decoding cursor over @p term's postings; an exhausted
     *         cursor when the term is unknown. Heterogeneous probe
     *         (no std::string allocated).
     */
    PostingCursor cursor(std::string_view term) const;

    /** @return Distinct terms in this segment. */
    std::size_t termCount() const { return _terms.size(); }

    /** @return Total (term, doc) postings in this segment. */
    std::uint64_t postingCount() const { return _postings; }

    /** @return True when the segment holds nothing. */
    bool empty() const { return _terms.empty(); }

    /**
     * @return Bytes of compressed posting storage (block arena plus
     *         skip entries); the raw equivalent is
     *         postingCount() * sizeof(DocId).
     */
    std::uint64_t
    postingBytes() const
    {
        return _arena.size() + _skips.size() * sizeof(SkipEntry);
    }

    /**
     * Visit every (term, cursor) pair in lexicographic term order;
     * @p fn takes (const std::string &, PostingCursor).
     */
    template <typename Fn>
    void
    forEachTerm(Fn &&fn) const
    {
        for (const TermSlot *slot : _sorted)
            fn(slot->key, cursorFor(slot->value));
    }

    /**
     * Visit every (term, TermEntry) pair in lexicographic term order
     * (serialization: entries locate the raw encoded bytes).
     */
    template <typename Fn>
    void
    forEachSortedEntry(Fn &&fn) const
    {
        for (const TermSlot *slot : _sorted)
            fn(slot->key, slot->value);
    }

    /** @return The shared block arena (serialization). */
    const std::vector<std::uint8_t> &arena() const { return _arena; }

    /** @return The shared skip-entry arena (serialization). */
    const std::vector<SkipEntry> &skips() const { return _skips; }

    // ------------------------------------------------------------------
    // Assembly interface (the snapshot loaders and build()'s final
    // step): a segment is assembled term by term from blocks encoded
    // elsewhere, then finished.
    // ------------------------------------------------------------------

    /** Pre-size the arenas and term table (one allocation each). */
    void reserveSealed(std::size_t terms, std::size_t arena_bytes,
                       std::size_t skip_entries);

    /**
     * Append one term whose blocks were encoded elsewhere (a
     * merge-and-pack share, or the loader after validating bytes and
     * skips against posting_block.hh's layout).
     *
     * @return False when the term already exists (corrupt input).
     */
    bool addSealedTerm(std::string term, std::uint32_t count,
                       const std::uint8_t *bytes, std::uint32_t byte_len,
                       const SkipEntry *skips, std::uint32_t skip_count);

    /**
     * addSealedTerm() with the term's hash already known (a seal
     * carries each lane's cached hash): the key is moved into the
     * table and never hashed again. @p hash must equal the term
     * table's FnvHash of @p term.
     */
    bool addSealedTermHashed(std::size_t hash, std::string term,
                             std::uint32_t count,
                             const std::uint8_t *bytes,
                             std::uint32_t byte_len,
                             const SkipEntry *skips,
                             std::uint32_t skip_count);

    /** Rebuild the cached lexicographic order after addSealedTerm(). */
    void finishSealed();

  private:
    using TermMap = HashMap<std::string, TermEntry>;
    using TermSlot = TermMap::Slot;

    /** @return Cursor over @p entry's blocks. */
    PostingCursor
    cursorFor(const TermEntry &entry) const
    {
        return PostingCursor(
            _arena.data() + entry.offset,
            entry.skip_count != 0 ? _skips.data() + entry.skip_begin
                                  : nullptr,
            entry.skip_count, entry.count, _codec);
    }

    TermMap _terms;
    std::vector<const TermSlot *> _sorted; ///< Lexicographic order.
    std::vector<std::uint8_t> _arena;      ///< All blocks, contiguous.
    std::vector<SkipEntry> _skips;         ///< All skip entries.
    std::uint64_t _postings = 0;
    PostingCodec _codec = PostingCodec::Packed;
};

/**
 * Non-owning reader over one sealed segment. Cheap to copy; valid as
 * long as the snapshot that vended it (or a copy) lives.
 *
 * Readers normally wrap a compressed PostingSegment; the raw
 * InvertedIndex form exists for the legacy mutable-index persistence
 * overloads (serialize.cc), which canonicalize in place and write
 * through cursors without sealing first.
 */
class SegmentReader
{
  public:
    /** A reader over nothing (zero terms). */
    SegmentReader() = default;

    /** @param segment Sealed segment (may be null = empty). */
    explicit SegmentReader(const PostingSegment *segment)
        : _segment(segment)
    {
    }

    /**
     * @param raw Canonicalized (sorted posting lists) mutable index;
     *            legacy persistence path only.
     */
    explicit SegmentReader(const InvertedIndex *raw) : _raw(raw) {}

    /**
     * @return Cursor over @p term's postings; an exhausted cursor when
     *         the term is unknown. Heterogeneous probe (no std::string
     *         allocated).
     */
    PostingCursor cursor(std::string_view term) const;

    /** @return Distinct terms in this segment. */
    std::size_t termCount() const;

    /** @return Total (term, doc) postings in this segment. */
    std::uint64_t postingCount() const;

    /**
     * @return Documents in @p term's posting list, 0 when unknown —
     *         a metadata lookup that never decodes a posting block
     *         (unlike cursor(term).count(), which decodes the first).
     */
    std::uint32_t termDocCount(std::string_view term) const;

    /** @return True when the segment holds nothing. */
    bool empty() const { return termCount() == 0; }

    /**
     * @return The sealed segment, or null for the legacy raw form
     *         (serialization switches formats on this).
     */
    const PostingSegment *sealed() const { return _segment; }

    /**
     * Visit every (term, cursor) pair; @p fn takes
     * (const std::string &, PostingCursor). Sealed segments iterate
     * in lexicographic term order; the legacy raw form in hash order.
     */
    template <typename Fn>
    void
    forEachTerm(Fn &&fn) const
    {
        if (_segment != nullptr) {
            _segment->forEachTerm(std::forward<Fn>(fn));
        } else if (_raw != nullptr) {
            _raw->forEachTerm(
                [&fn](const std::string &term, const PostingList &list) {
                    fn(term, PostingCursor(list.data(), list.size()));
                });
        }
    }

  private:
    const PostingSegment *_segment = nullptr;
    const InvertedIndex *_raw = nullptr;
};

/** Immutable multi-segment read view; see the file comment. */
class IndexSnapshot
{
  public:
    /** An empty snapshot: zero segments, unified, no terms. */
    IndexSnapshot() = default;

    /**
     * Seal one index into a single-segment snapshot: sort the lists
     * that are not sorted, block-compress into the segment arena
     * (bit-packed by default), drop the build-side vectors. This is
     * the k = 1, one-thread case of sealMerged().
     */
    static IndexSnapshot seal(InvertedIndex &&index,
                              PostingCodec codec = PostingCodec::Packed);

    /**
     * Merge @p lanes into one single-segment snapshot with @p threads
     * merge-and-pack threads (PostingSegment::build). The result is
     * byte-identical to seal(joinSequential(lanes)).
     */
    static IndexSnapshot sealMerged(std::vector<InvertedIndex> &&lanes,
                                    std::size_t threads,
                                    PostingCodec codec
                                    = PostingCodec::Packed,
                                    SealTimes *times = nullptr);

    /**
     * Seal a replica set, one segment per replica (empty replicas
     * keep their position so segment i is still replica i's slice).
     */
    static IndexSnapshot seal(std::vector<InvertedIndex> &&replicas,
                              PostingCodec codec = PostingCodec::Packed);

    /**
     * Wrap an already-sealed segment (the v2 snapshot loader, whose
     * blocks come off disk verbatim).
     */
    static IndexSnapshot fromSealed(PostingSegment &&segment);

    /** @return Number of segments (0 for an empty snapshot). */
    std::size_t segmentCount() const { return _segments.size(); }

    /** @return Reader over segment @p i (panics out of range). */
    SegmentReader segment(std::size_t i) const;

    /**
     * @return True when single-index query code (Searcher,
     *         RankedSearcher, serialization) can use this snapshot
     *         directly: at most one segment.
     */
    bool unified() const { return _segments.size() <= 1; }

    // ------------------------------------------------------------------
    // Single-segment conveniences; all panic on multi-segment
    // snapshots (use segment(i) / MultiSearcher there).
    // ------------------------------------------------------------------

    /** @return Cursor over @p term in the unified segment. */
    PostingCursor cursor(std::string_view term) const;

    /**
     * @return termDocCount() of the unified segment: @p term's df
     *         without decoding any posting block.
     */
    std::uint32_t termDocCount(std::string_view term) const;

    /** @return Distinct terms in the unified segment. */
    std::size_t termCount() const;

    /** @return Total postings in the unified segment. */
    std::uint64_t postingCount() const;

    /** @return True when the snapshot holds no postings at all. */
    bool empty() const;

    /** forEachTerm() of the unified segment. */
    template <typename Fn>
    void
    forEachTerm(Fn &&fn) const
    {
        unifiedReader().forEachTerm(std::forward<Fn>(fn));
    }

  private:
    /** The single segment's reader (panics when not unified()). */
    SegmentReader unifiedReader() const;

    /** Shared, immutable segments (never mutated after sealing). */
    std::vector<std::shared_ptr<const PostingSegment>> _segments;
};

} // namespace dsearch

#endif // DSEARCH_INDEX_INDEX_SNAPSHOT_HH
