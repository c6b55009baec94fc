#include "index/index_snapshot.hh"

#include <algorithm>
#include <exception>
#include <thread>

#include "util/logging.hh"
#include "util/timer.hh"

namespace dsearch {

// ----------------------------------------------------------------------
// PostingSegment
// ----------------------------------------------------------------------

namespace {

/**
 * One merge-and-pack thread's output: the blocks of the terms it owns,
 * packed back to back into a private arena. Entry offsets and skip
 * positions are relative to this share; skip *contents* are relative
 * to each term's first block, so shares concatenate into the segment
 * with only the entries rebased.
 */
struct PackedShare
{
    struct Term
    {
        const std::string *key = nullptr; ///< Owned by an input lane.
        std::size_t hash = 0;             ///< The lane's cached hash.
        PostingSegment::TermEntry entry;
    };

    std::vector<std::uint8_t> arena;
    std::vector<SkipEntry> skips;
    std::vector<Term> terms;
};

/** One merge-and-pack thread's scratch, reused across terms. */
struct MergeScratch
{
    std::vector<DocId> out, tmp;
    std::vector<std::size_t> bounds;
};

/**
 * Merge the sorted @p runs into @p s.out: concatenate them, then merge
 * adjacent runs pairwise, bottom up, ping-ponging through @p s.tmp.
 */
void
mergeRuns(const std::vector<PostingList *> &runs, MergeScratch &s)
{
    s.out.clear();
    s.bounds.assign(1, 0);
    for (const PostingList *run : runs) {
        s.out.insert(s.out.end(), run->begin(), run->end());
        s.bounds.push_back(s.out.size());
    }
    std::vector<std::size_t> &bounds = s.bounds;
    s.tmp.resize(s.out.size());
    while (bounds.size() > 2) {
        // Pair runs (r, r+1); an odd last run is copied through.
        std::size_t kept = 1;
        for (std::size_t r = 0; r + 1 < bounds.size(); r += 2) {
            const std::size_t lo = bounds[r];
            const std::size_t mid = bounds[r + 1];
            const std::size_t hi =
                r + 2 < bounds.size() ? bounds[r + 2] : mid;
            std::merge(s.out.begin() + lo, s.out.begin() + mid,
                       s.out.begin() + mid, s.out.begin() + hi,
                       s.tmp.begin() + lo);
            bounds[kept++] = hi;
        }
        bounds.resize(kept);
        s.out.swap(s.tmp);
    }
}

/**
 * Merge and pack share @p share of @p shares: every term whose cached
 * hash falls in this share, in every lane. A term is handled where it
 * is first seen (the lowest lane holding it), which gathers its lists
 * from that lane and all later ones and then empties them; unsorted
 * lane lists (work stealing, size-balanced and shared-locked builds)
 * are sorted in place first. Terms with no postings left — already
 * packed, or removeDoc() leftovers — are skipped, so empty lists never
 * reach the segment, as a single-index seal always did.
 */
void
packShare(std::vector<InvertedIndex> &lanes, std::size_t share,
          std::size_t shares, PostingCodec codec, PackedShare &out)
{
    std::vector<PostingList *> runs;
    MergeScratch scratch;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        lanes[i].forEachHashedTerm([&](std::uint64_t hash,
                                       const std::string &term,
                                       PostingList &first) {
            if (hash % shares != share)
                return;
            runs.clear();
            std::size_t count = 0;
            for (std::size_t j = i; j < lanes.size(); ++j) {
                PostingList *list = j == i
                    ? &first
                    : lanes[j].postingsHashed(hash, term);
                if (list == nullptr || list->empty())
                    continue;
                if (!std::is_sorted(list->begin(), list->end()))
                    std::sort(list->begin(), list->end());
                runs.push_back(list);
                count += list->size();
            }
            if (count == 0)
                return;
            const DocId *docs = runs.front()->data();
            if (runs.size() > 1) {
                mergeRuns(runs, scratch);
                docs = scratch.out.data();
            }

            PackedShare::Term packed;
            packed.key = &term;
            packed.hash = static_cast<std::size_t>(hash);
            packed.entry.offset = out.arena.size();
            packed.entry.skip_begin =
                static_cast<std::uint32_t>(out.skips.size());
            if (codec == PostingCodec::Packed)
                encodePostingsPacked(docs, count, out.arena, out.skips);
            else
                encodePostings(docs, count, out.arena, out.skips);
            packed.entry.bytes = static_cast<std::uint32_t>(
                out.arena.size() - packed.entry.offset);
            packed.entry.count = static_cast<std::uint32_t>(count);
            packed.entry.skip_count = static_cast<std::uint32_t>(
                out.skips.size() - packed.entry.skip_begin);
            out.terms.push_back(packed);

            // Free the consumed lists on this thread, so dropping the
            // lanes afterwards is not a serial tail. Emptying them also
            // marks the term done: later lanes' visits find nothing.
            for (PostingList *run : runs)
                PostingList().swap(*run);
        });
    }
}

} // namespace

PostingSegment
PostingSegment::build(std::vector<InvertedIndex> &&lanes,
                      std::size_t threads, PostingCodec codec,
                      SealTimes *times)
{
    std::vector<InvertedIndex> source = std::move(lanes);
    const std::size_t shares = std::max<std::size_t>(1, threads);

    // Merge and pack: share t on thread t (share 0 on the caller). A
    // share's exception is carried out and rethrown once every
    // thread has joined, so no thread outlives the lanes.
    Timer merge_timer;
    std::vector<PackedShare> packed(shares);
    std::vector<std::exception_ptr> errors(shares);
    auto pack = [&](std::size_t t) {
        try {
            packShare(source, t, shares, codec, packed[t]);
        } catch (...) {
            errors[t] = std::current_exception();
        }
    };
    {
        std::vector<std::jthread> workers;
        workers.reserve(shares - 1);
        for (std::size_t t = 1; t < shares; ++t)
            workers.emplace_back(pack, t);
        pack(0);
    } // jthreads join here, on every path
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    if (times != nullptr)
        times->merge = merge_timer.elapsedSec();

    // Assemble: the shares' arenas back to back, entries rebased by
    // addSealedTerm(), each share freed once copied (so at most one
    // share's bytes exist twice); then the cached lexicographic order.
    Timer assemble_timer;
    std::size_t terms = 0, arena_bytes = 0, skip_entries = 0;
    for (const PackedShare &share : packed) {
        terms += share.terms.size();
        arena_bytes += share.arena.size();
        skip_entries += share.skips.size();
    }
    PostingSegment segment;
    segment._codec = codec;
    segment.reserveSealed(terms, arena_bytes, skip_entries);
    for (PackedShare &share : packed) {
        for (const PackedShare::Term &term : share.terms) {
            const TermEntry &e = term.entry;
            segment.addSealedTermHashed(term.hash, *term.key, e.count,
                                  share.arena.data() + e.offset, e.bytes,
                                  share.skips.data() + e.skip_begin,
                                  e.skip_count);
        }
        share = PackedShare();
    }
    segment.finishSealed();
    if (times != nullptr)
        times->assemble = assemble_timer.elapsedSec();
    return segment; // `source` (the uncompressed postings) dies here
}

PostingCursor
PostingSegment::cursor(std::string_view term) const
{
    const TermEntry *entry = _terms.find(term);
    if (entry == nullptr)
        return {};
    return cursorFor(*entry);
}

void
PostingSegment::reserveSealed(std::size_t terms,
                              std::size_t arena_bytes,
                              std::size_t skip_entries)
{
    _terms.reserve(terms);
    _arena.reserve(arena_bytes);
    _skips.reserve(skip_entries);
}

bool
PostingSegment::addSealedTerm(std::string term, std::uint32_t count,
                              const std::uint8_t *bytes,
                              std::uint32_t byte_len,
                              const SkipEntry *skips,
                              std::uint32_t skip_count)
{
    std::size_t hash = FnvHash<std::string>{}(term);
    return addSealedTermHashed(hash, std::move(term), count, bytes,
                               byte_len, skips, skip_count);
}

bool
PostingSegment::addSealedTermHashed(std::size_t hash, std::string term,
                                    std::uint32_t count,
                                    const std::uint8_t *bytes,
                                    std::uint32_t byte_len,
                                    const SkipEntry *skips,
                                    std::uint32_t skip_count)
{
    TermEntry entry;
    entry.offset = _arena.size();
    entry.bytes = byte_len;
    entry.count = count;
    entry.skip_begin = static_cast<std::uint32_t>(_skips.size());
    entry.skip_count = skip_count;
    if (!_terms.insertHashed(hash, std::move(term), entry))
        return false;
    _arena.insert(_arena.end(), bytes, bytes + byte_len);
    _skips.insert(_skips.end(), skips, skips + skip_count);
    _postings += count;
    return true;
}

void
PostingSegment::finishSealed()
{
    _sorted.clear();
    _sorted.reserve(_terms.size());
    for (const TermSlot &slot : _terms)
        _sorted.push_back(&slot);
    std::sort(_sorted.begin(), _sorted.end(),
              [](const TermSlot *a, const TermSlot *b) {
                  return a->key < b->key;
              });
}

// ----------------------------------------------------------------------
// SegmentReader
// ----------------------------------------------------------------------

PostingCursor
SegmentReader::cursor(std::string_view term) const
{
    if (_segment != nullptr)
        return _segment->cursor(term);
    if (_raw == nullptr)
        return {};
    const PostingList *list = _raw->postings(term);
    if (list == nullptr)
        return {};
    return PostingCursor(list->data(), list->size());
}

std::size_t
SegmentReader::termCount() const
{
    if (_segment != nullptr)
        return _segment->termCount();
    return _raw == nullptr ? 0 : _raw->termCount();
}

std::uint64_t
SegmentReader::postingCount() const
{
    if (_segment != nullptr)
        return _segment->postingCount();
    return _raw == nullptr ? 0 : _raw->postingCount();
}

std::uint32_t
SegmentReader::termDocCount(std::string_view term) const
{
    if (_segment != nullptr)
        return _segment->termDocCount(term);
    if (_raw == nullptr)
        return 0;
    const PostingList *list = _raw->postings(term);
    return list == nullptr ? 0
                           : static_cast<std::uint32_t>(list->size());
}

// ----------------------------------------------------------------------
// IndexSnapshot
// ----------------------------------------------------------------------

IndexSnapshot
IndexSnapshot::seal(InvertedIndex &&index, PostingCodec codec)
{
    std::vector<InvertedIndex> lanes;
    lanes.push_back(std::move(index));
    return sealMerged(std::move(lanes), 1, codec);
}

IndexSnapshot
IndexSnapshot::sealMerged(std::vector<InvertedIndex> &&lanes,
                          std::size_t threads, PostingCodec codec,
                          SealTimes *times)
{
    return fromSealed(PostingSegment::build(std::move(lanes), threads,
                                            codec, times));
}

IndexSnapshot
IndexSnapshot::seal(std::vector<InvertedIndex> &&replicas,
                    PostingCodec codec)
{
    IndexSnapshot snapshot;
    snapshot._segments.reserve(replicas.size());
    for (InvertedIndex &replica : replicas) {
        snapshot._segments.push_back(
            seal(std::move(replica), codec)._segments.front());
    }
    replicas.clear();
    return snapshot;
}

IndexSnapshot
IndexSnapshot::fromSealed(PostingSegment &&segment)
{
    IndexSnapshot snapshot;
    snapshot._segments.push_back(
        std::make_shared<PostingSegment>(std::move(segment)));
    return snapshot;
}

SegmentReader
IndexSnapshot::segment(std::size_t i) const
{
    if (i >= _segments.size())
        panic("IndexSnapshot::segment: index out of range");
    return SegmentReader(_segments[i].get());
}

SegmentReader
IndexSnapshot::unifiedReader() const
{
    if (_segments.empty())
        return SegmentReader();
    if (_segments.size() > 1) {
        panic("IndexSnapshot: multi-segment snapshot used where a "
              "unified index is required (join the build or use "
              "MultiSearcher)");
    }
    return SegmentReader(_segments.front().get());
}

PostingCursor
IndexSnapshot::cursor(std::string_view term) const
{
    return unifiedReader().cursor(term);
}

std::uint32_t
IndexSnapshot::termDocCount(std::string_view term) const
{
    return unifiedReader().termDocCount(term);
}

std::size_t
IndexSnapshot::termCount() const
{
    return unifiedReader().termCount();
}

std::uint64_t
IndexSnapshot::postingCount() const
{
    return unifiedReader().postingCount();
}

bool
IndexSnapshot::empty() const
{
    for (const auto &segment : _segments)
        if (!segment->empty())
            return false;
    return true;
}

} // namespace dsearch
