/**
 * @file
 * Stage 2: term extraction.
 *
 * A TermExtractor reads one file, tokenizes it and produces its set of
 * unique terms as a TermBlock. Duplicate elimination happens here, in
 * a private hash table, so Stage 3 receives each (term, file) pair
 * exactly once and large chunks of data move between the stages — the
 * paper's key design decision (§3): it removes the index's linear
 * duplicate scan and cuts buffering and locking operations.
 *
 * TermBlock is a flat arena: one contiguous char buffer plus
 * offset/length spans, each span carrying the term's FNV-1a hash —
 * the one the tokenizer computed while scanning the term, so even
 * deduplication hashes nothing. A block therefore moves through the
 * BlockingQueue as two buffer moves instead of one move per term, and
 * Stage 3 (and the Join Forces step) reuse the hashes instead of
 * hashing every term again. Deduplication probes the arena in place
 * — the only per-term copy in the entire pipeline is the first-sight
 * append to the arena.
 *
 * The immediate mode (extractOccurrences) keeps every occurrence; it
 * exists to measure the alternative the paper rejected (ablation E7).
 *
 * Thread safety: one TermExtractor per extractor thread; instances
 * reuse internal buffers across files.
 */

#ifndef DSEARCH_TEXT_TERM_EXTRACTOR_HH
#define DSEARCH_TEXT_TERM_EXTRACTOR_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "fs/file_system.hh"
#include "fs/traversal.hh"
#include "text/tokenizer.hh"
#include "util/fnv_hash.hh"
#include "util/logging.hh"

namespace dsearch {

/** One term's location inside a TermBlock arena, plus its hash. */
struct TermSpan
{
    std::uint32_t offset = 0; ///< Byte offset into the arena.
    std::uint32_t length = 0; ///< Term length in bytes.
    std::uint64_t hash = 0;   ///< fnv1a_64 of the term bytes.
};

/**
 * The unit of data passed from Stage 2 to Stage 3: one file's unique
 * terms, en bloc, in a flat arena layout (see the file comment).
 */
struct TermBlock
{
    DocId doc = invalid_doc;

    std::string arena;           ///< All term bytes, back to back.
    std::vector<TermSpan> spans; ///< Unique, unordered.

    /** @return Number of terms in the block. */
    std::size_t termCount() const { return spans.size(); }

    /** @return True when the block holds no terms. */
    bool empty() const { return spans.empty(); }

    /** Drop all terms, keeping the allocated buffers. */
    void
    clear()
    {
        arena.clear();
        spans.clear();
    }

    /** @return Term @p i as a view into the arena. */
    std::string_view
    term(std::size_t i) const
    {
        const TermSpan &s = spans[i];
        return std::string_view(arena).substr(s.offset, s.length);
    }

    /** @return The precomputed hash of term @p i. */
    std::uint64_t hashAt(std::size_t i) const { return spans[i].hash; }

    /** Append a term whose hash the caller already computed. */
    void
    addTerm(std::string_view term, std::uint64_t hash)
    {
        // Spans address the arena with 32-bit offsets; a single file
        // would need >= 4 GiB of term bytes to overflow, but fail
        // loudly rather than corrupt spans if one ever does.
        if (arena.size() + term.size()
            > std::numeric_limits<std::uint32_t>::max()) {
            panic("TermBlock: arena exceeds 4 GiB");
        }
        spans.push_back(
            TermSpan{static_cast<std::uint32_t>(arena.size()),
                     static_cast<std::uint32_t>(term.size()), hash});
        arena.append(term.data(), term.size());
    }

    /** Append a term, hashing it here. */
    void addTerm(std::string_view term) { addTerm(term, fnv1a_64(term)); }

    /** Owned copies of all terms (tests and tools, not hot paths). */
    std::vector<std::string> termStrings() const;
};

/** Counters accumulated by one extractor. */
struct ExtractorStats
{
    std::uint64_t files = 0;        ///< Files successfully processed.
    std::uint64_t bytes = 0;        ///< Bytes read.
    std::uint64_t tokens = 0;       ///< Token occurrences seen.
    std::uint64_t unique_terms = 0; ///< Tokens surviving deduplication.
    std::uint64_t read_errors = 0;  ///< Files skipped as unreadable.
    std::uint64_t read_retries = 0; ///< Re-read attempts after failures.

    /** Merge another extractor's counters into this one. */
    void
    add(const ExtractorStats &other)
    {
        files += other.files;
        bytes += other.bytes;
        tokens += other.tokens;
        unique_terms += other.unique_terms;
        read_errors += other.read_errors;
        read_retries += other.read_retries;
    }
};

/** Per-thread Stage 2 worker; see the file comment. */
class TermExtractor
{
  public:
    /**
     * @param fs   Filesystem to read from.
     * @param opts Tokenizer configuration.
     */
    explicit TermExtractor(const FileSystem &fs,
                           TokenizerOptions opts = {});

    /**
     * En-bloc extraction: read the file and produce its unique terms.
     *
     * @param file  File entry from Stage 1.
     * @param block Receives doc id and unique terms (reused; cleared
     *              first).
     * @return False when the file could not be read (counted and
     *         warned; the caller skips the file).
     */
    bool extract(const FileEntry &file, TermBlock &block);

    /**
     * Immediate-mode extraction: every occurrence, duplicates
     * included, in document order (ablation E7).
     */
    bool extractOccurrences(const FileEntry &file,
                            std::vector<std::string> &terms);

    /** @return Counters for this extractor. */
    const ExtractorStats &stats() const { return _stats; }

    /**
     * Re-read attempts after a failed read before the file is skipped
     * (default 2). Transient failures — a file locked mid-write on a
     * live filesystem (FlakyFs's transient mode in tests) — recover
     * here; permanent ones cost @p retries extra reads and are then
     * skipped as before. 0 disables retrying.
     */
    void setReadRetries(std::size_t retries) { _read_retries = retries; }

  private:
    /** Record an unreadable file; message built only when emitted. */
    void noteReadError(const FileEntry &file);

    /**
     * Read @p file into _content, retrying up to _read_retries times.
     * Failure (all attempts exhausted) is counted and warned.
     */
    bool readWithRetry(const FileEntry &file);

    const FileSystem &_fs;
    Tokenizer _tokenizer;
    ExtractorStats _stats;
    std::size_t _read_retries = 2;
    std::string _content; ///< Reused read buffer.

    /**
     * Reused per-file dedup table: open addressing over span indices
     * (+1; 0 = empty) into the block under construction. Probes read
     * the hash from the span and the bytes from the arena, so the
     * table itself stores no term data and survives arena growth.
     * Its capacity for the next file is seeded from _last_unique,
     * the previous file's unique-term count.
     */
    std::vector<std::uint32_t> _dedup;
    std::size_t _last_unique = 0;
};

} // namespace dsearch

#endif // DSEARCH_TEXT_TERM_EXTRACTOR_HH
