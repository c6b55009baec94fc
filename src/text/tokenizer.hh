/**
 * @file
 * ASCII term scanner (the core of Stage 2).
 *
 * The paper indexes plain ASCII text ("handling complex word processor
 * formats directly in the term extractor would have been too
 * distracting"), so terms are maximal runs of letters and digits,
 * case-folded to lower case.
 *
 * The scanner is table-driven. A 256-entry table, built from the
 * options when the Tokenizer is made, maps every byte to the
 * character it adds to a term — already case-folded — or to 0 for a
 * separator: every byte outside [A-Za-z0-9], high-bit bytes included,
 * and digits when include_digits is off. One pass over the text does
 * everything: each term byte costs one table load, a store of the
 * folded byte into a fixed per-instance buffer and one FNV-1a step,
 * and the only data-dependent branch is the one that ends the term.
 * Every term thus reaches the callback together with fnv1a_64(term),
 * which TermExtractor's dedup table, Stage 3's inserts and the seal's
 * term partitioning all reuse.
 *
 * A run longer than max_length keeps its first max_length bytes, and
 * the hash covers exactly those; a run shorter than min_length
 * (counted before truncation) is dropped. The scanner allocates
 * nothing per token: callers receive a string_view into the buffer,
 * valid only for the duration of the callback.
 */

#ifndef DSEARCH_TEXT_TOKENIZER_HH
#define DSEARCH_TEXT_TOKENIZER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/fnv_hash.hh"

namespace dsearch {

/** Tokenizer behaviour knobs. */
struct TokenizerOptions
{
    /** Tokens shorter than this are dropped. */
    std::size_t min_length = 1;

    /** Tokens longer than this are truncated (guards the index
     *  against pathological inputs such as base64 blobs). */
    std::size_t max_length = 64;

    /** Fold ASCII upper case to lower case. */
    bool fold_case = true;

    /** Treat digits as term characters (else they split terms). */
    bool include_digits = true;
};

/**
 * Splits text into terms; see the file comment.
 *
 * Thread safety: each thread must use its own Tokenizer instance (the
 * term buffer is per-instance state).
 */
class Tokenizer
{
  public:
    explicit Tokenizer(TokenizerOptions opts = {});

    /** @return The options this tokenizer was built with. */
    const TokenizerOptions &options() const { return _opts; }

    /**
     * Invoke @p fn(std::string_view term, std::uint64_t hash) once
     * per term in @p text, in text order; hash == fnv1a_64(term).
     * A callback taking only the term is accepted too (the hash is
     * then dead code the compiler drops).
     *
     * The string_view argument points into an internal buffer and is
     * invalidated by the next token; copy it if you keep it.
     */
    template <typename Fn>
    void
    forEachToken(std::string_view text, Fn &&fn)
    {
        // No term keeps more than cap bytes; bytes past cap are
        // written to the guard byte buf[cap] and left out of the hash,
        // so the loop's only data-dependent branch is the term's end.
        const std::size_t cap =
            _opts.max_length < text.size() ? _opts.max_length
                                           : text.size();
        char *const buf = termBuffer(cap);
        const char *const fold = _fold.data();
        const auto *p =
            reinterpret_cast<const unsigned char *>(text.data());
        const auto *const end = p + text.size();
        while (p != end) {
            char c = fold[*p];
            if (c == 0) {
                ++p;
                continue;
            }
            // A term: fold, copy and hash up to the next separator.
            std::size_t len = 0;
            std::uint64_t hash = fnv64_offset;
            do {
                const bool kept = len < cap;
                buf[kept ? len : cap] = c;
                const std::uint64_t next =
                    (hash ^ static_cast<unsigned char>(c)) * fnv64_prime;
                hash = kept ? next : hash;
                ++len;
                ++p;
            } while (p != end && (c = fold[*p]) != 0);
            if (len < _opts.min_length)
                continue;
            const std::string_view term(buf, len < cap ? len : cap);
            if constexpr (std::is_invocable_v<Fn &, std::string_view,
                                              std::uint64_t>)
                fn(term, hash);
            else
                fn(term);
        }
    }

    /** Collect all terms as owned strings (convenience for tests). */
    std::vector<std::string> tokens(std::string_view text);

  private:
    /**
     * @return The term buffer with room for @p cap bytes plus the
     *         guard byte (grown, never shrunk).
     */
    char *termBuffer(std::size_t cap);

    TokenizerOptions _opts;

    /** Byte -> folded term character, 0 for a separator. */
    std::array<char, 256> _fold{};

    /** The current term (at most max_length bytes) + guard byte. */
    std::string _buf;
};

} // namespace dsearch

#endif // DSEARCH_TEXT_TOKENIZER_HH
