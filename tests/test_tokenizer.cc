/**
 * @file
 * Unit tests for the term scanner (text/tokenizer.hh).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "fs/memory_fs.hh"
#include "text/term_extractor.hh"
#include "text/tokenizer.hh"
#include "util/fnv_hash.hh"
#include "util/rng.hh"

namespace dsearch {
namespace {

TEST(Tokenizer, SplitsOnNonTermCharacters)
{
    Tokenizer tok;
    auto terms = tok.tokens("hello, world! foo-bar");
    ASSERT_EQ(terms.size(), 4u);
    EXPECT_EQ(terms[0], "hello");
    EXPECT_EQ(terms[1], "world");
    EXPECT_EQ(terms[2], "foo");
    EXPECT_EQ(terms[3], "bar");
}

TEST(Tokenizer, FoldsCaseByDefault)
{
    Tokenizer tok;
    auto terms = tok.tokens("Hello WORLD MiXeD");
    ASSERT_EQ(terms.size(), 3u);
    EXPECT_EQ(terms[0], "hello");
    EXPECT_EQ(terms[1], "world");
    EXPECT_EQ(terms[2], "mixed");
}

TEST(Tokenizer, CaseFoldingCanBeDisabled)
{
    TokenizerOptions opts;
    opts.fold_case = false;
    Tokenizer tok(opts);
    auto terms = tok.tokens("Hello");
    ASSERT_EQ(terms.size(), 1u);
    EXPECT_EQ(terms[0], "Hello");
}

TEST(Tokenizer, DigitsIncludedByDefault)
{
    Tokenizer tok;
    auto terms = tok.tokens("version 42 x86 2010");
    ASSERT_EQ(terms.size(), 4u);
    EXPECT_EQ(terms[1], "42");
    EXPECT_EQ(terms[2], "x86");
}

TEST(Tokenizer, DigitsCanSplitTerms)
{
    TokenizerOptions opts;
    opts.include_digits = false;
    Tokenizer tok(opts);
    auto terms = tok.tokens("x86 foo2bar");
    ASSERT_EQ(terms.size(), 3u);
    EXPECT_EQ(terms[0], "x");
    EXPECT_EQ(terms[1], "foo");
    EXPECT_EQ(terms[2], "bar");
}

TEST(Tokenizer, MinLengthFilters)
{
    TokenizerOptions opts;
    opts.min_length = 3;
    Tokenizer tok(opts);
    auto terms = tok.tokens("a bb ccc dddd");
    ASSERT_EQ(terms.size(), 2u);
    EXPECT_EQ(terms[0], "ccc");
    EXPECT_EQ(terms[1], "dddd");
}

TEST(Tokenizer, MaxLengthTruncates)
{
    TokenizerOptions opts;
    opts.max_length = 4;
    Tokenizer tok(opts);
    auto terms = tok.tokens("abcdefgh xy");
    ASSERT_EQ(terms.size(), 2u);
    EXPECT_EQ(terms[0], "abcd");
    EXPECT_EQ(terms[1], "xy");
}

TEST(Tokenizer, EmptyAndSeparatorOnlyInputs)
{
    Tokenizer tok;
    EXPECT_TRUE(tok.tokens("").empty());
    EXPECT_TRUE(tok.tokens("  \n\t ,.;!").empty());
}

TEST(Tokenizer, SingleTokenNoSeparators)
{
    Tokenizer tok;
    auto terms = tok.tokens("lonely");
    ASSERT_EQ(terms.size(), 1u);
    EXPECT_EQ(terms[0], "lonely");
}

TEST(Tokenizer, LeadingAndTrailingSeparators)
{
    Tokenizer tok;
    auto terms = tok.tokens("...start middle end...");
    ASSERT_EQ(terms.size(), 3u);
    EXPECT_EQ(terms[0], "start");
    EXPECT_EQ(terms[2], "end");
}

TEST(Tokenizer, NonAsciiBytesAreSeparators)
{
    Tokenizer tok;
    std::string text = "caf\xC3\xA9 men\xC3\xBC end";
    auto terms = tok.tokens(text);
    // UTF-8 multibyte sequences act as separators (ASCII-only index).
    ASSERT_EQ(terms.size(), 3u);
    EXPECT_EQ(terms[0], "caf");
    EXPECT_EQ(terms[1], "men");
    EXPECT_EQ(terms[2], "end");
}

TEST(Tokenizer, CallbackViewIsStablePerToken)
{
    Tokenizer tok;
    std::vector<std::string> collected;
    tok.forEachToken("One Two", [&](std::string_view term) {
        collected.emplace_back(term);
    });
    ASSERT_EQ(collected.size(), 2u);
    EXPECT_EQ(collected[0], "one");
    EXPECT_EQ(collected[1], "two");
}

TEST(Tokenizer, CountMatchesOnLargeInput)
{
    Tokenizer tok;
    std::string text;
    for (int i = 0; i < 1000; ++i)
        text += "word" + std::to_string(i) + " ";
    std::size_t count = 0;
    tok.forEachToken(text, [&count](std::string_view) { ++count; });
    EXPECT_EQ(count, 1000u);
}

TEST(Tokenizer, ReusableAcrossCalls)
{
    Tokenizer tok;
    EXPECT_EQ(tok.tokens("first call").size(), 2u);
    EXPECT_EQ(tok.tokens("second").size(), 1u);
    EXPECT_EQ(tok.tokens("").size(), 0u);
}

// ----------------------------------------------------------------------
// Fuzz: the table-driven scanner against a naive byte loop.
// ----------------------------------------------------------------------

/**
 * The oracle: the plainest possible scanner. Terms are maximal runs of
 * ASCII letters (and digits when included); a run shorter than
 * min_length is dropped, a longer one keeps its first max_length
 * bytes, then upper case is folded.
 */
std::vector<std::string>
naiveTokens(const std::string &text, const TokenizerOptions &opts)
{
    auto is_term = [&opts](unsigned char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
               || (opts.include_digits && c >= '0' && c <= '9');
    };
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < text.size()) {
        if (!is_term(static_cast<unsigned char>(text[i]))) {
            ++i;
            continue;
        }
        const std::size_t start = i;
        while (i < text.size() && is_term(static_cast<unsigned char>(text[i])))
            ++i;
        const std::size_t len = i - start;
        if (len < opts.min_length)
            continue;
        std::string term = text.substr(start, std::min(len, opts.max_length));
        if (opts.fold_case) {
            for (char &c : term) {
                if (c >= 'A' && c <= 'Z')
                    c = static_cast<char>(c - 'A' + 'a');
            }
        }
        out.push_back(std::move(term));
    }
    return out;
}

/**
 * A random buffer over all 256 byte values. @p term_share of the bytes
 * are drawn from [A-Za-z0-9] (so runs of every length occur) and the
 * rest uniformly from 0..255, high-bit and NUL bytes included;
 * @p long_runs splices in runs of 60..200 term bytes, past any
 * max_length in the grid but the unbounded one.
 */
std::string
randomBuffer(Rng &rng, std::size_t size, double term_share,
             bool long_runs)
{
    static constexpr char term_chars[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::string text;
    while (text.size() < size) {
        if (long_runs && rng.nextDouble() < 0.02) {
            const std::size_t run = rng.uniform(60, 200);
            for (std::size_t k = 0; k < run; ++k)
                text += term_chars[rng.uniform(0, 61)];
        } else if (rng.nextDouble() < term_share) {
            text += term_chars[rng.uniform(0, 61)];
        } else {
            text += static_cast<char>(rng.uniform(0, 255));
        }
    }
    return text;
}

TEST(TokenizerFuzz, MatchesNaiveScannerAcrossOptionGrid)
{
    const std::size_t unbounded = std::numeric_limits<std::size_t>::max();
    Rng rng(20260117);
    std::size_t compared = 0;
    for (std::size_t min_length : {0u, 1u, 2u, 4u}) {
        for (std::size_t max_length : {std::size_t{1}, std::size_t{3},
                                       std::size_t{64}, unbounded}) {
            for (bool fold_case : {true, false}) {
                for (bool include_digits : {true, false}) {
                    TokenizerOptions opts;
                    opts.min_length = min_length;
                    opts.max_length = max_length;
                    opts.fold_case = fold_case;
                    opts.include_digits = include_digits;
                    // One tokenizer per option set, reused across
                    // buffers: its term buffer must carry no state.
                    Tokenizer tok(opts);
                    for (int round = 0; round < 12; ++round) {
                        const std::string text = randomBuffer(
                            rng, rng.uniform(0, 3000),
                            round % 3 == 0 ? 0.2 : 0.85, round % 2 == 0);
                        std::vector<std::string> got;
                        tok.forEachToken(text, [&](std::string_view term,
                                                   std::uint64_t hash) {
                            EXPECT_EQ(hash, fnv1a_64(term));
                            got.emplace_back(term);
                        });
                        ASSERT_EQ(got, naiveTokens(text, opts))
                            << "min " << min_length << " max "
                            << max_length << " fold " << fold_case
                            << " digits " << include_digits;
                        compared += got.size();
                    }
                }
            }
        }
    }
    EXPECT_GT(compared, 10000u);
}

TEST(TokenizerFuzz, TruncatedTermsHashOnlyTheKeptBytes)
{
    TokenizerOptions opts;
    opts.max_length = 3;
    Tokenizer tok(opts);
    std::vector<std::pair<std::string, std::uint64_t>> got;
    tok.forEachToken("ABCDEFG xy", [&](std::string_view term,
                                       std::uint64_t hash) {
        got.emplace_back(std::string(term), hash);
    });
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].first, "abc");
    EXPECT_EQ(got[0].second, fnv1a_64("abc"));
    EXPECT_EQ(got[1].first, "xy");
    EXPECT_EQ(got[1].second, fnv1a_64("xy"));
}

TEST(TokenizerFuzz, ExtractorSpanHashesMatchTheirTerms)
{
    MemoryFs fs;
    Rng rng(7);
    FileList files;
    for (DocId doc = 0; doc < 40; ++doc) {
        const std::string path = "/f" + std::to_string(doc);
        fs.addFile(path, randomBuffer(rng, rng.uniform(0, 4000), 0.85,
                                      doc % 2 == 0));
        files.push_back(FileEntry{doc, path, 0});
    }
    TermExtractor extractor(fs);
    TermBlock block;
    std::size_t spans = 0;
    for (const FileEntry &file : files) {
        ASSERT_TRUE(extractor.extract(file, block));
        for (std::size_t i = 0; i < block.termCount(); ++i)
            ASSERT_EQ(block.hashAt(i), fnv1a_64(block.term(i)));
        spans += block.termCount();
    }
    EXPECT_GT(spans, 1000u);
}

} // namespace
} // namespace dsearch
