#include "text/term_extractor.hh"

#include <algorithm>

#include "util/logging.hh"

namespace dsearch {

namespace {

/** Dedup table load limit: grow at 1/2 occupancy. */
constexpr std::size_t dedupInitialSize = 256;

} // namespace

std::vector<std::string>
TermBlock::termStrings() const
{
    std::vector<std::string> out;
    out.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        out.emplace_back(term(i));
    return out;
}

TermExtractor::TermExtractor(const FileSystem &fs, TokenizerOptions opts)
    : _fs(fs), _tokenizer(opts)
{
}

void
TermExtractor::noteReadError(const FileEntry &file)
{
    ++_stats.read_errors;
    // The concatenation is deliberately outside the hot path: build
    // the message only when a sink will actually see it.
    if (wouldLog(LogLevel::Warn)) {
        warn("TermExtractor: cannot read '" + file.path
             + "', skipping");
    }
}

bool
TermExtractor::readWithRetry(const FileEntry &file)
{
    // The retry loop only runs after a failure, so successful reads —
    // the entire hot path — cost nothing extra.
    if (_fs.readFile(file.path, _content))
        return true;
    for (std::size_t attempt = 0; attempt < _read_retries; ++attempt) {
        ++_stats.read_retries;
        if (_fs.readFile(file.path, _content))
            return true;
    }
    noteReadError(file);
    return false;
}

bool
TermExtractor::extract(const FileEntry &file, TermBlock &block)
{
    block.doc = file.doc;
    block.clear();

    if (!readWithRetry(file))
        return false;

    // Seed the table from the previous file's unique-term count:
    // corpora with uniformly large files then skip the early rehash
    // ladder entirely (grow-at-1/2-occupancy needs 2x headroom). The
    // table never shrinks — a following small file just reuses it.
    std::size_t want = dedupInitialSize;
    while (want < _last_unique * 2)
        want <<= 1;
    if (_dedup.size() < want)
        _dedup.assign(want, 0);
    else
        std::fill(_dedup.begin(), _dedup.end(), 0);
    std::size_t mask = _dedup.size() - 1;

    // The scanner hands over each term's hash with the term itself.
    _tokenizer.forEachToken(_content, [&](std::string_view term,
                                          std::uint64_t hash) {
        ++_stats.tokens;

        // Probe the block in place: hashes from the spans, bytes from
        // the arena. No std::string is ever materialized here.
        std::size_t pos = hash & mask;
        while (_dedup[pos] != 0) {
            const std::uint32_t idx = _dedup[pos] - 1;
            if (block.spans[idx].hash == hash
                && block.term(idx) == term) {
                return; // duplicate within this file
            }
            pos = (pos + 1) & mask;
        }

        // First sight: the only copy in the pipeline.
        block.addTerm(term, hash);
        _dedup[pos] = static_cast<std::uint32_t>(block.spans.size());

        // Grow at 1/2 occupancy, re-placing span indices by their
        // stored hashes (terms are never re-hashed).
        if (block.spans.size() * 2 > _dedup.size()) {
            std::vector<std::uint32_t> bigger(_dedup.size() * 2, 0);
            std::size_t big_mask = bigger.size() - 1;
            for (std::uint32_t entry = 1;
                 entry <= block.spans.size(); ++entry) {
                std::size_t p = block.spans[entry - 1].hash & big_mask;
                while (bigger[p] != 0)
                    p = (p + 1) & big_mask;
                bigger[p] = entry;
            }
            _dedup = std::move(bigger);
            mask = big_mask;
        }
    });

    ++_stats.files;
    _stats.bytes += _content.size();
    _stats.unique_terms += block.termCount();
    _last_unique = block.termCount();
    return true;
}

bool
TermExtractor::extractOccurrences(const FileEntry &file,
                                  std::vector<std::string> &terms)
{
    terms.clear();
    if (!readWithRetry(file))
        return false;
    _tokenizer.forEachToken(_content,
                            [this, &terms](std::string_view term) {
                                ++_stats.tokens;
                                terms.emplace_back(term);
                            });
    ++_stats.files;
    _stats.bytes += _content.size();
    return true;
}

} // namespace dsearch
