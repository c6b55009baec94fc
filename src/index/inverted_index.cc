#include "index/inverted_index.hh"

#include <algorithm>

namespace dsearch {

void
InvertedIndex::addBlock(const TermBlock &block)
{
    for (std::size_t i = 0; i < block.spans.size(); ++i) {
        _map.findOrEmplaceHashed(block.spans[i].hash, block.term(i))
            .push_back(block.doc);
        ++_postings;
    }
}

void
InvertedIndex::addBlockSpans(const TermBlock &block,
                             const std::uint32_t *indices,
                             std::size_t count)
{
    for (std::size_t n = 0; n < count; ++n) {
        const std::uint32_t i = indices[n];
        _map.findOrEmplaceHashed(block.spans[i].hash, block.term(i))
            .push_back(block.doc);
        ++_postings;
    }
}

void
InvertedIndex::addOccurrence(std::string_view term, DocId doc)
{
    addOccurrenceHashed(fnv1a_64(term), term, doc);
}

void
InvertedIndex::addOccurrenceHashed(std::uint64_t hash,
                                   std::string_view term, DocId doc)
{
    PostingList &list = _map.findOrEmplaceHashed(hash, term);
    // The duplicate scan the paper's analysis rejects: without en-bloc
    // deduplication the index must check whether (term, doc) was added
    // before.
    if (std::find(list.begin(), list.end(), doc) != list.end())
        return;
    list.push_back(doc);
    ++_postings;
}

void
InvertedIndex::addPostings(std::string_view term, const DocId *docs,
                           std::size_t count)
{
    if (count == 0)
        return;
    PostingList &list =
        _map.findOrEmplaceHashed(fnv1a_64(term), term);
    list.insert(list.end(), docs, docs + count);
    _postings += count;
}

const PostingList *
InvertedIndex::postings(std::string_view term) const
{
    return _map.find(term);
}

PostingList *
InvertedIndex::postingsHashed(std::uint64_t hash, std::string_view term)
{
    return _map.findHashed(hash, term);
}

void
InvertedIndex::clear()
{
    _map.clear();
    _postings = 0;
}

InvertedIndex
InvertedIndex::clone() const
{
    InvertedIndex copy;
    copy._map = _map;
    copy._postings = _postings;
    return copy;
}

void
InvertedIndex::merge(InvertedIndex &&other)
{
    for (auto &slot : other._map) {
        PostingList *mine = _map.findHashed(slot.hash, slot.key);
        if (mine == nullptr) {
            _map.insertHashed(slot.hash, std::move(slot.key),
                              std::move(slot.value));
        } else {
            mine->insert(mine->end(), slot.value.begin(),
                         slot.value.end());
        }
    }
    _postings += other._postings;
    other.clear();
}

std::uint64_t
InvertedIndex::removeDoc(DocId doc)
{
    std::uint64_t removed = 0;
    for (auto &slot : _map) {
        PostingList &list = slot.value;
        auto cut = std::remove(list.begin(), list.end(), doc);
        removed += static_cast<std::uint64_t>(list.end() - cut);
        list.erase(cut, list.end());
    }
    _postings -= removed;
    return removed;
}

std::size_t
InvertedIndex::eraseEmptyTerms()
{
    // Collect first: erase() invalidates iterators (backward shift).
    std::vector<std::string> empty;
    for (const auto &slot : _map)
        if (slot.value.empty())
            empty.push_back(slot.key);
    for (const std::string &term : empty)
        _map.erase(term);
    return empty.size();
}

void
InvertedIndex::sortPostings()
{
    for (auto &slot : _map)
        std::sort(slot.value.begin(), slot.value.end());
}

void
InvertedIndex::reserveTerms(std::size_t expected_terms)
{
    _map.reserve(expected_terms);
}

bool
sameContents(const InvertedIndex &a, const InvertedIndex &b)
{
    if (a.termCount() != b.termCount()
        || a.postingCount() != b.postingCount()) {
        return false;
    }
    bool equal = true;
    a.forEachTerm([&b, &equal](const std::string &term,
                               const PostingList &postings) {
        if (!equal)
            return;
        const PostingList *theirs = b.postings(term);
        if (theirs == nullptr || *theirs != postings)
            equal = false;
    });
    return equal;
}

} // namespace dsearch
