/**
 * @file
 * The merge-and-pack seal (PostingSegment::build, reached through
 * IndexSnapshot::sealMerged and Engine::build) against an oracle.
 *
 * The oracle is the seal as it was before lanes were merged: join the
 * lanes with joinSequential, sort every concatenated list, encode it
 * term by term into a segment. Both snapshots are persisted with
 * saveSnapshot and the bytes compared — the merge-and-pack seal must
 * reproduce the file exactly, whatever the lane count, lane order,
 * thread count or codec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "core/index_generator.hh"
#include "fs/corpus.hh"
#include "index/doc_table.hh"
#include "index/index_join.hh"
#include "index/index_snapshot.hh"
#include "index/inverted_index.hh"
#include "index/posting_block.hh"
#include "index/serialize.hh"
#include "util/rng.hh"

namespace dsearch {
namespace {

/** The oracle: joinSequential, sort every list, encode term by term. */
IndexSnapshot
sortThenEncode(std::vector<InvertedIndex> lanes, PostingCodec codec)
{
    InvertedIndex joined = joinSequential(std::move(lanes));
    joined.sortPostings();
    PostingSegment segment;
    segment.setCodec(codec);
    std::vector<std::uint8_t> bytes;
    std::vector<SkipEntry> skips;
    joined.forEachTerm([&](const std::string &term,
                           const PostingList &list) {
        if (list.empty())
            return;
        bytes.clear();
        skips.clear();
        if (codec == PostingCodec::Packed)
            encodePostingsPacked(list.data(), list.size(), bytes, skips);
        else
            encodePostings(list.data(), list.size(), bytes, skips);
        segment.addSealedTerm(term, static_cast<std::uint32_t>(list.size()),
                              bytes.data(),
                              static_cast<std::uint32_t>(bytes.size()),
                              skips.data(),
                              static_cast<std::uint32_t>(skips.size()));
    });
    segment.finishSealed();
    return IndexSnapshot::fromSealed(std::move(segment));
}

/** A document table of @p count placeholder documents. */
DocTable
docTable(std::size_t count)
{
    DocTable docs;
    for (std::size_t d = 0; d < count; ++d)
        docs.add("/d" + std::to_string(d), 1);
    return docs;
}

/** @return saveSnapshot()'s bytes for @p snapshot. */
std::string
blob(const IndexSnapshot &snapshot, const DocTable &docs)
{
    std::ostringstream out;
    EXPECT_TRUE(saveSnapshot(snapshot, docs, out));
    return std::move(out).str();
}

std::vector<InvertedIndex>
cloneAll(const std::vector<InvertedIndex> &lanes)
{
    std::vector<InvertedIndex> copy;
    for (const InvertedIndex &lane : lanes)
        copy.push_back(lane.clone());
    return copy;
}

constexpr std::size_t corpus_docs = 600;

/**
 * Random lanes over corpus_docs disjoint documents, each document in
 * one lane (round-robin or random). Term kinds:
 *  - "wN": Zipf-like vocabulary, lists of every length;
 *  - "lenN": exactly N documents in total (127, 128, 129, 257 cross
 *    block boundaries), spread over the lanes;
 *  - "onlyL_N": terms present in lane L only;
 *  - "gone": a term whose only document is removed, leaving an empty
 *    list (removeDoc() leftovers must vanish from the seal).
 * Lanes listed in @p empty_lanes get no documents at all. Unsorted
 * lanes receive each term's documents in a shuffled order.
 */
std::vector<InvertedIndex>
randomLanes(Rng &rng, std::size_t k, bool sorted, bool round_robin,
            const std::vector<std::size_t> &empty_lanes)
{
    auto is_empty = [&](std::size_t lane) {
        return std::find(empty_lanes.begin(), empty_lanes.end(), lane)
               != empty_lanes.end();
    };
    std::vector<std::size_t> live;
    for (std::size_t lane = 0; lane < k; ++lane)
        if (!is_empty(lane))
            live.push_back(lane);

    // lane -> term -> documents, in document order.
    std::vector<std::vector<std::pair<std::string, std::vector<DocId>>>>
        lists(k);
    auto add = [&](std::size_t lane, const std::string &term, DocId doc) {
        auto &terms = lists[lane];
        auto it = std::find_if(terms.begin(), terms.end(),
                               [&](const auto &t) { return t.first == term; });
        if (it == terms.end()) {
            terms.emplace_back(term, std::vector<DocId>{});
            it = terms.end() - 1;
        }
        it->second.push_back(doc);
    };

    std::vector<std::size_t> lane_of(corpus_docs);
    for (DocId doc = 0; doc < corpus_docs; ++doc) {
        lane_of[doc] = round_robin ? live[doc % live.size()]
                                   : live[rng.uniform(0, live.size() - 1)];
        const std::size_t lane = lane_of[doc];
        // Squared uniform ranks: low ranks dominate, so a few lists
        // run over several blocks while most stay short.
        std::vector<std::size_t> ranks(rng.uniform(1, 12));
        for (std::size_t &rank : ranks) {
            const double u = rng.nextDouble();
            rank = static_cast<std::size_t>(u * u * 60.0);
        }
        std::sort(ranks.begin(), ranks.end());
        ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
        for (std::size_t rank : ranks)
            add(lane, "w" + std::to_string(rank), doc);
        add(lane, "only" + std::to_string(lane) + "_" +
                      std::to_string(doc % 5),
            doc);
    }
    for (std::size_t len : {127u, 128u, 129u, 257u}) {
        const std::size_t stride = corpus_docs / len;
        for (std::size_t i = 0; i < len; ++i) {
            const DocId doc = static_cast<DocId>(i * stride);
            add(lane_of[doc], "len" + std::to_string(len), doc);
        }
    }
    const DocId gone_doc = static_cast<DocId>(corpus_docs - 1);
    add(lane_of[gone_doc], "gone", gone_doc);

    std::vector<InvertedIndex> lanes(k);
    for (std::size_t lane = 0; lane < k; ++lane) {
        for (auto &[term, docs] : lists[lane]) {
            if (!sorted) {
                for (std::size_t i = docs.size(); i > 1; --i)
                    std::swap(docs[i - 1], docs[rng.uniform(0, i - 1)]);
            }
            lanes[lane].addPostings(term, docs.data(), docs.size());
        }
    }
    // removeDoc() leaves empty lists behind; "gone" has only this doc.
    lanes[lane_of[gone_doc]].removeDoc(gone_doc);
    lanes[lane_of[7]].removeDoc(7);
    return lanes;
}

struct LaneCase
{
    std::size_t k;
    bool sorted;
    bool round_robin;
    std::vector<std::size_t> empty_lanes;
};

std::vector<LaneCase>
laneCases()
{
    std::vector<LaneCase> cases;
    for (std::size_t k : {1u, 2u, 4u, 7u}) {
        for (bool sorted : {true, false}) {
            cases.push_back({k, sorted, true, {}});
            cases.push_back({k, sorted, false, {}});
            // Empty lanes first and last (k = 2 keeps one live lane).
            if (k == 2)
                cases.push_back({k, sorted, true, {0}});
            else if (k > 2)
                cases.push_back({k, sorted, true, {0, k - 1}});
        }
    }
    return cases;
}

TEST(MergePack, MatchesSortThenEncodeOracle)
{
    Rng rng(12);
    const DocTable docs = docTable(corpus_docs);
    std::size_t compared = 0;
    for (const LaneCase &c : laneCases()) {
        const std::vector<InvertedIndex> lanes =
            randomLanes(rng, c.k, c.sorted, c.round_robin, c.empty_lanes);
        for (PostingCodec codec : {PostingCodec::Packed,
                                   PostingCodec::Varint}) {
            const std::string expected =
                blob(sortThenEncode(cloneAll(lanes), codec), docs);
            for (std::size_t threads : {1u, 2u, 3u, 8u}) {
                const std::string got = blob(
                    IndexSnapshot::sealMerged(cloneAll(lanes), threads,
                                              codec),
                    docs);
                EXPECT_EQ(got, expected)
                    << "k=" << c.k << " sorted=" << c.sorted
                    << " round_robin=" << c.round_robin << " empty lanes="
                    << c.empty_lanes.size() << " threads=" << threads
                    << " codec=" << static_cast<int>(codec);
                ++compared;
            }
        }
    }
    EXPECT_EQ(compared, laneCases().size() * 2 * 4);
}

TEST(MergePack, DocumentsInTwoLanesAreKeptTwiceLikeTheOracle)
{
    // Lanes are disjoint in every build; a caller that breaks that
    // still gets the oracle's bytes, for long and short lists.
    const DocTable docs = docTable(300);
    std::vector<InvertedIndex> lanes(3);
    std::vector<DocId> dense, sparse;
    for (DocId doc = 0; doc < 300; ++doc)
        dense.push_back(doc);
    for (DocId doc = 0; doc < 300; doc += 97)
        sparse.push_back(doc);
    for (InvertedIndex &lane : lanes) {
        lane.addPostings("dense", dense.data(), dense.size());
        lane.addPostings("sparse", sparse.data(), sparse.size());
    }
    for (PostingCodec codec : {PostingCodec::Packed, PostingCodec::Varint}) {
        EXPECT_EQ(blob(IndexSnapshot::sealMerged(cloneAll(lanes), 2, codec),
                       docs),
                  blob(sortThenEncode(cloneAll(lanes), codec), docs));
    }
    EXPECT_EQ(IndexSnapshot::sealMerged(cloneAll(lanes), 1)
                  .termDocCount("dense"),
              900u);
}

TEST(MergePack, SingleIndexSealIsTheOneLaneCase)
{
    Rng rng(3);
    const DocTable docs = docTable(corpus_docs);
    for (bool sorted : {true, false}) {
        std::vector<InvertedIndex> lanes =
            randomLanes(rng, 1, sorted, true, {});
        const std::string expected = blob(
            sortThenEncode(cloneAll(lanes), PostingCodec::Packed), docs);
        EXPECT_EQ(blob(IndexSnapshot::seal(std::move(lanes.front())), docs),
                  expected);
    }
}

TEST(MergePack, DropsTermsLeftEmptyAndCountsPostings)
{
    Rng rng(5);
    std::vector<InvertedIndex> lanes = randomLanes(rng, 4, false, true, {});
    std::uint64_t postings = 0;
    for (const InvertedIndex &lane : lanes)
        postings += lane.postingCount();
    IndexSnapshot sealed = IndexSnapshot::sealMerged(std::move(lanes), 3);
    EXPECT_EQ(sealed.termDocCount("gone"), 0u);
    EXPECT_EQ(sealed.postingCount(), postings);
    EXPECT_EQ(sealed.termDocCount("len129"), 129u);
    EXPECT_EQ(sealed.cursor("len257").toDocSet().size(), 257u);
}

TEST(MergePack, EmptyInputsSealToAnEmptySegment)
{
    const DocTable docs = docTable(0);
    std::vector<InvertedIndex> none;
    IndexSnapshot a = IndexSnapshot::sealMerged(std::move(none), 4);
    EXPECT_TRUE(a.unified());
    EXPECT_TRUE(a.empty());
    std::vector<InvertedIndex> empties(3);
    IndexSnapshot b = IndexSnapshot::sealMerged(std::move(empties), 2);
    EXPECT_EQ(blob(a, docs), blob(b, docs));
    EXPECT_EQ(blob(b, docs), blob(IndexSnapshot::seal(InvertedIndex{}), docs));
}

// ----------------------------------------------------------------------
// Full builds: every organization and distribution seals to the same
// bytes as the sequential build.
// ----------------------------------------------------------------------

TEST(MergePack, EveryBuildSealsToTheSequentialBlob)
{
    auto fs = CorpusGenerator(CorpusSpec::tiny(17)).generateInMemory();
    Engine::Result sequential = Engine::open(*fs, "/").build();
    const std::string expected = blob(sequential.snapshot, sequential.docs);

    for (DistributionKind kind :
         {DistributionKind::RoundRobin, DistributionKind::SizeBalanced,
          DistributionKind::SharedQueue, DistributionKind::WorkStealing}) {
        std::vector<Config> configs = {
            Config::sharedLocked(3), Config::sharedLocked(2, 2),
            Config::replicatedJoin(3, 0, 2), Config::replicatedJoin(2, 3, 1),
            Config::replicatedJoin(4, 0, 4)};
        Config sharded = Config::sharedLocked(3);
        sharded.lock_shards = 4;
        configs.push_back(sharded);
        for (Config cfg : configs) {
            cfg.distribution = kind;
            Engine::Result built = Engine::open(*fs, "/").config(cfg).build();
            EXPECT_EQ(blob(built.snapshot, built.docs), expected)
                << cfg.describe() << " " << name(kind);
        }

        // Implementation 3 keeps its replicas apart; merging them is
        // the same seal, so it must land on the same bytes too.
        Config no_join = Config::replicatedNoJoin(3);
        no_join.distribution = kind;
        IndexGenerator generator(*fs, "/", no_join);
        BuildResult raw = generator.build();
        IndexSnapshot merged =
            IndexSnapshot::sealMerged(std::move(raw.indices), 2);
        EXPECT_EQ(blob(merged, raw.docs), expected)
            << "replicated-no-join merged, " << name(kind);
    }
}

} // namespace
} // namespace dsearch
