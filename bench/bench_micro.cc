/**
 * @file
 * Substrate micro-benchmarks (google-benchmark): FNV hashing, the
 * open-addressing containers against their std counterparts, the
 * tokenizer, the Zipf sampler, the blocking queue, and en-bloc index
 * insertion. These locate the constants behind the cost model in
 * sim/platform.cc.
 *
 * Before the google-benchmark suite runs, main() measures the full
 * Stage 2+3 pipeline (read + extract + index update) twice over the
 * same in-memory corpus — once through a faithful replica of the
 * seed's string-copying containers (per-token std::string, hash
 * recomputed on every probe and rehash) and once through the
 * zero-copy arena/hash-once path — and writes the comparison to
 * BENCH_micro.json (tokens/sec, postings/sec, bytes allocated per
 * block) so subsequent PRs can track the perf trajectory.
 *
 * A third section seals the zero-copy index and reports the
 * compressed posting storage: bytes per posting raw (one DocId each)
 * versus sealed (compressed blocks + skip entries), the resulting
 * compression ratio — gated >= 2x by scripts/check_bench.py — and
 * seal/decode throughput in postings per second.
 *
 * A fourth section benches the posting codecs head to head on
 * synthetic lists spanning the realistic delta widths: full-list
 * block-view decode through delta+varint versus bit-packed blocks
 * (SIMD tier reported via postingSimdLevel()), and a two-list AND
 * through the per-doc seekGE merge versus the bulk SIMD
 * intersectTermCursors() path. check_bench.py gates the
 * machine-independent ratios (packed >= varint decode, bulk >= merge
 * intersection) absolutely and the absolute packed postings/sec
 * against the baseline on comparable hosts.
 *
 * A build_tail section times Implementation 2's step after Stage 3 on
 * four round-robin lanes with two threads: the legacy joinParallel ->
 * IndexSnapshot::seal against the merge-and-pack
 * IndexSnapshot::sealMerged (same snapshot bytes, checked). Its
 * speedup is a same-machine ratio; check_bench.py gates it >= 1.5.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/index_generator.hh"
#include "fs/corpus.hh"
#include "index/doc_table.hh"
#include "index/index_join.hh"
#include "index/index_snapshot.hh"
#include "index/inverted_index.hh"
#include "index/posting_block.hh"
#include "index/posting_cursor.hh"
#include "index/serialize.hh"
#include "pipeline/blocking_queue.hh"
#include "search/plan.hh"
#include "search/ranked.hh"
#include "search/searcher.hh"
#include "text/tokenizer.hh"
#include "util/fnv_hash.hh"
#include "util/hash_map.hh"
#include "util/rng.hh"
#include "util/timer.hh"
#include "util/zipf.hh"

// ----------------------------------------------------------------------
// Allocation instrumentation: every global new is counted so the
// Stage 2+3 comparison can report bytes allocated per block.
// ----------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_calls{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dsearch;

std::vector<std::string>
wordKeys(std::size_t n)
{
    std::vector<std::string> keys;
    keys.reserve(n);
    Rng rng(42);
    ZipfDistribution zipf(n, 1.0);
    for (std::size_t i = 0; i < n; ++i)
        keys.push_back("word" + std::to_string(i));
    return keys;
}

void
BM_Fnv1a64(benchmark::State &state)
{
    std::string data(static_cast<std::size_t>(state.range(0)), 'x');
    for (auto _ : state)
        benchmark::DoNotOptimize(fnv1a_64(data.data(), data.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations())
        * state.range(0));
}
BENCHMARK(BM_Fnv1a64)->Arg(8)->Arg(64)->Arg(4096);

void
BM_HashMapInsert(benchmark::State &state)
{
    auto keys = wordKeys(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        HashMap<std::string, int> map;
        for (const std::string &key : keys)
            map.insert(key, 1);
        benchmark::DoNotOptimize(map.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations())
        * state.range(0));
}
BENCHMARK(BM_HashMapInsert)->Arg(1000)->Arg(100000);

void
BM_StdUnorderedMapInsert(benchmark::State &state)
{
    auto keys = wordKeys(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        std::unordered_map<std::string, int> map;
        for (const std::string &key : keys)
            map.emplace(key, 1);
        benchmark::DoNotOptimize(map.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations())
        * state.range(0));
}
BENCHMARK(BM_StdUnorderedMapInsert)->Arg(1000)->Arg(100000);

void
BM_HashMapLookup(benchmark::State &state)
{
    auto keys = wordKeys(static_cast<std::size_t>(state.range(0)));
    HashMap<std::string, int> map;
    for (const std::string &key : keys)
        map.insert(key, 1);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.find(keys[i]));
        i = (i + 1) % keys.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashMapLookup)->Arg(100000);

void
BM_HashMapLookupHashed(benchmark::State &state)
{
    // The Stage-3 probe as the zero-copy pipeline issues it: a
    // string_view with its hash already in hand.
    auto keys = wordKeys(static_cast<std::size_t>(state.range(0)));
    HashMap<std::string, int> map;
    std::vector<std::uint64_t> hashes;
    hashes.reserve(keys.size());
    for (const std::string &key : keys) {
        map.insert(key, 1);
        hashes.push_back(fnv1a_64(key));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.findHashed(
            hashes[i], std::string_view(keys[i])));
        i = (i + 1) % keys.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashMapLookupHashed)->Arg(100000);

void
BM_StdUnorderedMapLookup(benchmark::State &state)
{
    auto keys = wordKeys(static_cast<std::size_t>(state.range(0)));
    std::unordered_map<std::string, int> map;
    for (const std::string &key : keys)
        map.emplace(key, 1);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.find(keys[i]));
        i = (i + 1) % keys.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StdUnorderedMapLookup)->Arg(100000);

void
BM_TokenizerThroughput(benchmark::State &state)
{
    // Representative document text.
    Rng rng(7);
    ZipfDistribution zipf(20000, 1.0);
    std::string text;
    while (text.size() < static_cast<std::size_t>(state.range(0))) {
        text += "w" + std::to_string(zipf.sample(rng));
        text += ' ';
    }
    Tokenizer tokenizer;
    for (auto _ : state) {
        std::size_t count = 0;
        tokenizer.forEachToken(text,
                               [&count](std::string_view) { ++count; });
        benchmark::DoNotOptimize(count);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_TokenizerThroughput)->Arg(1 << 14)->Arg(1 << 20);

void
BM_ZipfSample(benchmark::State &state)
{
    ZipfDistribution zipf(static_cast<std::size_t>(state.range(0)),
                          1.0);
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(120000);

void
BM_BlockingQueuePingPong(benchmark::State &state)
{
    BlockingQueue<int> queue(64);
    for (auto _ : state) {
        queue.push(1);
        int out;
        queue.pop(out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BlockingQueuePingPong);

void
BM_IndexAddBlock(benchmark::State &state)
{
    // Per-file en-bloc insertion: the Stage 3 unit of work.
    const std::size_t terms_per_block =
        static_cast<std::size_t>(state.range(0));
    TermBlock block;
    for (std::size_t t = 0; t < terms_per_block; ++t)
        block.addTerm("term" + std::to_string(t));
    DocId doc = 0;
    InvertedIndex index;
    for (auto _ : state) {
        block.doc = doc++;
        index.addBlock(block);
        benchmark::DoNotOptimize(index.postingCount());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(terms_per_block));
}
BENCHMARK(BM_IndexAddBlock)->Arg(64)->Arg(512);

void
BM_IndexMerge(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        InvertedIndex a, b;
        TermBlock block;
        for (int t = 0; t < 2000; ++t)
            block.addTerm("t" + std::to_string(t));
        block.doc = 0;
        a.addBlock(block);
        block.doc = 1;
        b.addBlock(block);
        state.ResumeTiming();
        a.merge(std::move(b));
        benchmark::DoNotOptimize(a.postingCount());
    }
}
BENCHMARK(BM_IndexMerge);

// ----------------------------------------------------------------------
// Stage 2+3 comparison: seed-style string pipeline vs the zero-copy
// arena pipeline, over the same corpus. The legacy containers below
// faithfully replicate the seed's behaviour: no cached hashes (every
// probe and every rehash re-hashes the key), no heterogeneous lookup
// (every token becomes a std::string before dedup), and blocks as
// vector<std::string>.
// ----------------------------------------------------------------------

/** Seed-replica open-addressing map: string keys, hash-per-probe. */
template <typename Value>
class LegacyMap
{
  public:
    Value &
    operator[](const std::string &key)
    {
        growIfNeeded();
        std::size_t pos = probe(key);
        if (!_slots[pos].occupied) {
            _slots[pos].key = key;
            _slots[pos].occupied = true;
            ++_size;
        }
        return _slots[pos].value;
    }

    bool
    insert(const std::string &key)
    {
        growIfNeeded();
        std::size_t pos = probe(key);
        if (_slots[pos].occupied)
            return false;
        _slots[pos].key = key;
        _slots[pos].occupied = true;
        ++_size;
        return true;
    }

    void
    clear()
    {
        for (auto &slot : _slots)
            slot = Slot{};
        _size = 0;
    }

    std::size_t size() const { return _size; }

  private:
    struct Slot
    {
        std::string key{};
        Value value{};
        bool occupied = false;
    };

    std::size_t
    probe(const std::string &key) const
    {
        // The seed's probe: hash computed here, full string compares
        // along the chain.
        std::size_t mask = _slots.size() - 1;
        std::size_t pos = fnv1a_64(key) & mask;
        while (_slots[pos].occupied && !(_slots[pos].key == key))
            pos = (pos + 1) & mask;
        return pos;
    }

    void
    growIfNeeded()
    {
        if (_slots.empty()) {
            _slots.assign(16, Slot{});
            return;
        }
        if ((_size + 1) * 8 > _slots.size() * 5) {
            std::vector<Slot> old = std::move(_slots);
            _slots.assign(old.size() * 2, Slot{});
            for (Slot &slot : old) {
                if (slot.occupied) {
                    // Seed rehash: re-hashes every key.
                    std::size_t pos = probe(slot.key);
                    _slots[pos] = std::move(slot);
                }
            }
        }
    }

    std::vector<Slot> _slots;
    std::size_t _size = 0;
};

struct StageMetrics
{
    double seconds = 0;
    std::uint64_t tokens = 0;
    std::uint64_t postings = 0;
    std::uint64_t files = 0;
    std::uint64_t alloc_bytes = 0;
    std::uint64_t alloc_calls = 0;

    double tokensPerSec() const { return tokens / seconds; }
    double postingsPerSec() const { return postings / seconds; }
    double
    allocBytesPerBlock() const
    {
        return files ? static_cast<double>(alloc_bytes) / files : 0.0;
    }
    double
    allocsPerToken() const
    {
        return tokens ? static_cast<double>(alloc_calls) / tokens : 0.0;
    }
};

/** Seed-style Stage 2+3 over @p files: string dedup + string map. */
StageMetrics
runLegacy(const FileSystem &fs, const FileList &files)
{
    StageMetrics m;
    Tokenizer tokenizer;
    LegacyMap<char> seen;
    LegacyMap<PostingList> index;
    std::string content;
    std::uint64_t alloc_bytes0 = g_alloc_bytes.load();
    std::uint64_t alloc_calls0 = g_alloc_calls.load();
    Timer timer;
    for (const FileEntry &file : files) {
        if (!fs.readFile(file.path, content))
            continue;
        seen.clear();
        std::vector<std::string> terms;
        tokenizer.forEachToken(content, [&](std::string_view term) {
            ++m.tokens;
            std::string owned(term);
            if (seen.insert(owned))
                terms.push_back(std::move(owned));
        });
        for (const std::string &term : terms) {
            index[term].push_back(file.doc);
            ++m.postings;
        }
        ++m.files;
    }
    m.seconds = timer.elapsedSec();
    m.alloc_bytes = g_alloc_bytes.load() - alloc_bytes0;
    m.alloc_calls = g_alloc_calls.load() - alloc_calls0;
    benchmark::DoNotOptimize(index.size());
    return m;
}

/** Zero-copy Stage 2+3 over @p files: arena blocks + hashed inserts. */
StageMetrics
runZeroCopy(const FileSystem &fs, const FileList &files)
{
    StageMetrics m;
    TermExtractor extractor(fs);
    InvertedIndex index;
    TermBlock block;
    std::uint64_t alloc_bytes0 = g_alloc_bytes.load();
    std::uint64_t alloc_calls0 = g_alloc_calls.load();
    Timer timer;
    for (const FileEntry &file : files) {
        if (!extractor.extract(file, block))
            continue;
        index.addBlock(block);
    }
    m.seconds = timer.elapsedSec();
    m.tokens = extractor.stats().tokens;
    m.postings = index.postingCount();
    m.files = extractor.stats().files;
    m.alloc_bytes = g_alloc_bytes.load() - alloc_bytes0;
    m.alloc_calls = g_alloc_calls.load() - alloc_calls0;
    benchmark::DoNotOptimize(index.termCount());
    return m;
}

/** Sealed-segment storage + throughput metrics; see file comment. */
struct SealedMetrics
{
    std::uint64_t postings = 0;
    std::uint64_t raw_bytes = 0;        ///< postings * sizeof(DocId)
    std::uint64_t compressed_bytes = 0; ///< arena + skip entries
    double seal_seconds = 0;
    double decode_seconds = 0;

    double
    rawBytesPerPosting() const
    {
        return postings ? static_cast<double>(raw_bytes) / postings
                        : 0.0;
    }
    double
    compressedBytesPerPosting() const
    {
        return postings
                   ? static_cast<double>(compressed_bytes) / postings
                   : 0.0;
    }
    double
    compressionRatio() const
    {
        return compressed_bytes
                   ? static_cast<double>(raw_bytes) / compressed_bytes
                   : 0.0;
    }
    double sealPostingsPerSec() const
    {
        return postings / seal_seconds;
    }
    double decodePostingsPerSec() const
    {
        return postings / decode_seconds;
    }
};

/**
 * Build the index once more over @p files, then measure sealing
 * (sort + block-encode into the segment arena) and a full decode
 * (every term's cursor walked end to end).
 */
SealedMetrics
runSealedSegment(const FileSystem &fs, const FileList &files)
{
    TermExtractor extractor(fs);
    InvertedIndex index;
    TermBlock block;
    for (const FileEntry &file : files) {
        if (!extractor.extract(file, block))
            continue;
        index.addBlock(block);
    }

    SealedMetrics m;
    m.postings = index.postingCount();
    m.raw_bytes = m.postings * sizeof(DocId);

    Timer seal_timer;
    IndexSnapshot snapshot = IndexSnapshot::seal(std::move(index));
    m.seal_seconds = seal_timer.elapsedSec();
    m.compressed_bytes = snapshot.segment(0).sealed()->postingBytes();

    Timer decode_timer;
    std::uint64_t decoded = 0;
    DocId checksum = 0;
    snapshot.forEachTerm(
        [&decoded, &checksum](const std::string &, PostingCursor c) {
            for (; c.valid(); c.next()) {
                checksum ^= c.doc();
                ++decoded;
            }
        });
    m.decode_seconds = decode_timer.elapsedSec();
    benchmark::DoNotOptimize(checksum);
    if (decoded != m.postings)
        std::cerr << "bench_micro: decode mismatch: " << decoded
                  << " != " << m.postings << "\n";
    return m;
}

// ----------------------------------------------------------------------
// Build tail: what Implementation 2 does after Stage 3. The legacy
// path concatenates the replicas (joinParallel on z threads) and seals
// the joined index (sort each list, encode); merge-and-pack k-way
// merges each term across the replicas and packs it, on the same z
// threads. Both run on the same four round-robin lanes and must write
// the same snapshot bytes.
// ----------------------------------------------------------------------

/** Legacy join -> seal against merge-and-pack; see above. */
struct BuildTailMetrics
{
    std::size_t lanes = 0;
    std::size_t threads = 0;
    std::uint64_t postings = 0;
    double legacy_seconds = 0;
    double merge_pack_seconds = 0;

    double speedup() const { return legacy_seconds / merge_pack_seconds; }
};

/** @return saveSnapshot()'s bytes for @p snapshot. */
std::string
snapshotBytes(const IndexSnapshot &snapshot, const DocTable &docs)
{
    std::ostringstream out;
    saveSnapshot(snapshot, docs, out);
    return std::move(out).str();
}

BuildTailMetrics
runBuildTail(const FileSystem &fs, const FileList &files)
{
    BuildTailMetrics m;
    m.lanes = 4;
    m.threads = 2; // z of the paper's (4, 0, 2)
    std::vector<InvertedIndex> replicas(m.lanes);
    TermExtractor extractor(fs);
    TermBlock block;
    for (const FileEntry &file : files) {
        if (extractor.extract(file, block))
            replicas[file.doc % m.lanes].addBlock(block);
    }
    for (const InvertedIndex &replica : replicas)
        m.postings += replica.postingCount();
    auto copy = [&replicas] {
        std::vector<InvertedIndex> lanes;
        for (const InvertedIndex &replica : replicas)
            lanes.push_back(replica.clone());
        return lanes;
    };

    // Warm-up pass (checks the bytes), then best of three.
    const DocTable docs = DocTable::fromFileList(files);
    for (int pass = -1; pass < 3; ++pass) {
        std::vector<InvertedIndex> legacy_lanes = copy();
        Timer legacy_timer;
        IndexSnapshot legacy = IndexSnapshot::seal(
            joinParallel(std::move(legacy_lanes), m.threads));
        const double legacy_s = legacy_timer.elapsedSec();

        std::vector<InvertedIndex> merge_lanes = copy();
        Timer merge_timer;
        IndexSnapshot merged =
            IndexSnapshot::sealMerged(std::move(merge_lanes), m.threads);
        const double merge_s = merge_timer.elapsedSec();

        if (pass < 0) {
            if (snapshotBytes(legacy, docs) != snapshotBytes(merged, docs))
                std::cerr << "bench_micro: build_tail mismatch: "
                             "merge-and-pack bytes differ from "
                             "join -> seal\n";
            continue;
        }
        if (pass == 0 || legacy_s < m.legacy_seconds)
            m.legacy_seconds = legacy_s;
        if (pass == 0 || merge_s < m.merge_pack_seconds)
            m.merge_pack_seconds = merge_s;
    }
    return m;
}

// ----------------------------------------------------------------------
// Posting-codec head-to-head: varint vs bit-packed decode, seekGE
// merge vs bulk SIMD intersection. Synthetic lists isolate the codec
// from corpus shape; the gap profiles cover the packed widths a real
// index produces (dense runs through sparse jumps).
// ----------------------------------------------------------------------

/** One synthetic posting list in both encodings. */
struct CodecList
{
    std::vector<DocId> docs;
    std::vector<std::uint8_t> varint_bytes;
    std::vector<SkipEntry> varint_skips;
    std::vector<std::uint8_t> packed_bytes;
    std::vector<SkipEntry> packed_skips;

    explicit CodecList(std::vector<DocId> d) : docs(std::move(d))
    {
        encodePostings(docs.data(), docs.size(), varint_bytes,
                       varint_skips);
        encodePostingsPacked(docs.data(), docs.size(), packed_bytes,
                             packed_skips);
    }

    PostingCursor
    cursor(PostingCodec codec) const
    {
        const bool packed = codec == PostingCodec::Packed;
        const auto &bytes = packed ? packed_bytes : varint_bytes;
        const auto &skips = packed ? packed_skips : varint_skips;
        return PostingCursor(
            bytes.data(), skips.empty() ? nullptr : skips.data(),
            static_cast<std::uint32_t>(skips.size()),
            static_cast<std::uint32_t>(docs.size()), codec);
    }
};

/** Sorted list of @p n docs with average gap @p mean_gap. */
std::vector<DocId>
syntheticDocs(Rng &rng, std::size_t n, DocId mean_gap)
{
    std::vector<DocId> docs;
    docs.reserve(n);
    DocId doc = 0;
    for (std::size_t i = 0; i < n; ++i) {
        doc += 1 + static_cast<DocId>(rng.nextU64() % (2 * mean_gap));
        docs.push_back(doc);
    }
    return docs;
}

struct CodecDecodeMetrics
{
    std::uint64_t postings = 0;
    double varint_seconds = 0;
    double packed_seconds = 0;

    double varintPostingsPerSec() const
    {
        return postings / varint_seconds;
    }
    double packedPostingsPerSec() const
    {
        return postings / packed_seconds;
    }
    /** Throughput ratio: > 1 means bit-packed decodes faster. */
    double packedVsVarint() const
    {
        return varint_seconds / packed_seconds;
    }
};

/** Best-of-passes block-view walk over every list in @p lists. */
double
timeDecodeWalk(const std::vector<CodecList> &lists, PostingCodec codec,
               int passes)
{
    double best = 0;
    for (int pass = 0; pass < passes; ++pass) {
        Timer timer;
        DocId checksum = 0;
        for (const CodecList &list : lists) {
            PostingCursor c = list.cursor(codec);
            while (c.valid()) {
                const DocId *p = c.blockDocs();
                const std::size_t n = c.blockRemaining();
                checksum ^= p[0] ^ p[n - 1];
                c.skipInBlock(n);
            }
        }
        const double seconds = timer.elapsedSec();
        benchmark::DoNotOptimize(checksum);
        if (pass == 0 || seconds < best)
            best = seconds;
    }
    return best;
}

CodecDecodeMetrics
runCodecDecode()
{
    // Four gap profiles -> packed widths ~2 through ~14 bits.
    Rng rng(0xdec0de);
    std::vector<CodecList> lists;
    const std::size_t per_list = 1 << 19;
    for (DocId mean_gap : {1, 4, 100, 5000})
        lists.emplace_back(syntheticDocs(rng, per_list, mean_gap));

    CodecDecodeMetrics m;
    for (const CodecList &list : lists)
        m.postings += list.docs.size();
    timeDecodeWalk(lists, PostingCodec::Varint, 1); // warm-up
    timeDecodeWalk(lists, PostingCodec::Packed, 1);
    m.varint_seconds = timeDecodeWalk(lists, PostingCodec::Varint, 5);
    m.packed_seconds = timeDecodeWalk(lists, PostingCodec::Packed, 5);
    return m;
}

struct IntersectMetrics
{
    std::uint64_t postings = 0; ///< Summed input list lengths.
    std::uint64_t matches = 0;
    double merge_seconds = 0; ///< Per-doc seekGE merge.
    double bulk_seconds = 0;  ///< Blockwise SIMD path.

    double mergePostingsPerSec() const
    {
        return postings / merge_seconds;
    }
    double bulkPostingsPerSec() const
    {
        return postings / bulk_seconds;
    }
    double speedup() const { return merge_seconds / bulk_seconds; }
};

/** The pre-SIMD AND loop: advance the behind cursor with seekGE. */
std::size_t
mergeIntersect(PostingCursor a, PostingCursor b)
{
    std::size_t matches = 0;
    DocId checksum = 0;
    while (a.valid() && b.valid()) {
        if (a.doc() == b.doc()) {
            checksum ^= a.doc();
            ++matches;
            a.next();
            b.next();
        } else if (a.doc() < b.doc()) {
            if (!a.seekGE(b.doc()))
                break;
        } else if (!b.seekGE(a.doc())) {
            break;
        }
    }
    benchmark::DoNotOptimize(checksum);
    return matches;
}

IntersectMetrics
runIntersection()
{
    // A dense 2M list against a 4:1 sparser one over the same doc
    // space: enough overlap that the kernel does real work, enough
    // skew that galloping matters.
    Rng rng(0xa17d);
    CodecList a(syntheticDocs(rng, 2 << 20, 2));
    CodecList b(syntheticDocs(rng, 1 << 19, 8));

    IntersectMetrics m;
    m.postings = a.docs.size() + b.docs.size();

    const int passes = 5;
    std::size_t merge_matches = 0;
    std::size_t bulk_matches = 0;
    for (int pass = -1; pass < passes; ++pass) { // pass -1 warms up
        Timer merge_timer;
        merge_matches = mergeIntersect(a.cursor(PostingCodec::Packed),
                                       b.cursor(PostingCodec::Packed));
        const double merge_s = merge_timer.elapsedSec();

        Timer bulk_timer;
        std::vector<PostingCursor> cursors;
        cursors.push_back(a.cursor(PostingCodec::Packed));
        cursors.push_back(b.cursor(PostingCodec::Packed));
        DocSet out = intersectTermCursors(std::move(cursors));
        const double bulk_s = bulk_timer.elapsedSec();
        bulk_matches = out.size();
        benchmark::DoNotOptimize(out.data());

        if (pass < 0)
            continue;
        if (pass == 0 || merge_s < m.merge_seconds)
            m.merge_seconds = merge_s;
        if (pass == 0 || bulk_s < m.bulk_seconds)
            m.bulk_seconds = bulk_s;
    }
    m.matches = bulk_matches;
    if (merge_matches != bulk_matches)
        std::cerr << "bench_micro: intersection mismatch: "
                  << merge_matches << " != " << bulk_matches << "\n";
    return m;
}

// ----------------------------------------------------------------------
// Query execution head-to-head: the legacy recursive AST walk
// (evalQueryNode + the inline ranked loop it used to feed) versus the
// planner/operator path every serving tier now runs (compile a
// QueryPlan per request, evaluate its operator tree). The plan side
// pays compilation per query — exactly the production shape — so the
// gated ratio proves the refactor costs nothing end to end.
// ----------------------------------------------------------------------

struct QueryExecMetrics
{
    std::uint64_t queries = 0; ///< Evaluations per timed pass.
    double legacy_seconds = 0;
    double plan_seconds = 0;

    double legacyQps() const { return queries / legacy_seconds; }
    double planQps() const { return queries / plan_seconds; }
    /** > 1 means the planner path answers faster than the AST walk. */
    double speedup() const { return legacy_seconds / plan_seconds; }
};

/** The pre-planner ranked loop, inlined as the legacy side. */
std::vector<ScoredHit>
legacyRankedTopK(const IndexSnapshot &snapshot, const DocTable &docs,
                 const DocSet &universe, const Query &query,
                 std::size_t k)
{
    DocSet matches =
        evalQueryNode(snapshot.segment(0), universe, query.root());
    if (matches.empty())
        return {};
    std::vector<double> scores(matches.size(), 0.0);
    for (const std::string &term : positiveTerms(query.root())) {
        const std::size_t df = snapshot.termDocCount(term);
        if (df == 0)
            continue;
        accumulateCursor(matches, snapshot.cursor(term),
                         idfFromCounts(docs.docCount(), df), scores);
    }
    std::vector<ScoredHit> hits;
    hits.reserve(matches.size());
    for (std::size_t i = 0; i < matches.size(); ++i) {
        double penalty = std::log(
            2.0 + static_cast<double>(docs.sizeBytes(matches[i])));
        hits.push_back(ScoredHit{matches[i], scores[i] / penalty});
    }
    std::stable_sort(hits.begin(), hits.end(),
                     [](const ScoredHit &a, const ScoredHit &b) {
                         if (a.score != b.score)
                             return a.score > b.score;
                         return a.doc < b.doc;
                     });
    if (hits.size() > k)
        hits.resize(k);
    return hits;
}

QueryExecMetrics
runQueryExec()
{
    // A synthetic unified snapshot with Zipf-flavoured term densities:
    // t0 matches roughly half the corpus, t19 a sliver — the skew that
    // makes df-ordering and the bulk AND kernel matter.
    constexpr std::size_t vocab = 20;
    constexpr DocId doc_count = 100000;
    Rng rng(0x9e7a);
    InvertedIndex index;
    DocTable docs;
    for (DocId doc = 0; doc < doc_count; ++doc) {
        TermBlock block;
        block.doc = doc;
        bool any = false;
        for (std::size_t v = 0; v < vocab; ++v) {
            if (rng.bernoulli(0.5 / static_cast<double>(v + 1))) {
                block.addTerm("t" + std::to_string(v));
                any = true;
            }
        }
        if (any)
            index.addBlock(block);
        docs.add("/f" + std::to_string(doc),
                 100 + rng.uniform(0, 4000));
    }
    IndexSnapshot snapshot = IndexSnapshot::seal(std::move(index));
    Searcher searcher(snapshot, doc_count);
    RankedSearcher ranked(snapshot, docs);
    DocSet universe(doc_count);
    for (DocId doc = 0; doc < doc_count; ++doc)
        universe[doc] = doc;
    const SegmentReader segment = snapshot.segment(0);

    // The shapes every tier serves: plain ANDs wide and narrow, an
    // OR, NOT as a difference, a mixed tree, and a ranked top-10.
    struct Shape
    {
        Query query;
        bool is_ranked;
    };
    std::vector<Shape> shapes;
    for (const char *text :
         {"t0 AND t3", "t0 AND t1 AND t2 AND t5", "t4 OR t7 OR t9",
          "t0 AND NOT t2", "(t0 AND t1) OR (t3 AND NOT t4)"})
        shapes.push_back(Shape{Query::parse(text), false});
    shapes.push_back(Shape{Query::parse("t1 AND (t6 OR t8)"), true});

    constexpr int iterations = 30;
    QueryExecMetrics m;
    m.queries =
        static_cast<std::uint64_t>(shapes.size()) * iterations;

    // Cross-check once before timing: both paths must agree.
    for (const Shape &shape : shapes) {
        if (shape.is_ranked)
            continue;
        const DocSet plan_hits = searcher.run(shape.query);
        const DocSet legacy_hits =
            evalQueryNode(segment, universe, shape.query.root());
        if (plan_hits != legacy_hits)
            std::cerr << "bench_micro: query_exec mismatch: "
                      << shape.query.toString() << "\n";
    }

    const int passes = 5;
    for (int pass = -1; pass < passes; ++pass) { // pass -1 warms up
        Timer legacy_timer;
        std::size_t checksum = 0;
        for (int i = 0; i < iterations; ++i) {
            for (const Shape &shape : shapes) {
                if (shape.is_ranked)
                    checksum += legacyRankedTopK(snapshot, docs,
                                                 universe,
                                                 shape.query, 10)
                                    .size();
                else
                    checksum += evalQueryNode(segment, universe,
                                              shape.query.root())
                                    .size();
            }
        }
        const double legacy_s = legacy_timer.elapsedSec();
        benchmark::DoNotOptimize(checksum);

        Timer plan_timer;
        checksum = 0;
        for (int i = 0; i < iterations; ++i) {
            for (const Shape &shape : shapes) {
                if (shape.is_ranked)
                    checksum +=
                        ranked.topK(shape.query, 10).size();
                else
                    checksum += searcher.run(shape.query).size();
            }
        }
        const double plan_s = plan_timer.elapsedSec();
        benchmark::DoNotOptimize(checksum);

        if (pass < 0)
            continue;
        if (pass == 0 || legacy_s < m.legacy_seconds)
            m.legacy_seconds = legacy_s;
        if (pass == 0 || plan_s < m.plan_seconds)
            m.plan_seconds = plan_s;
    }
    return m;
}

void
writeJson(std::ostream &out, const StageMetrics &legacy,
          const StageMetrics &zero_copy, const SealedMetrics &sealed,
          const CodecDecodeMetrics &decode,
          const IntersectMetrics &intersect,
          const QueryExecMetrics &query_exec,
          const BuildTailMetrics &build_tail,
          std::size_t corpus_files, std::uint64_t corpus_bytes)
{
    auto section = [&out](const char *name, const StageMetrics &m,
                          const char *trailing) {
        out << "  \"" << name << "\": {\n"
            << "    \"seconds\": " << m.seconds << ",\n"
            << "    \"tokens_per_sec\": " << m.tokensPerSec() << ",\n"
            << "    \"postings_per_sec\": " << m.postingsPerSec()
            << ",\n"
            << "    \"alloc_bytes_per_block\": "
            << m.allocBytesPerBlock() << ",\n"
            << "    \"allocs_per_token\": " << m.allocsPerToken()
            << "\n  }" << trailing << "\n";
    };
    out << "{\n"
        << "  \"bench\": \"stage23_micro\",\n"
        << "  \"corpus\": {\"files\": " << corpus_files
        << ", \"bytes\": " << corpus_bytes << "},\n";
    section("legacy", legacy, ",");
    section("zero_copy", zero_copy, ",");
    out << "  \"sealed_segment\": {\n"
        << "    \"postings\": " << sealed.postings << ",\n"
        << "    \"raw_bytes_per_posting\": "
        << sealed.rawBytesPerPosting() << ",\n"
        << "    \"compressed_bytes_per_posting\": "
        << sealed.compressedBytesPerPosting() << ",\n"
        << "    \"compression_ratio\": " << sealed.compressionRatio()
        << ",\n"
        << "    \"seal_postings_per_sec\": "
        << sealed.sealPostingsPerSec() << ",\n"
        << "    \"decode_postings_per_sec\": "
        << sealed.decodePostingsPerSec() << "\n  },\n";
    out << "  \"posting_decode\": {\n"
        << "    \"postings\": " << decode.postings << ",\n"
        << "    \"simd_level\": \"" << postingSimdLevel() << "\",\n"
        << "    \"varint_postings_per_sec\": "
        << decode.varintPostingsPerSec() << ",\n"
        << "    \"packed_postings_per_sec\": "
        << decode.packedPostingsPerSec() << ",\n"
        << "    \"packed_vs_varint\": " << decode.packedVsVarint()
        << "\n  },\n";
    out << "  \"intersection\": {\n"
        << "    \"postings\": " << intersect.postings << ",\n"
        << "    \"matches\": " << intersect.matches << ",\n"
        << "    \"merge_postings_per_sec\": "
        << intersect.mergePostingsPerSec() << ",\n"
        << "    \"bulk_postings_per_sec\": "
        << intersect.bulkPostingsPerSec() << ",\n"
        << "    \"speedup\": " << intersect.speedup() << "\n  },\n";
    out << "  \"query_exec\": {\n"
        << "    \"queries\": " << query_exec.queries << ",\n"
        << "    \"legacy_qps\": " << query_exec.legacyQps() << ",\n"
        << "    \"plan_qps\": " << query_exec.planQps() << ",\n"
        << "    \"speedup\": " << query_exec.speedup() << "\n  },\n";
    out << "  \"build_tail\": {\n"
        << "    \"lanes\": " << build_tail.lanes << ",\n"
        << "    \"threads\": " << build_tail.threads << ",\n"
        << "    \"postings\": " << build_tail.postings << ",\n"
        << "    \"legacy_seconds\": " << build_tail.legacy_seconds
        << ",\n"
        << "    \"merge_pack_seconds\": "
        << build_tail.merge_pack_seconds << ",\n"
        << "    \"speedup\": " << build_tail.speedup() << "\n  },\n";
    out << "  \"speedup\": "
        << legacy.seconds / zero_copy.seconds << ",\n"
        << "  \"alloc_bytes_per_block_ratio\": "
        << (zero_copy.allocBytesPerBlock() > 0
                ? legacy.allocBytesPerBlock()
                      / zero_copy.allocBytesPerBlock()
                : 0.0)
        << "\n}\n";
}

/** Run the Stage 2+3 comparison and write BENCH_micro.json. */
void
runStage23Comparison()
{
    CorpusSpec spec = CorpusSpec::paperScaled(0.02);
    CorpusGenerator generator(spec);
    auto fs = generator.generateInMemory();
    FileList files = generateFilenames(*fs, spec.root);

    // Warm-up pass each, then best-of-three timed passes.
    StageMetrics legacy, zero_copy;
    SealedMetrics sealed;
    runLegacy(*fs, files);
    runZeroCopy(*fs, files);
    runSealedSegment(*fs, files);
    for (int pass = 0; pass < 3; ++pass) {
        StageMetrics l = runLegacy(*fs, files);
        StageMetrics z = runZeroCopy(*fs, files);
        SealedMetrics s = runSealedSegment(*fs, files);
        if (pass == 0 || l.seconds < legacy.seconds)
            legacy = l;
        if (pass == 0 || z.seconds < zero_copy.seconds)
            zero_copy = z;
        if (pass == 0 || s.seal_seconds < sealed.seal_seconds)
            sealed = s;
    }

    CodecDecodeMetrics decode = runCodecDecode();
    IntersectMetrics intersect = runIntersection();
    QueryExecMetrics query_exec = runQueryExec();
    BuildTailMetrics build_tail = runBuildTail(*fs, files);

    std::uint64_t corpus_bytes = 0;
    for (const FileEntry &file : files)
        corpus_bytes += file.size;

    std::ofstream json("BENCH_micro.json");
    writeJson(json, legacy, zero_copy, sealed, decode, intersect,
              query_exec, build_tail, files.size(), corpus_bytes);
    writeJson(std::cout, legacy, zero_copy, sealed, decode, intersect,
              query_exec, build_tail, files.size(), corpus_bytes);
}

} // namespace

int
main(int argc, char **argv)
{
    runStage23Comparison();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
