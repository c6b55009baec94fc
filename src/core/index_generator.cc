#include "core/index_generator.hh"

#include <memory>
#include <mutex>
#include <thread>

#include "fs/traversal.hh"
#include "index/index_backend.hh"
#include "pipeline/blocking_queue.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace dsearch {

InvertedIndex &
BuildResult::primary()
{
    if (indices.empty())
        panic("BuildResult::primary: no index was built");
    return indices.front();
}

const InvertedIndex &
BuildResult::primary() const
{
    if (indices.empty())
        panic("BuildResult::primary: no index was built");
    return indices.front();
}

IndexSnapshot
BuildResult::sealIndices()
{
    snapshot = IndexSnapshot::seal(std::move(indices));
    return snapshot;
}

IndexGenerator::IndexGenerator(const FileSystem &fs, std::string root,
                               Config cfg, TokenizerOptions opts)
    : _fs(fs), _root(std::move(root)), _cfg(cfg), _opts(opts)
{
    _cfg.validate();
}

BuildResult
IndexGenerator::build(BuildOutput output)
{
    BuildResult result;
    Timer total;
    std::unique_ptr<IndexBackend> backend = runStages(result);
    if (output == BuildOutput::Snapshot)
        result.snapshot =
            backend->sealed(&result.times.join, &result.times.seal);
    else
        result.indices = backend->release(&result.times.join);
    result.times.total = total.elapsedSec();
    return result;
}

std::unique_ptr<IndexBackend>
IndexGenerator::runStages(BuildResult &result)
{
    result.config = _cfg;
    if (_cfg.impl == Implementation::Sequential)
        return runSequential(result);
    return runParallel(result);
}

namespace {

/**
 * Turn an immediate-mode occurrence list into a block, hashing each
 * occurrence once here (duplicates included — that is the point of
 * ablation E7).
 */
void
occurrencesToBlock(const std::vector<std::string> &occurrences,
                   DocId doc, TermBlock &block)
{
    block.doc = doc;
    block.clear();
    for (const std::string &term : occurrences)
        block.addTerm(term);
}

} // namespace

std::unique_ptr<IndexBackend>
IndexGenerator::runSequential(BuildResult &result)
{
    // Stage 1: single-threaded filename generation, run to completion.
    Timer stage1;
    FileList files = generateFilenames(_fs, _root);
    result.times.filename_generation = stage1.elapsedSec();
    result.docs = DocTable::fromFileList(files);

    // Stages 2+3 interleaved per file — the unoverlapped program the
    // paper's speed-ups are measured against. Stage 3 goes through
    // the backend like every other organization.
    std::unique_ptr<IndexBackend> backend = makeBackend(_cfg);
    TermExtractor extractor(_fs, _opts);
    TermBlock block;
    std::vector<std::string> occurrences;
    for (const FileEntry &file : files) {
        bool ok;
        {
            ScopedTimer t(result.times.read_and_extract);
            ok = _cfg.en_bloc
                     ? extractor.extract(file, block)
                     : extractor.extractOccurrences(file, occurrences);
        }
        if (!ok)
            continue;
        ScopedTimer t(result.times.index_update);
        // Immediate mode hashes its occurrences on the insert side,
        // like the old direct addOccurrence path — Stage 3 time.
        if (!_cfg.en_bloc)
            occurrencesToBlock(occurrences, file.doc, block);
        backend->addBlock(std::move(block), 0);
    }

    result.extraction = extractor.stats();
    return backend;
}

std::unique_ptr<IndexBackend>
IndexGenerator::runParallel(BuildResult &result)
{
    const unsigned x = _cfg.extractors;
    const unsigned y = _cfg.updaters;
    const bool buffered = y > 0;

    // ------------------------------------------------------------------
    // Stage 1. Default: run to completion on this thread, then
    // partition (the paper's design). Pipelined ablation: feed a
    // shared locked queue concurrently with Stage 2.
    // ------------------------------------------------------------------
    FileList files;
    BlockingQueue<FileEntry> file_queue(_cfg.filename_queue_capacity);
    std::unique_ptr<FileSource> source;
    if (!_cfg.pipelined_stage1) {
        Timer stage1;
        files = generateFilenames(_fs, _root);
        result.times.filename_generation = stage1.elapsedSec();
        result.docs = DocTable::fromFileList(files);
        source = makeFileSource(_cfg.distribution, files, x);
    }

    // ------------------------------------------------------------------
    // The organization of the index itself lives behind the backend;
    // this function only decides which lane each writer owns. Lanes
    // are fixed before any thread starts, so a lane is touched by
    // exactly one thread.
    // ------------------------------------------------------------------
    std::unique_ptr<IndexBackend> backend = makeBackend(_cfg);
    BlockingQueue<TermBlock> block_queue(_cfg.queue_capacity);

    std::mutex stats_mutex;
    ExtractorStats stats_total; // guarded by stats_mutex

    // ------------------------------------------------------------------
    // Stage 3: y updater threads drain the block queue into lane u.
    // ------------------------------------------------------------------
    std::vector<std::thread> updaters;
    updaters.reserve(y);
    // Updaters drain the queue in batches: one lock round-trip and
    // one producer wake-up amortized over up to updaterBatch blocks.
    constexpr std::size_t updaterBatch = 16;
    for (unsigned u = 0; u < y; ++u) {
        updaters.emplace_back([&, u] {
            std::vector<TermBlock> batch;
            while (block_queue.popBatch(batch, updaterBatch)) {
                for (TermBlock &block : batch)
                    backend->addBlock(std::move(block), u);
            }
        });
    }

    // ------------------------------------------------------------------
    // Stage 2: x extractor threads; unbuffered runs write lane w
    // directly.
    // ------------------------------------------------------------------
    Timer stage2;
    std::vector<std::thread> extractors;
    extractors.reserve(x);
    for (unsigned w = 0; w < x; ++w) {
        extractors.emplace_back([&, w] {
            TermExtractor extractor(_fs, _opts);
            FileEntry file;
            std::vector<std::string> occurrences;

            auto next_file = [&]() {
                return _cfg.pipelined_stage1 ? file_queue.pop(file)
                                             : source->next(w, file);
            };

            TermBlock block;
            while (next_file()) {
                bool ok;
                if (_cfg.en_bloc) {
                    ok = extractor.extract(file, block);
                } else {
                    ok = extractor.extractOccurrences(file,
                                                      occurrences);
                    if (ok)
                        occurrencesToBlock(occurrences, file.doc,
                                           block);
                }
                if (!ok)
                    continue;

                if (buffered)
                    block_queue.push(std::move(block));
                else
                    backend->addBlock(std::move(block), w);
            }

            std::scoped_lock lock(stats_mutex);
            stats_total.add(extractor.stats());
        });
    }

    // Pipelined Stage 1 runs here, concurrently with the extractors:
    // one push (and one matching pop) per filename — the lock pair the
    // paper measured.
    if (_cfg.pipelined_stage1) {
        Timer stage1;
        DocTable docs;
        traverseFiles(_fs, _root,
                      [&docs, &file_queue](const std::string &path,
                                           std::uint64_t size) {
                          FileEntry entry;
                          entry.path = path;
                          entry.size = size;
                          entry.doc = docs.add(path, size);
                          file_queue.push(std::move(entry));
                      });
        file_queue.close();
        result.times.filename_generation = stage1.elapsedSec();
        result.docs = std::move(docs);
    }

    for (std::thread &extractor : extractors)
        extractor.join();
    result.times.read_and_extract = stage2.elapsedSec();

    // Drain: close the buffer, let updaters finish the backlog.
    Timer stage3;
    block_queue.close();
    for (std::thread &updater : updaters)
        updater.join();
    result.times.index_update = stage3.elapsedSec();

    {
        std::scoped_lock lock(stats_mutex);
        result.extraction = stats_total;
    }

    // Finalizing is the caller's choice (release or seal) and the
    // backend's business; the "Join Forces" barrier is implicit:
    // every writer joined above.
    return backend;
}

StageTimes
IndexGenerator::measureSequentialStages(const FileSystem &fs,
                                        const std::string &root,
                                        TokenizerOptions opts)
{
    StageTimes times;
    Timer total;

    // (a) Filename generation.
    Timer stage1;
    FileList files = generateFilenames(fs, root);
    times.filename_generation = stage1.elapsedSec();

    // (b) The "empty scanner": read each file byte by byte without
    // extracting anything.
    {
        Timer timer;
        std::string content;
        std::uint64_t checksum = 0;
        for (const FileEntry &file : files) {
            if (!fs.readFile(file.path, content))
                continue;
            for (char c : content)
                checksum += static_cast<unsigned char>(c);
        }
        // Defeat dead-code elimination of the read loop.
        volatile std::uint64_t sink = checksum;
        (void)sink;
        times.read_files = timer.elapsedSec();
    }

    // (c) Read files and extract terms (no index).
    {
        Timer timer;
        TermExtractor extractor(fs, opts);
        TermBlock block;
        for (const FileEntry &file : files)
            extractor.extract(file, block);
        times.read_and_extract = timer.elapsedSec();
    }

    // (d) Index update alone: re-extract (untimed) and time only the
    // en-bloc inserts.
    {
        TermExtractor extractor(fs, opts);
        TermBlock block;
        InvertedIndex index;
        for (const FileEntry &file : files) {
            if (!extractor.extract(file, block))
                continue;
            ScopedTimer t(times.index_update);
            index.addBlock(block);
        }
    }

    times.total = total.elapsedSec();
    return times;
}

} // namespace dsearch
