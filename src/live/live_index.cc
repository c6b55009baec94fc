#include "live/live_index.hh"

#include <algorithm>
#include <chrono>

#include "text/term_extractor.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace dsearch {

namespace {

/**
 * Decode a sealed snapshot back into a mutable index, dropping
 * tombstoned postings — the read half of compaction. Deltas are tiny
 * and the base decodes at hundreds of M postings/s, so materializing
 * is cheap next to the merge-and-pack seal that follows. Each term's
 * list comes out sorted, so that seal only merges.
 */
InvertedIndex
materialize(const IndexSnapshot &snapshot, const DocSet &tombstones)
{
    InvertedIndex out;
    if (snapshot.segmentCount() == 0)
        return out;
    SegmentReader reader = snapshot.segment(0);
    out.reserveTerms(reader.termCount());
    std::vector<DocId> scratch;
    reader.forEachTerm(
        [&](const std::string &term, PostingCursor cursor) {
            scratch.clear();
            for (; cursor.valid(); cursor.next()) {
                DocId doc = cursor.doc();
                if (!std::binary_search(tombstones.begin(),
                                        tombstones.end(), doc))
                    scratch.push_back(doc);
            }
            if (!scratch.empty())
                out.addPostings(term, scratch.data(), scratch.size());
        });
    return out;
}

/** Sorted merge of two sorted path lists (created + modified). */
std::vector<std::string>
mergePaths(const std::vector<std::string> &a,
           const std::vector<std::string> &b)
{
    std::vector<std::string> out;
    out.reserve(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(out));
    return out;
}

} // namespace

LiveIndex::LiveIndex(const FileSystem &fs, std::string root,
                     QueryServer &server, SnapshotStore *store,
                     LiveIndexOptions options, TokenizerOptions tok)
    : _fs(fs), _root(std::move(root)), _server(server), _store(store),
      _options(options), _tok(tok)
{
    if (_options.merge_threshold == 0)
        _options.merge_threshold = 1;
    if (_options.merge_retries == 0)
        _options.merge_retries = 1;
    if (_options.join_threads == 0)
        _options.join_threads = 1;
    if (_root.empty())
        _root = "/";
}

LiveIndex::~LiveIndex()
{
    stop();
}

void
LiveIndex::adopt(Engine::Result &&built)
{
    if (!built.snapshot.unified())
        panic("LiveIndex: the base build must be unified (joined "
              "organizations only)");

    std::scoped_lock lock(_mutex);
    _base = std::move(built.snapshot);
    _docs = std::move(built.docs);
    _base_docs = static_cast<DocId>(_docs.docCount());
    _deltas.clear();
    _tombstones.clear();

    _alive.clear();
    for (DocId doc = 0; doc < _docs.docCount(); ++doc)
        _alive.insert_or_assign(_docs.path(doc), doc);

    // The build just walked this corpus; a real scan (not a DocTable
    // baseline) captures mtimes, so same-size rewrites are detected
    // from the very first cycle.
    ScanSnapshot scan;
    if (scanFileSystem(_fs, _root, scan))
        _scan = std::move(scan);
    else
        _scan = baselineFromDocTable(_docs);

    if (_store != nullptr) {
        std::uint64_t gen = _store->save(_base, _docs);
        if (gen != 0)
            _stats.generation = gen;
    }
    _stats.doc_count = _docs.docCount();
    publishLocked();
}

std::uint64_t
LiveIndex::bootstrap()
{
    std::uint64_t gen = 0;
    {
        std::scoped_lock lock(_mutex);
        IndexSnapshot snapshot;
        DocTable docs;
        if (_store != nullptr)
            gen = _store->load(snapshot, docs);

        _base = std::move(snapshot);
        _docs = std::move(docs);
        _base_docs = static_cast<DocId>(_docs.docCount());
        _deltas.clear();
        _tombstones.clear();
        _stats.generation = gen;

        // Reconstruct liveness from the recovered table: the newest
        // DocId per path serves; every older one was superseded by a
        // live update before the crash and is re-tombstoned (its
        // postings may still be in the recovered base if the crash
        // predated the next compaction).
        _alive.clear();
        for (DocId doc = 0; doc < _docs.docCount(); ++doc) {
            auto [it, inserted] =
                _alive.insert_or_assign(_docs.path(doc), doc);
            (void)it;
            (void)inserted;
        }
        for (DocId doc = 0; doc < _docs.docCount(); ++doc) {
            auto it = _alive.find(_docs.path(doc));
            if (it != _alive.end() && it->second != doc)
                tombstoneLocked(doc);
        }

        // Diff the first real scan against what the recovered index
        // covers, so changes-while-down become the first delta.
        _scan = baselineFromDocTable(_docs);
        _stats.doc_count = _docs.docCount();
        _publish_pending = true; // publish even if the corpus is idle
    }

    runCycle();
    return gen;
}

void
LiveIndex::start()
{
    std::scoped_lock lock(_mutex);
    if (_running)
        return;
    _running = true;
    _stop = false;
    _scanner = std::thread([this] { scanLoop(); });
    _merger = std::thread([this] { mergeLoop(); });
}

void
LiveIndex::stop()
{
    {
        std::scoped_lock lock(_mutex);
        if (!_running)
            return;
        _stop = true;
    }
    _wake_scanner.notify_all();
    _wake_merger.notify_all();
    if (_scanner.joinable())
        _scanner.join();
    if (_merger.joinable())
        _merger.join();
    std::scoped_lock lock(_mutex);
    _running = false;
}

void
LiveIndex::tombstoneLocked(DocId doc)
{
    auto it = std::lower_bound(_tombstones.begin(), _tombstones.end(),
                               doc);
    if (it != _tombstones.end() && *it == doc)
        return;
    _tombstones.insert(it, doc);
    _stats.tombstones = _tombstones.size();
}

void
LiveIndex::killPathLocked(const std::string &path)
{
    auto it = _alive.find(path);
    if (it == _alive.end())
        return;
    tombstoneLocked(it->second);
    _alive.erase(it);
}

bool
LiveIndex::buildDelta(const std::vector<std::string> &paths,
                      const ScanSnapshot &scan)
{
    Timer timer;
    DocId first_doc;
    std::size_t expected_terms;
    {
        std::scoped_lock lock(_mutex);
        first_doc = static_cast<DocId>(_docs.docCount());
        expected_terms = _delta_terms;
    }

    // Everything below is pure until the commit: an abort (injected
    // crash) leaves the served state byte-identical, which is the
    // whole crash-safety story for deltas — they are rebuilt from the
    // next scan, never half-applied.
    if (faultFires("live.delta_build")) {
        std::scoped_lock lock(_mutex);
        ++_stats.failed_deltas;
        _stats.delta_seconds += timer.elapsedSec();
        return false;
    }

    // One sequential en-bloc index, presized from the previous
    // delta's term count: successive deltas of a steady write load
    // share most of their vocabulary, so the table seldom rehashes.
    TermExtractor extractor(_fs, _tok);
    InvertedIndex index;
    index.reserveTerms(expected_terms);

    std::vector<FileEntry> entries;
    entries.reserve(paths.size());
    TermBlock block;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        FileEntry entry;
        entry.doc = first_doc + static_cast<DocId>(i);
        entry.path = paths[i];
        entry.size = scan.at(paths[i]).size;
        // An unreadable file still occupies its DocId (matching the
        // base build, where Stage 1 lists files Stage 2 then cannot
        // read): it serves as an empty document.
        if (extractor.extract(entry, block))
            index.addBlock(block);
        block.clear();
        entries.push_back(std::move(entry));
    }
    const std::size_t terms = index.termCount();
    IndexSnapshot delta = IndexSnapshot::seal(std::move(index));

    // Commit.
    std::scoped_lock lock(_mutex);
    PendingDelta pending;
    pending.index = std::move(delta);
    pending.first_doc = first_doc;
    pending.end_doc = first_doc + static_cast<DocId>(entries.size());
    for (FileEntry &entry : entries) {
        DocId doc = _docs.add(entry.path, entry.size);
        if (doc != entry.doc)
            panic("LiveIndex: delta DocId assignment raced");
        killPathLocked(entry.path); // supersede any previous version
        _alive.insert_or_assign(std::move(entry.path), doc);
    }
    _deltas.push_back(std::move(pending));
    _delta_terms = terms;
    ++_stats.deltas_built;
    _stats.delta_docs += entries.size();
    _stats.doc_count = _docs.docCount();
    _stats.delta_seconds += timer.elapsedSec();
    return true;
}

ServingUpdate
LiveIndex::makeUpdateLocked()
{
    ServingUpdate update;
    update.base = _base;
    update.docs = _docs;
    update.base_docs = _base_docs;
    update.deltas.reserve(_deltas.size());
    for (const PendingDelta &delta : _deltas) {
        DeltaSegment segment;
        segment.index = delta.index;
        segment.first_doc = delta.first_doc;
        segment.end_doc = delta.end_doc;
        update.deltas.push_back(std::move(segment));
    }
    update.tombstones = _tombstones;
    update.generation = _stats.generation;
    return update;
}

void
LiveIndex::publishLocked()
{
    if (faultFires("live.publish")) {
        // Simulated crash between state change and server swap: the
        // served generation is now behind the in-memory one. The
        // next cycle notices _publish_pending and republishes — and
        // a real crash here loses nothing, because the state that
        // mattered (the compacted generation) is already on disk.
        _publish_pending = true;
        ++_stats.skipped_publishes;
        return;
    }
    _server.publish(makeUpdateLocked());
    _publish_pending = false;
    ++_stats.publishes;
}

bool
LiveIndex::runCycle()
{
    Timer scan_timer;
    ScanSnapshot next;
    if (!scanFileSystem(_fs, _root, next)) {
        // Aborted walk: discard (a partial scan would read as a mass
        // deletion) and retry next cycle from the old baseline.
        std::scoped_lock lock(_mutex);
        ++_stats.failed_scans;
        _stats.scan_seconds += scan_timer.elapsedSec();
        return false;
    }

    ScanDiff diff;
    {
        std::scoped_lock lock(_mutex);
        diff = diffScans(_scan, next);
        _stats.scan_seconds += scan_timer.elapsedSec();
    }

    std::vector<std::string> changed =
        mergePaths(diff.created, diff.modified);

    bool mutated = false;
    if (!changed.empty()) {
        if (!buildDelta(changed, next))
            return false; // scan baseline unchanged; retried next cycle
        mutated = true;
    }

    bool want_merge = false;
    {
        std::scoped_lock lock(_mutex);
        for (const std::string &path : diff.deleted) {
            killPathLocked(path);
            mutated = true;
        }
        _scan = std::move(next);
        ++_stats.scans;
        if (mutated || _publish_pending) {
            Timer publish_timer;
            publishLocked();
            _stats.publish_seconds += publish_timer.elapsedSec();
        }
        want_merge = shouldCompactLocked();
    }
    if (want_merge)
        _wake_merger.notify_one();
    return mutated;
}

bool
LiveIndex::mergeAttempt(const MergeInput &input, IndexSnapshot &out)
{
    if (faultFires("live.merge"))
        return false;

    std::vector<InvertedIndex> parts;
    parts.reserve(input.deltas.size() + 1);
    parts.push_back(materialize(input.base, input.tombstones));
    for (const PendingDelta &delta : input.deltas)
        parts.push_back(materialize(delta.index, input.tombstones));

    // Every materialized lane is already sorted (decoded in cursor
    // order), so the merge-and-pack seal never sorts here.
    out = IndexSnapshot::sealMerged(std::move(parts),
                                    _options.join_threads);
    return true;
}

bool
LiveIndex::compactNow()
{
    MergeInput input;
    {
        std::scoped_lock lock(_mutex);
        if (_merging || _deltas.empty())
            return false;
        _merging = true;
        input.base = _base;
        input.deltas = _deltas; // PendingDelta copies are two
                                // pointer copies per snapshot
        input.tombstones = _tombstones;
        input.docs = _docs;
        input.take = _deltas.size();
    }

    // Compaction proper runs with no lock held: the scanner keeps
    // committing new deltas (on DocIds past input.docs) and queries
    // keep serving while the merge grinds.
    IndexSnapshot merged;
    bool ok = false;
    double backoff = _options.retry_backoff_sec;
    std::string error;
    for (std::size_t attempt = 0;
         attempt < _options.merge_retries && !ok; ++attempt) {
        if (attempt != 0) {
            std::unique_lock lock(_mutex);
            // Backoff that a stop() can cut short.
            _wake_merger.wait_for(
                lock, std::chrono::duration<double>(backoff),
                [this] { return _stop; });
            if (_stop)
                break;
            backoff *= 2.0;
        }
        if (mergeAttempt(input, merged)) {
            ok = true;
            break;
        }
        error = "merge attempt failed";
        std::scoped_lock lock(_mutex);
        ++_stats.merge_failures;
    }

    std::uint64_t gen = 0;
    if (ok && _store != nullptr) {
        // Persist before publishing: a crash after this point
        // recovers to exactly the generation queries are about to
        // see. save() failures (injected crashes, full disk) demote
        // the whole compaction to a failed attempt — the in-memory
        // state is untouched and the deltas stay pending.
        gen = _store->save(merged, input.docs);
        if (gen == 0) {
            ok = false;
            error = "generation save failed";
            std::scoped_lock lock(_mutex);
            ++_stats.merge_failures;
        }
    }

    std::scoped_lock lock(_mutex);
    _merging = false;
    if (!ok) {
        // Degraded mode: serve on, report staleness. Deltas remain
        // pending, so a later compaction (next wake) retries with
        // everything accumulated since.
        _stats.degraded = true;
        _stats.last_error =
            error.empty() ? "merge stopped" : std::move(error);
        return false;
    }

    _base = std::move(merged);
    _base_docs = static_cast<DocId>(input.docs.docCount());
    _deltas.erase(_deltas.begin(),
                  _deltas.begin()
                      + static_cast<std::ptrdiff_t>(input.take));
    if (gen != 0)
        _stats.generation = gen;
    ++_stats.merges;
    _stats.degraded = false;
    _stats.last_error.clear();
    _stats.pending_deltas = _deltas.size();
    publishLocked();
    return true;
}

void
LiveIndex::scanLoop()
{
    std::unique_lock lock(_mutex);
    while (!_stop) {
        lock.unlock();
        runCycle();
        lock.lock();
        if (_stop)
            break;
        _wake_scanner.wait_for(
            lock,
            std::chrono::duration<double>(_options.scan_interval_sec),
            [this] { return _stop; });
    }
}

void
LiveIndex::mergeLoop()
{
    std::unique_lock lock(_mutex);
    while (!_stop) {
        _wake_merger.wait(lock, [this] {
            return _stop || shouldCompactLocked();
        });
        if (_stop)
            break;
        lock.unlock();
        compactNow();
        lock.lock();
    }
}

LiveStats
LiveIndex::stats() const
{
    std::scoped_lock lock(_mutex);
    LiveStats digest = _stats;
    digest.pending_deltas = _deltas.size();
    digest.tombstones = _tombstones.size();
    digest.doc_count = _docs.docCount();
    return digest;
}

} // namespace dsearch
