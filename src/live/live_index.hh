/**
 * @file
 * LiveIndex: the crash-safe incremental indexing pipeline.
 *
 * Everything below this layer builds once and seals once; LiveIndex
 * turns the sealed index into a living one. Two background threads
 * run an LSM-shaped state machine over a QueryServer:
 *
 *   scan ──> delta ──> publish ──> (merge ──> persist ──> publish)
 *                                   \── prune (SnapshotStore)
 *
 *  - The *scanner* thread re-walks the corpus (live/scan_diff.hh,
 *    ugrep-indexer style), turns the diff into a small delta segment
 *    through the same extractor + IndexBackend path the base build
 *    used, tombstones deleted/superseded documents, and publishes
 *    the new (base + deltas + tombstones) generation to the server —
 *    an atomic hot-swap, zero query downtime.
 *  - The *merger* thread wakes when enough deltas accumulate,
 *    compacts base + deltas into a fresh unified base (decoding the
 *    sealed segments, dropping tombstoned postings, and merging
 *    them term by term into one segment with the merge-and-pack seal
 *    the paper build uses), persists the result crash-safely through
 *    SnapshotStore, and publishes. Merging runs outside the state
 *    lock: delta building and query serving continue while it works.
 *
 * DocIds are dense and never reused: the base owns [0, base_docs),
 * each delta the contiguous range assigned while it was built. A
 * modified file is indexed as a *new* document and its old DocId
 * tombstoned; tombstones are a permanent universe mask (a dead DocId
 * stays in the DocTable, and without the mask a NOT-dominated query
 * would resurrect it as an "empty" document after compaction strips
 * its postings).
 *
 * Robustness contract:
 *
 *  - Crash at any stage recovers: only compacted generations are
 *    persisted (via SnapshotStore's temp + fsync + rename chain), so
 *    a process killed mid-delta-build, mid-merge or mid-publish
 *    restarts from the newest valid generation; bootstrap()
 *    reconstructs scan state from the recovered DocTable and the
 *    first cycle re-indexes everything that changed while the
 *    process was down (deltas are cheap to rebuild — that is why
 *    they are not persisted).
 *  - A failing merge retries with doubling backoff
 *    (LiveIndexOptions::merge_retries); on exhaustion the pipeline
 *    *degrades instead of dying*: the current generation keeps
 *    serving, deltas keep accumulating and publishing, and stats()
 *    reports degraded = true with the failure message until a later
 *    merge succeeds.
 *  - Every stage has a deterministic fault point (util/fault.hh):
 *    "live.scan" aborts a walk, "live.delta_build" a delta,
 *    "live.merge" a compaction attempt, "live.publish" skips one
 *    server publish (re-published next cycle). Tests drive each.
 *
 * Cycle cost model. A write becomes visible after one runCycle(),
 * whose layers LiveStats times (scan_seconds, delta_seconds,
 * publish_seconds). With N files in the corpus, C changed since the
 * last cycle and D documents in the table:
 *
 *  - scan, O(N): one list() per directory, and nothing per file
 *    beyond it (listings carry size and mtime), then a linear merge
 *    against the previous scan. This is the floor of every cycle,
 *    idle or not, and the largest layer on a small write.
 *  - delta, O(C): extraction of the changed files into an index
 *    presized from the previous delta's term count, one-thread seal,
 *    and the commit. It stays on one thread: a 4-lane delta build
 *    measured slower on a 40-file delta (seal 2.5 ms against 1.0 ms,
 *    extraction 1.2-1.5 ms against 1.5 ms).
 *  - publish, O(D / DocTable::chunk_docs + deltas + tombstones):
 *    the ServingUpdate shares the base and delta snapshots by pointer
 *    and the DocTable's full chunks; only its partial tail and its
 *    flat size array are copied. Dropping the old generation is as
 *    cheap. LiveSearcher still builds each segment's DocId universe
 *    as a vector, O(D) 4-byte writes.
 *
 * Compaction (compactNow) is O(postings) and runs off the cycle, on
 * the merger thread.
 */

#ifndef DSEARCH_LIVE_LIVE_INDEX_HH
#define DSEARCH_LIVE_LIVE_INDEX_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hh"
#include "index/doc_table.hh"
#include "index/index_snapshot.hh"
#include "index/snapshot_store.hh"
#include "live/scan_diff.hh"
#include "search/live_searcher.hh"
#include "search/query_server.hh"
#include "text/tokenizer.hh"

namespace dsearch {

/** Tuning knobs for a LiveIndex. */
struct LiveIndexOptions
{
    /** Pending deltas that wake the merger (>= 1). */
    std::size_t merge_threshold = 4;

    /** Compaction attempts per merge before degrading (>= 1). */
    std::size_t merge_retries = 3;

    /** Backoff before the first retry, seconds; doubles per retry. */
    double retry_backoff_sec = 0.005;

    /** Seconds between background scan cycles. */
    double scan_interval_sec = 0.05;

    /** Merge-and-pack threads for compaction (0 is taken as 1). */
    std::size_t join_threads = 1;
};

/** Health and progress of the live pipeline; see stats(). */
struct LiveStats
{
    std::uint64_t scans = 0;         ///< Completed scan cycles.
    std::uint64_t failed_scans = 0;  ///< Walks aborted ("live.scan").
    std::uint64_t deltas_built = 0;  ///< Delta segments committed.
    std::uint64_t delta_docs = 0;    ///< Documents indexed via deltas.
    std::uint64_t failed_deltas = 0; ///< Builds aborted ("live.delta_build").
    std::uint64_t merges = 0;        ///< Successful compactions.
    std::uint64_t merge_failures = 0; ///< Failed compaction attempts.
    std::uint64_t publishes = 0;     ///< Server hot-swaps performed.
    std::uint64_t skipped_publishes = 0; ///< "live.publish" skips.
    std::uint64_t generation = 0;    ///< Newest persisted generation.
    std::uint64_t pending_deltas = 0; ///< Deltas awaiting compaction.
    std::uint64_t tombstones = 0;    ///< Dead DocIds masked.
    std::uint64_t doc_count = 0;     ///< DocTable size (incl. dead).

    /**
     * Cumulative seconds runCycle() spent in each layer of the cycle
     * cost model (see the file comment); they only grow. scan: the
     * walk and the diff, aborted walks included. delta: extracting
     * and sealing changed files and committing the delta, aborted
     * builds included. publish: building the ServingUpdate and the
     * server's hot-swap (adopt() and compactNow() publishes are not
     * counted). Scan lag is what these answer: a stale index whose
     * scan share dominates has an O(corpus) walk, not a write
     * backlog.
     */
    double scan_seconds = 0.0;
    double delta_seconds = 0.0;
    double publish_seconds = 0.0;

    /**
     * Staleness/health: true after a merge exhausted its retries.
     * The served index stays fresh (deltas still publish) but
     * compaction — and therefore persistence — is behind; last_error
     * says why. Cleared by the next successful merge.
     */
    bool degraded = false;
    std::string last_error;
};

/** The live incremental pipeline; see the file comment. */
class LiveIndex
{
  public:
    /**
     * @param fs      Corpus to watch (must outlive the LiveIndex).
     * @param root    Directory the scans walk.
     * @param server  Serving endpoint to hot-swap (outlives this).
     * @param store   Crash-safe persistence for compacted
     *                generations; nullptr = in-memory only (no crash
     *                safety, no prune). Outlives this when given.
     * @param options Pipeline tuning.
     * @param tok     Tokenizer settings — pass the base build's
     *                (Engine::tokenizerOptions()) so deltas tokenize
     *                identically.
     */
    LiveIndex(const FileSystem &fs, std::string root,
              QueryServer &server, SnapshotStore *store,
              LiveIndexOptions options = {}, TokenizerOptions tok = {});

    /** Stops the background threads if still running. */
    ~LiveIndex();

    LiveIndex(const LiveIndex &) = delete;
    LiveIndex &operator=(const LiveIndex &) = delete;

    /**
     * Adopt a finished base build (the Engine hand-off): serve it,
     * persist it as the first generation when a store is attached,
     * and baseline the scan state from the live corpus.
     * Call exactly one of adopt()/bootstrap(), before start().
     */
    void adopt(Engine::Result &&built);

    /**
     * Recover-or-start-empty: load the newest valid generation from
     * the store (empty base when none or no store), reconstruct the
     * alive/tombstone maps from the recovered DocTable, run one
     * synchronous reconciliation cycle (changes that happened while
     * the process was down become the first delta), and publish.
     *
     * @return The generation recovered, 0 when starting empty.
     */
    std::uint64_t bootstrap();

    /** Start the background scanner + merger threads. Idempotent. */
    void start();

    /** Stop and join the background threads. Idempotent. */
    void stop();

    /**
     * Run one scan -> delta -> publish cycle synchronously (the
     * scanner thread's body; exposed so tests and benches can drive
     * the pipeline deterministically without timing dependence).
     *
     * @return True when the cycle changed the served state.
     */
    bool runCycle();

    /**
     * Run one compaction synchronously (the merger thread's body,
     * including retry/backoff). No-op when nothing is pending.
     *
     * @return True when a merge succeeded.
     */
    bool compactNow();

    /** @return Pipeline health and progress counters. */
    LiveStats stats() const;

  private:
    /** A committed, not-yet-compacted increment. */
    struct PendingDelta
    {
        IndexSnapshot index; ///< Sealed delta postings.
        DocId first_doc = 0;
        DocId end_doc = 0;
    };

    /** Everything compaction needs, captured under _mutex. */
    struct MergeInput
    {
        IndexSnapshot base;
        std::vector<PendingDelta> deltas;
        DocSet tombstones;
        DocTable docs;    ///< Consistent with base + deltas.
        std::size_t take = 0; ///< Deltas consumed on success.
    };

    /** Mark @p doc dead (sorted insert; no-op when already dead). */
    void tombstoneLocked(DocId doc);

    /** Tombstone @p path's alive doc, if any, and forget it. */
    void killPathLocked(const std::string &path);

    /**
     * Extract @p paths into a sealed delta owning DocIds
     * [docCount, docCount + |paths|). Pure until commit: state is
     * only mutated after extraction succeeds, so an aborted build
     * ("live.delta_build") leaves nothing behind. Each file's size
     * is the one @p scan recorded (every path must be in it).
     *
     * @return False when aborted.
     */
    bool buildDelta(const std::vector<std::string> &paths,
                    const ScanSnapshot &scan);

    /** Push the current state to the server ("live.publish" point). */
    void publishLocked();

    /** Build a ServingUpdate from the current state (under _mutex). */
    ServingUpdate makeUpdateLocked();

    /** One compaction attempt over @p input ("live.merge" point). */
    bool mergeAttempt(const MergeInput &input, IndexSnapshot &out);

    /** Scanner-thread body. */
    void scanLoop();

    /** Merger-thread body. */
    void mergeLoop();

    /** @return True when enough deltas are pending (under _mutex). */
    bool
    shouldCompactLocked() const
    {
        return _deltas.size() >= _options.merge_threshold;
    }

    const FileSystem &_fs;
    std::string _root;
    QueryServer &_server;
    SnapshotStore *_store;
    LiveIndexOptions _options;
    TokenizerOptions _tok;

    // Served state: base + deltas + tombstones + table. Guarded by
    // _mutex; the scanner commits deltas, the merger swaps the base.
    mutable std::mutex _mutex;
    IndexSnapshot _base;
    DocId _base_docs = 0;
    std::vector<PendingDelta> _deltas;
    DocSet _tombstones;
    DocTable _docs;
    std::map<std::string, DocId> _alive; ///< path -> serving DocId.
    ScanSnapshot _scan;
    bool _publish_pending = false; ///< A publish was skipped/failed.
    std::size_t _delta_terms = 0;  ///< Last delta's terms (presize).
    bool _merging = false;         ///< A compaction is in flight.

    // Background threads.
    std::thread _scanner;
    std::thread _merger;
    std::condition_variable _wake_scanner;
    std::condition_variable _wake_merger;
    bool _running = false;
    bool _stop = false;

    // Stats (guarded by _mutex).
    LiveStats _stats;
};

} // namespace dsearch

#endif // DSEARCH_LIVE_LIVE_INDEX_HH
