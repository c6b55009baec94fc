/**
 * @file
 * Umbrella header for the dsearch library.
 *
 * dsearch reproduces Meder & Tichy, "Parallelizing an Index Generator
 * for Desktop Search" (Karlsruhe Reports in Informatics 2010-9): a
 * three-stage index-generation pipeline (filename generation, term
 * extraction, index update) with the paper's three parallel
 * organizations, plus the search, simulation and auto-tuning
 * subsystems built around it.
 *
 * Typical use — the Engine facade builds through a pluggable
 * IndexBackend and seals the result into an immutable IndexSnapshot,
 * which is what every searcher consumes:
 *
 *     #include "dsearch.hh"
 *     using namespace dsearch;
 *
 *     DiskFs fs("/home/me/documents");
 *     Engine::Result built =
 *         Engine::open(fs, "/")
 *             .organization(Implementation::ReplicatedJoin)
 *             .threads(3, 2, 1)
 *             .build();
 *     Searcher search(built.snapshot, built.docs.docCount());
 *     DocSet hits = search.run(Query::parse("report AND 2010"));
 *
 * An Implementation 3 build keeps its replicas as snapshot segments;
 * query those with MultiSearcher(built.snapshot, ...). Persist and
 * reload with saveSnapshotFile()/loadSnapshotFile(). Per-term reads
 * everywhere go through PostingCursor (next()/seekGE()/count()), so
 * the posting representation can change behind the snapshot without
 * touching query code.
 *
 * To *serve* query traffic rather than answer one-shot calls, hand
 * the build result to a QueryServer — the serving entry point next
 * to Engine. It keeps the snapshot and searchers resident, admits
 * queries from any number of client threads through a bounded queue,
 * executes them on a persistent thread pool, and reports throughput
 * and latency percentiles:
 *
 *     QueryServer server(std::move(built));
 *     auto reply = server.submit(Query::parse("report AND 2010"));
 *     DocSet hits = reply.get().hits;   // or submitRanked() for topK
 *     ServerStats load = server.stats();  // qps, p50/p95/p99
 *
 * The one-shot build used to be the end of the story — build once,
 * seal once, serve forever. The live/ layer removes that limit: a
 * LiveIndex keeps a built index current against a changing corpus
 * while the QueryServer keeps serving, through the state machine
 *
 *     scan -> delta -> merge -> publish -> prune
 *
 * A scanner thread re-walks the corpus (live/scan_diff.hh), indexes
 * created/modified files into small sealed delta segments through
 * the same extractor + backend path the base build used, tombstones
 * deleted or superseded documents, and *publishes* each new
 * generation to the QueryServer — an atomic snapshot hot-swap:
 * in-flight queries finish on the generation they started on, new
 * admissions see the new one, nothing pauses and nothing tears. A
 * merger thread compacts base + deltas LSM-style (the same
 * merge-and-pack seal the build uses) once enough accumulate,
 * persists each compacted generation crash-safely through
 * SnapshotStore (which prunes old generations), and publishes the
 * unified result:
 *
 *     QueryServer server(std::move(built2));   // a second build
 *     SnapshotStore store("/var/lib/dsearch");
 *     LiveIndex live(fs, "/", server, &store);
 *     live.adopt(std::move(built));  // or live.bootstrap() to recover
 *     live.start();                  // background scanner + merger
 *     ... server.submit(...) serves while files change ...
 *     LiveStats health = live.stats();  // staleness + degraded flag
 *
 * When one server is not enough, the shard/ layer scales the serving
 * tier *out* instead of up: a ShardPlanner document-partitions the
 * corpus into N disjoint shards (round-robin or hash-by-path over
 * one global traversal, so every shard knows its local-to-global
 * DocId map), each shard is built by its own Engine run and served
 * by its own QueryServer, and a Broker in front scatters every query
 * to all shards and merges the partial answers — boolean DocSets by
 * multiway merge of the disjoint remapped runs, ranked top-K by
 * k-way heap merge. Ranked merging is *bit-identical* to a single
 * unsharded RankedSearcher because the broker aggregates per-shard
 * document frequencies into global weights and sends the same weight
 * vector to every shard; per-shard truncation is lossless under the
 * strict (score desc, doc asc) order. A failed, flooded or injected-
 * faulty shard costs only its own documents: the reply comes back
 * ok with partial = true rather than hanging the client, and only
 * zero answering shards make an error:
 *
 *     ShardPlanOptions plan;
 *     plan.shards = 4;
 *     Broker broker(ShardPlanner::build(fs, "/", plan));
 *     auto reply = broker.submitRanked(Query::parse("report"), 10);
 *     BrokerStats load = broker.stats();  // rollup + per-shard view
 *
 * The rollup merges per-shard latency digests through the mergeable
 * log-bucket LatencyHistogram (util/stats.hh) instead of
 * concatenating raw sample logs.
 *
 * Query execution architecture — every tier, one pipeline:
 *
 *     parse                plan                      execute
 *     Query::parse() ->    QueryPlan::compile() ->   CursorOp tree
 *     (AST, flattened      (canonical, immutable,    (And/Or/Diff/
 *      + deduplicated)      fingerprinted)            Score over any
 *                                                     segment set)
 *
 * Query::parse() canonicalizes the AST as it builds it: nested
 * And/Or chains flatten and structurally duplicate operands drop
 * ("a AND a AND (b AND c)" parses as one 3-way AND). The planner
 * (search/plan.hh) then compiles the AST into the canonical
 * execution form: NOT is pushed down via De Morgan until negation
 * survives only as set difference — Diff(positive, negative) or
 * Diff(*, x) against the universe — conjunctions hoist their
 * negatives into a single anti-join, operands sort into a canonical
 * source-independent order, and AND operands re-order cheapest-df
 * first when the compiling tier supplies term statistics. Every plan
 * carries a stable 64-bit structural fingerprint, computed before
 * df-ordering, so textual variants of the same query ("b AND a",
 * "a AND (b AND a)") share one identity — the key an upcoming
 * result cache will live on.
 *
 * The plan's operator tree (search/operators.hh) is the one
 * execution engine: AndOp feeds plain terms to the bulk SIMD
 * intersection kernel, OrOp k-way heap-merges posting cursors with
 * block-view bulk copies, DiffOp anti-joins (NOT and live-tier
 * tombstones alike), ScoreOp accumulates ranked contributions
 * blockwise. Every serving tier evaluates the same tree over its own
 * segments: Searcher/RankedSearcher over the sealed snapshot,
 * LiveSearcher over base + delta segments (tombstones anti-joined
 * once at the end), MultiSearcher across replicas, and
 * QueryServer/Broker compile a query exactly once at admission and
 * ship the immutable plan — never re-parsed text — through queues,
 * worker pools and shard fan-out (plans are thread-safe to share).
 * The legacy recursive evaluator survives only as the equivalence
 * oracle (tests/test_plan_equivalence) and the query_exec bench
 * baseline in BENCH_micro.json.
 *
 * Performance: the read side is built to run at memory speed. Sealed
 * posting lists live in one arena per segment as bit-packed 128-doc
 * blocks (SIMD-BP128 style; index/posting_block.hh) decoded by
 * AVX2/SSE2 kernels — billions of postings per second on current
 * x86, ~7x the delta+varint codec they replaced, with a bit-exact
 * scalar fallback on other targets (or under -DDSEARCH_FORCE_SCALAR,
 * which CI runs to keep the fallback honest). Query evaluation
 * consumes whole decoded blocks: AND over plain terms runs a
 * vectorized set-intersection kernel blockwise with skip-index
 * galloping (and prefetch) between blocks, ranked scoring
 * accumulates per-block with the same kernel, and term metadata
 * (df, count()) is answered from headers without decoding anything.
 * All of it sits behind the unchanged PostingCursor API, measured
 * and regression-gated in BENCH_micro.json (posting_decode /
 * intersection sections) by scripts/check_bench.py. Builds default
 * to -march=native (DSEARCH_NATIVE_ARCH=OFF for distributable
 * binaries).
 *
 * The build side has two hot loops, both single-pass. Stage 2's
 * scanner (text/tokenizer.hh) is table-driven: one 256-entry lookup
 * per byte yields the case-folded term character or a separator, and
 * the same pass copies the term into a fixed buffer and computes its
 * FNV-1a hash, which dedup, Stage 3 and the seal all reuse. After
 * Stage 3, Implementation 2's "Join Forces" is fused with the seal
 * (PostingSegment::build): the z joiner threads each take a share of
 * the term space, k-way merge that share's lists across the replicas
 * (already sorted under round-robin; sorted only when not) and pack
 * them straight into compressed blocks, so no concatenated index is
 * built and nothing is re-sorted. The persisted snapshot is
 * byte-identical to sorting and encoding a joined index; the
 * build_tail section of BENCH_micro.json gates the speedup over that
 * join -> seal path.
 *
 * Failure handling: the library assumes disks lie and queries
 * misbehave. SnapshotStore persists snapshots crash-safely
 * (write-temp + flush + rename, generation rotation, recovery walks
 * back to the newest snapshot that validates); loadSnapshot()
 * rejects corrupt or truncated images without allocating from
 * untrusted headers; QueryServer enforces per-query deadlines,
 * sheds load under overload (OverloadPolicy) and isolates throwing
 * queries as rejected results. The live pipeline extends the same
 * discipline to incremental indexing: a process killed mid-delta,
 * mid-merge or mid-publish restarts via LiveIndex::bootstrap() into
 * the newest valid generation and re-indexes what changed while it
 * was down; a merge that keeps failing *degrades instead of dying* —
 * deltas keep publishing, queries keep answering, and stats()
 * reports degraded with the failure message until a merge lands.
 * util/fault.hh provides deterministic named failure points
 * (armFault()/ScopedFault) wired through disk reads, serialization
 * streams, the snapshot store, query dispatch and every live-pipeline
 * stage (live.scan / live.delta_build / live.merge / live.publish) —
 * and FlakyFs simulates permanently or transiently unreadable files
 * for build-side tests.
 *
 * Deprecation path: constructing IndexGenerator directly and binding
 * searchers to a concrete InvertedIndex (the pre-Engine API) still
 * works for build-side code — BuildResult::sealIndices() bridges into
 * the snapshot world — but Searcher/RankedSearcher/MultiSearcher no
 * longer accept raw indices; seal first via IndexSnapshot::seal().
 * New code should start at Engine and never touch InvertedIndex.
 *
 * Subsystem map (see DESIGN.md for the full inventory):
 *  - core/      Engine facade, the generator, (x, y, z) configuration
 *  - fs/        storage backends and the synthetic corpus
 *  - text/      tokenizer and term extraction
 *  - index/     IndexBackend write side; IndexSnapshot/PostingCursor
 *               read side; joins, persistence, maintenance
 *  - live/      incremental pipeline: re-scan change feed, delta
 *               builds, compaction, crash-safe generations
 *  - search/    the query planner (plan.hh) and cursor-operator
 *               execution layer (operators.hh); boolean, ranked,
 *               multi-segment and live (base + delta + tombstone)
 *               query engines (snapshot consumers only), and the
 *               QueryServer serving loop over them
 *  - shard/     scatter-gather serving tier: ShardPlanner document
 *               partitioning, Broker fan-out/merge over per-shard
 *               QueryServers with global-df ranked scoring
 *  - pipeline/  queues, pools, barriers, work distribution
 *  - sim/       calibrated platform simulator (paper Tables 1-4)
 *  - tune/      configuration auto-tuner
 */

#ifndef DSEARCH_DSEARCH_HH
#define DSEARCH_DSEARCH_HH

#include "core/config.hh"
#include "core/engine.hh"
#include "core/index_generator.hh"
#include "core/stage_times.hh"

#include "fs/corpus.hh"
#include "fs/disk_fs.hh"
#include "fs/file_system.hh"
#include "fs/flaky_fs.hh"
#include "fs/memory_fs.hh"
#include "fs/mutable_memory_fs.hh"
#include "fs/traversal.hh"

#include "text/term_extractor.hh"
#include "text/tokenizer.hh"

#include "index/doc_table.hh"
#include "index/index_backend.hh"
#include "index/index_join.hh"
#include "index/index_snapshot.hh"
#include "index/inverted_index.hh"
#include "index/maintainer.hh"
#include "index/posting_cursor.hh"
#include "index/serialize.hh"
#include "index/shared_index.hh"
#include "index/snapshot_store.hh"

#include "live/live_index.hh"
#include "live/scan_diff.hh"

#include "search/live_searcher.hh"
#include "search/multi_searcher.hh"
#include "search/operators.hh"
#include "search/plan.hh"
#include "search/query.hh"
#include "search/query_server.hh"
#include "search/ranked.hh"
#include "search/searcher.hh"

#include "shard/broker.hh"
#include "shard/shard_planner.hh"

#include "pipeline/barrier.hh"
#include "pipeline/blocking_queue.hh"
#include "pipeline/distribution.hh"
#include "pipeline/thread_pool.hh"

#include "sim/pipeline_sim.hh"
#include "sim/platform.hh"

#include "tune/config_space.hh"
#include "tune/tuner.hh"

#include "util/fault.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/stats.hh"
#include "util/string_util.hh"
#include "util/table.hh"
#include "util/timer.hh"

#endif // DSEARCH_DSEARCH_HH
