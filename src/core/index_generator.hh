/**
 * @file
 * The index generator — the system the paper builds and parallelizes.
 *
 * Pipeline (§2):
 *   Stage 1  filename generation   traverse the directory hierarchy
 *   Stage 2  term extraction       read files, extract unique terms
 *   Stage 3  index update          insert term blocks into the index
 *
 * build() runs the configured organization once:
 *
 *  - Sequential: the baseline program — one thread, per file:
 *    read -> extract -> insert, no overlap.
 *  - SharedLocked (Implementation 1): x extractors feed one shared,
 *    locked index, either directly (y = 0) or through a bounded block
 *    queue drained by y updater threads.
 *  - ReplicatedJoin (Implementation 2): as above but each updater (or
 *    extractor when y = 0) owns a private index; after a barrier the
 *    replicas are joined by z threads ("Join Forces"). The join is
 *    fused with the seal: build(BuildOutput::Snapshot) has the z
 *    threads each k-way merge a share of the terms across all
 *    replicas and pack it straight into compressed blocks
 *    (PostingSegment::build), so no concatenated index is built and
 *    no merged list is re-sorted. build(BuildOutput::Indices), which
 *    hands out mutable indices, still joins with the joinParallel
 *    reduction.
 *  - ReplicatedNoJoin (Implementation 3): same, but the replicas are
 *    kept and queried in parallel (see search/multi_searcher.hh).
 *
 * Stage 3 is driven entirely through the IndexBackend interface
 * (index/index_backend.hh): the generator owns the thread topology —
 * who extracts, who drains the queue, which lane each writer uses —
 * while the backend owns the organization of the index itself. New
 * organizations slot in via makeBackend() without touching the loop.
 *
 * measureSequentialStages() reproduces the paper's Table 1
 * decomposition, including the "empty scanner" read-only pass.
 *
 * Note: prefer the dsearch::Engine facade (core/engine.hh) for new
 * code; it wraps this class and seals the result into the
 * IndexSnapshot read API.
 */

#ifndef DSEARCH_CORE_INDEX_GENERATOR_HH
#define DSEARCH_CORE_INDEX_GENERATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/stage_times.hh"
#include "fs/file_system.hh"
#include "index/doc_table.hh"
#include "index/index_snapshot.hh"
#include "index/inverted_index.hh"
#include "text/term_extractor.hh"
#include "text/tokenizer.hh"

namespace dsearch {

class IndexBackend;

/** How IndexGenerator::build() finalizes the index it built. */
enum class BuildOutput
{
    /** Release mutable indices (joined by joinParallel, if at all). */
    Indices,
    /**
     * Seal through the backend (IndexBackend::sealed) into an
     * immutable snapshot — Engine::build()'s path.
     */
    Snapshot,
};

/** Everything a build run produces. */
struct BuildResult
{
    /** The configuration that produced this result. */
    Config config;

    /** Document table assigned during Stage 1. */
    DocTable docs;

    /**
     * BuildOutput::Indices: the built index (one entry), or the
     * unjoined replicas (Implementation 3: replicaCount() entries,
     * some possibly empty). Empty for BuildOutput::Snapshot.
     */
    std::vector<InvertedIndex> indices;

    /**
     * BuildOutput::Snapshot: the sealed index (unified for joined
     * organizations, one segment per replica for Implementation 3).
     * Empty for BuildOutput::Indices until sealIndices() fills it.
     */
    IndexSnapshot snapshot;

    /** Stage timing breakdown. */
    StageTimes times;

    /** Aggregated extractor counters. */
    ExtractorStats extraction;

    /** @return The single index of non-replicated results. */
    InvertedIndex &primary();
    const InvertedIndex &primary() const;

    /**
     * Move the built indices into an immutable IndexSnapshot (one
     * segment per index; postings canonicalized), store it in
     * `snapshot` and return a copy (segments are shared, not copied).
     * `indices` is left empty; everything else in the result stays
     * valid. Use it to query a BuildOutput::Indices build through the
     * snapshot API after inspecting the raw indices.
     */
    IndexSnapshot sealIndices();
};

/** Configurable index generator; see the file comment. */
class IndexGenerator
{
  public:
    /**
     * @param fs   Filesystem holding the corpus (must outlive the
     *             generator; read concurrently during build).
     * @param root Directory to index.
     * @param cfg  Organization and thread counts; validated here
     *             (fatal on inconsistent tuples).
     * @param opts Tokenizer settings shared by all extractors.
     */
    IndexGenerator(const FileSystem &fs, std::string root, Config cfg,
                   TokenizerOptions opts = {});

    /**
     * Run the build once and finalize it as @p output asks:
     *
     *  - Indices: release the raw indices into `indices` (the join,
     *    if any, is the joinParallel reduction; nothing is sealed,
     *    times.seal stays 0).
     *  - Snapshot: seal through the backend (IndexBackend::sealed)
     *    into `snapshot`; Implementation 2 merges and packs its
     *    replicas straight into one segment, with no concatenated
     *    index in between. times.seal and times.total include the
     *    seal. This is the build Engine::build() runs, and the one
     *    to time when comparing configurations.
     *
     * Reentrant; each call is independent.
     */
    BuildResult build(BuildOutput output = BuildOutput::Indices);

    /**
     * The paper's Table 1 measurement: time (a) filename generation,
     * (b) an empty-scanner read of every file, (c) read + term
     * extraction, and (d) index update alone, all single-threaded.
     */
    static StageTimes measureSequentialStages(const FileSystem &fs,
                                              const std::string &root,
                                              TokenizerOptions opts
                                              = {});

  private:
    /**
     * Stages 1-3 into the backend, filling @p result's config, docs,
     * extraction counters and stage times up to Stage 3.
     */
    std::unique_ptr<IndexBackend> runStages(BuildResult &result);
    std::unique_ptr<IndexBackend> runSequential(BuildResult &result);
    std::unique_ptr<IndexBackend> runParallel(BuildResult &result);

    const FileSystem &_fs;
    std::string _root;
    Config _cfg;
    TokenizerOptions _opts;
};

} // namespace dsearch

#endif // DSEARCH_CORE_INDEX_GENERATOR_HH
