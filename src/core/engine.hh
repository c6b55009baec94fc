/**
 * @file
 * dsearch::Engine — the front door of the library.
 *
 * One fluent builder covers the whole pipeline: open a filesystem,
 * pick the paper's organization and (x, y, z) thread tuple, build,
 * and receive an immutable IndexSnapshot ready for the searchers:
 *
 *     Engine::Result built = Engine::open(fs, "/")
 *                                .organization(
 *                                    Implementation::ReplicatedJoin)
 *                                .threads(3, 2, 1)
 *                                .build();
 *     Searcher search(built.snapshot, built.docs.docCount());
 *
 * The facade drives IndexGenerator (which in turn drives Stage 3
 * through the pluggable IndexBackend) and seals the outcome through
 * the backend (IndexGenerator::build(BuildOutput::Snapshot);
 * Implementation 2 merges and packs its replicas on z threads
 * straight into the segment), so
 * callers never touch a mutable InvertedIndex: joined organizations
 * yield a unified snapshot for Searcher/RankedSearcher, while
 * Implementation 3 yields one segment per replica for MultiSearcher.
 *
 * Every ablation knob of Config is reachable through a setter (or
 * wholesale via config()); unset knobs keep Config's defaults, and
 * organization()/threads() provide the ergonomics the factories used
 * to: ReplicatedJoin defaults to one joiner when z is unset.
 */

#ifndef DSEARCH_CORE_ENGINE_HH
#define DSEARCH_CORE_ENGINE_HH

#include <string>

#include "core/config.hh"
#include "core/index_generator.hh"
#include "core/stage_times.hh"
#include "fs/file_system.hh"
#include "index/doc_table.hh"
#include "index/index_snapshot.hh"
#include "text/term_extractor.hh"
#include "text/tokenizer.hh"

namespace dsearch {

/** Fluent build facade; see the file comment. */
class Engine
{
  public:
    /** Everything a build produces, with the index already sealed. */
    struct Result
    {
        /** The configuration that produced this result. */
        Config config;

        /** Document table assigned during Stage 1. */
        DocTable docs;

        /**
         * Sealed index: unified for joined organizations, one
         * segment per replica for Implementation 3.
         */
        IndexSnapshot snapshot;

        /** Stage timing breakdown; total includes the seal. */
        StageTimes times;

        /** Aggregated extractor counters. */
        ExtractorStats extraction;
    };

    /**
     * Start a build over @p fs rooted at @p root. The filesystem must
     * outlive build() calls; everything else is copied into the
     * engine.
     */
    static Engine open(const FileSystem &fs, std::string root = "/");

    /** Pick the generator organization (default: Sequential). */
    Engine &organization(Implementation impl);

    /**
     * The paper's (x, y, z) thread tuple: extractors, updaters,
     * joiners. Omitted values keep 0 (no buffer stage / no joiners);
     * ReplicatedJoin builds with z = 0 get one joiner.
     */
    Engine &threads(unsigned x, unsigned y = 0, unsigned z = 0);

    /** Tokenizer settings shared by all extractors. */
    Engine &tokenizer(TokenizerOptions opts);

    /** Work distribution strategy for Stage 2 (§2.1). */
    Engine &distribution(DistributionKind kind);

    /** En-bloc (default) vs immediate duplicate handling (§2.2). */
    Engine &enBloc(bool en_bloc);

    /** Lock shard count for Implementation 1 (default 1). */
    Engine &lockShards(std::size_t shards);

    /** Run Stage 1 concurrently with Stage 2 (ablation E6). */
    Engine &pipelinedStage1(bool pipelined);

    /** Capacity of the extractor -> updater block queue. */
    Engine &queueCapacity(std::size_t capacity);

    /** Adopt a complete Config (overwrites every knob set so far). */
    Engine &config(const Config &cfg);

    /** @return The configuration build() would run. */
    const Config &currentConfig() const { return _cfg; }

    // Wiring accessors for layers that keep working against the same
    // corpus after the one-shot build — the live-index pipeline
    // re-scans fs()/root() and extracts deltas with
    // tokenizerOptions(), so its increments tokenize exactly like the
    // base build did.

    /** @return The filesystem this engine builds over. */
    const FileSystem &fs() const { return *_fs; }

    /** @return The traversal root build() starts from. */
    const std::string &root() const { return _root; }

    /** @return The tokenizer settings extractors run with. */
    const TokenizerOptions &tokenizerOptions() const { return _opts; }

    /**
     * Run the build once and seal the result. Reentrant; each call
     * is an independent build.
     */
    Result build() const;

  private:
    Engine(const FileSystem &fs, std::string root);

    const FileSystem *_fs;
    std::string _root;
    Config _cfg;
    TokenizerOptions _opts;
};

} // namespace dsearch

#endif // DSEARCH_CORE_ENGINE_HH
