/**
 * @file
 * Per-stage timing record — the row format of the paper's Table 1.
 */

#ifndef DSEARCH_CORE_STAGE_TIMES_HH
#define DSEARCH_CORE_STAGE_TIMES_HH

namespace dsearch {

/**
 * Wall-clock seconds attributed to each pipeline stage.
 *
 * For sequential runs the extract/update fields are accumulated
 * per-file phase times; for parallel runs they are the wall time of
 * the corresponding phase (extraction until the last extractor
 * finished; update for the extra drain time after that).
 *
 * `join` and `seal` split the work after Stage 3. For Implementation
 * 2 sealed through Engine::build (BuildOutput::Snapshot), the join
 * is fused with the seal: `join` is the parallel merge portion
 * (the z threads' k-way merge and block packing) and `seal` the
 * assembly of their shares into the segment. Other organizations
 * report their own join step, if any, in `join` and the encode in
 * `seal`. BuildOutput::Indices, which returns mutable indices and
 * does not seal, leaves `seal` at 0 and times the joinParallel
 * reduction in `join`. `total` covers everything, seal included, so
 * the parts never sum to more than it.
 *
 * `read_files` is only filled by the dedicated Table 1 measurement
 * (the "empty scanner" pass); ordinary builds leave it 0 because
 * reading and extraction are fused there.
 */
struct StageTimes
{
    double filename_generation = 0.0; ///< Stage 1.
    double read_files = 0.0;          ///< Empty-scanner read pass.
    double read_and_extract = 0.0;    ///< Stage 2 (includes reads).
    double index_update = 0.0;        ///< Stage 3 insert time.
    double join = 0.0;                ///< Join / parallel merge.
    double seal = 0.0;                ///< Seal after the join.
    double total = 0.0;               ///< End-to-end, seal included.
};

} // namespace dsearch

#endif // DSEARCH_CORE_STAGE_TIMES_HH
