/**
 * @file
 * IndexBackend: the pluggable write side of Stage 3.
 *
 * The generator used to hard-code the paper's three organizations as
 * special cases over concrete types; the backend interface reduces
 * Stage 3 to one loop:
 *
 *     backend->addBlock(std::move(block), lane);   // per block
 *     ...all writers joined...
 *     IndexSnapshot snapshot = backend->sealed();  // finalize
 *
 * Lanes model the paper's replica ownership: a replicated backend
 * gives each writer thread (updater u, or extractor w when y = 0) a
 * private index at lane index u/w, so no insert synchronizes; shared
 * backends ignore the lane and synchronize internally. Callers must
 * use one lane per concurrent writer — a lane itself is not
 * thread-safe.
 *
 * Sealing runs the organization's finalization (lock release, shard
 * join, or the paper's "Join Forces" step) and canonicalizes the
 * result into an immutable IndexSnapshot. Implementations:
 *
 *  - makeBackend(Sequential):        one unlocked index, one lane.
 *  - makeBackend(SharedLocked):      one locked index (lock_shards = 1)
 *                                    or hash-sharded locks (> 1);
 *                                    seals to one segment.
 *  - makeBackend(ReplicatedJoin):    one private index per lane; the
 *                                    join is fused with the seal: z
 *                                    threads merge-and-pack the lanes
 *                                    straight into one segment
 *                                    (PostingSegment::build). release()
 *                                    still concatenates them with
 *                                    joinParallel for callers that
 *                                    want a mutable index.
 *  - makeBackend(ReplicatedNoJoin):  private indices kept; seals to
 *                                    one segment per lane.
 */

#ifndef DSEARCH_INDEX_INDEX_BACKEND_HH
#define DSEARCH_INDEX_INDEX_BACKEND_HH

#include <memory>

#include "core/config.hh"
#include "index/index_snapshot.hh"
#include "index/inverted_index.hh"
#include "text/term_extractor.hh"

namespace dsearch {

/** Pluggable Stage 3 write interface; see the file comment. */
class IndexBackend
{
  public:
    virtual ~IndexBackend() = default;

    /** @return Organization name for logs and test output. */
    virtual const char *name() const = 0;

    /**
     * @return Number of writer lanes this backend was built for.
     *         Shared backends report 1 (and accept any lane value).
     */
    virtual std::size_t laneCount() const = 0;

    /**
     * Insert one file's term block. The backend owns the rvalue: it
     * may read from it or steal its buffers, and the caller must
     * treat the block as moved-from afterwards (clear() before
     * reuse, which the extractor loop does anyway). The backends in
     * this file only read, so in practice the caller's arena
     * capacity survives for reuse — a backend that retains buffers
     * is correct but forfeits that optimization for its callers.
     * En-bloc versus immediate duplicate handling is a property of
     * the backend's Config.
     *
     * Thread safety: concurrent calls are allowed with distinct
     * lanes (replicated) or any lanes (shared, internally locked).
     */
    virtual void addBlock(TermBlock &&block, unsigned lane = 0) = 0;

    /**
     * Finalize after every writer joined and move the raw indices
     * out: exactly one for joined organizations, laneCount() (some
     * possibly empty) for unjoined replicas. The backend is empty
     * afterwards.
     *
     * @param join_seconds When non-null, receives the time spent in
     *        the organization's join step (0 when there is none).
     */
    virtual std::vector<InvertedIndex>
    release(double *join_seconds = nullptr) = 0;

    /**
     * Finalize into an immutable snapshot. This is the normal
     * endpoint (Engine::build uses it); release() exists for callers
     * that still need mutable indices (maintenance, ablations). The
     * default is release() + IndexSnapshot::seal; ReplicatedJoin
     * overrides it with the fused merge-and-pack seal. The backend is
     * empty afterwards.
     *
     * @param join_seconds When non-null, receives the join (or, when
     *        fused, the parallel merge-and-pack) time.
     * @param seal_seconds When non-null, receives the rest of the
     *        seal: encoding, or assembling the merged shares.
     */
    virtual IndexSnapshot sealed(double *join_seconds = nullptr,
                                 double *seal_seconds = nullptr);
};

/**
 * Build the backend for @p cfg's organization (cfg must already be
 * validated). The Config is copied; the backend is independent of the
 * generator that made it.
 */
std::unique_ptr<IndexBackend> makeBackend(const Config &cfg);

} // namespace dsearch

#endif // DSEARCH_INDEX_INDEX_BACKEND_HH
