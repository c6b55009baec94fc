#include "index/index_backend.hh"

#include "index/index_join.hh"
#include "index/shared_index.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace dsearch {

namespace {

/**
 * Insert a block into one private (unsynchronized) index, honouring
 * the duplicate-handling mode. Immediate mode reuses the span hashes
 * the extractor computed.
 */
void
insertPrivate(InvertedIndex &target, const TermBlock &block,
              bool en_bloc)
{
    if (en_bloc) {
        target.addBlock(block);
    } else {
        for (std::size_t i = 0; i < block.spans.size(); ++i)
            target.addOccurrenceHashed(block.hashAt(i), block.term(i),
                                       block.doc);
    }
}

/** Sequential baseline: one unlocked index, one lane. */
class SequentialBackend : public IndexBackend
{
  public:
    explicit SequentialBackend(const Config &cfg)
        : _en_bloc(cfg.en_bloc)
    {
    }

    const char *name() const override { return "sequential"; }

    std::size_t laneCount() const override { return 1; }

    void
    addBlock(TermBlock &&block, unsigned) override
    {
        insertPrivate(_index, block, _en_bloc);
    }

    std::vector<InvertedIndex>
    release(double *join_seconds) override
    {
        if (join_seconds != nullptr)
            *join_seconds = 0.0;
        std::vector<InvertedIndex> out;
        out.push_back(std::move(_index));
        _index = InvertedIndex();
        return out;
    }

  private:
    InvertedIndex _index;
    bool _en_bloc;
};

/**
 * Implementation 1: one shared index behind a single lock. In
 * immediate mode the lock is taken per occurrence — the "overwhelm
 * the index with locking requests" behaviour §2.2 warns about.
 */
class SharedLockedBackend : public IndexBackend
{
  public:
    explicit SharedLockedBackend(const Config &cfg)
        : _en_bloc(cfg.en_bloc)
    {
    }

    const char *name() const override { return "shared-locked"; }

    std::size_t laneCount() const override { return 1; }

    void
    addBlock(TermBlock &&block, unsigned) override
    {
        if (_en_bloc) {
            _shared.addBlock(block);
        } else {
            for (std::size_t i = 0; i < block.spans.size(); ++i)
                _shared.addOccurrenceHashed(block.hashAt(i),
                                            block.term(i), block.doc);
        }
    }

    std::vector<InvertedIndex>
    release(double *join_seconds) override
    {
        if (join_seconds != nullptr)
            *join_seconds = 0.0;
        std::vector<InvertedIndex> out;
        out.push_back(_shared.release());
        return out;
    }

  private:
    SharedIndex _shared;
    bool _en_bloc;
};

/**
 * Implementation 1 with sharded locks (lock_shards > 1): each block
 * locks only the shards its terms hash to; sealing joins the shards
 * into one index.
 */
class ShardedLockBackend : public IndexBackend
{
  public:
    explicit ShardedLockBackend(const Config &cfg)
        : _sharded(cfg.lock_shards)
    {
    }

    const char *name() const override { return "sharded-lock"; }

    std::size_t laneCount() const override { return 1; }

    void
    addBlock(TermBlock &&block, unsigned) override
    {
        _sharded.addBlock(block);
    }

    std::vector<InvertedIndex>
    release(double *join_seconds) override
    {
        Timer join_timer;
        InvertedIndex joined;
        _sharded.joinInto(joined);
        if (join_seconds != nullptr)
            *join_seconds = join_timer.elapsedSec();
        std::vector<InvertedIndex> out;
        out.push_back(std::move(joined));
        return out;
    }

  private:
    ShardedIndex _sharded;
};

/**
 * Implementations 2 and 3: one private index per lane, no insert
 * synchronization. Implementation 2 seals through the fused
 * merge-and-pack on cfg.joiners threads ("Join Forces"); its release()
 * keeps the joinParallel reduction. Implementation 3 hands the
 * replicas over unjoined.
 */
class ReplicatedBackend : public IndexBackend
{
  public:
    explicit ReplicatedBackend(const Config &cfg)
        : _replicas(cfg.replicaCount()), _en_bloc(cfg.en_bloc),
          _join(cfg.impl == Implementation::ReplicatedJoin),
          _joiners(cfg.joiners)
    {
    }

    const char *
    name() const override
    {
        return _join ? "replicated-join" : "replicated-no-join";
    }

    std::size_t laneCount() const override { return _replicas.size(); }

    void
    addBlock(TermBlock &&block, unsigned lane) override
    {
        if (lane >= _replicas.size())
            panic("ReplicatedBackend::addBlock: lane out of range");
        insertPrivate(_replicas[lane], block, _en_bloc);
    }

    IndexSnapshot
    sealed(double *join_seconds, double *seal_seconds) override
    {
        if (!_join)
            return IndexBackend::sealed(join_seconds, seal_seconds);
        // The "Join Forces" barrier is implicit (every writer joined);
        // the join itself is the seal's parallel merge.
        SealTimes times;
        IndexSnapshot snapshot = IndexSnapshot::sealMerged(
            std::move(_replicas), joinThreads(), PostingCodec::Packed,
            &times);
        _replicas.clear();
        if (join_seconds != nullptr)
            *join_seconds = times.merge;
        if (seal_seconds != nullptr)
            *seal_seconds = times.assemble;
        return snapshot;
    }

    std::vector<InvertedIndex>
    release(double *join_seconds) override
    {
        std::vector<InvertedIndex> out;
        if (_join) {
            // The "Join Forces" barrier is implicit: release() runs
            // only after every writer joined.
            Timer join_timer;
            out.push_back(
                joinParallel(std::move(_replicas), joinThreads()));
            if (join_seconds != nullptr)
                *join_seconds = join_timer.elapsedSec();
        } else {
            if (join_seconds != nullptr)
                *join_seconds = 0.0;
            out = std::move(_replicas);
        }
        _replicas.clear();
        return out;
    }

  private:
    std::size_t joinThreads() const { return std::max(1u, _joiners); }

    std::vector<InvertedIndex> _replicas;
    bool _en_bloc;
    bool _join;
    unsigned _joiners;
};

} // namespace

IndexSnapshot
IndexBackend::sealed(double *join_seconds, double *seal_seconds)
{
    std::vector<InvertedIndex> indices = release(join_seconds);
    Timer seal_timer;
    IndexSnapshot snapshot = IndexSnapshot::seal(std::move(indices));
    if (seal_seconds != nullptr)
        *seal_seconds = seal_timer.elapsedSec();
    return snapshot;
}

std::unique_ptr<IndexBackend>
makeBackend(const Config &cfg)
{
    switch (cfg.impl) {
      case Implementation::Sequential:
        return std::make_unique<SequentialBackend>(cfg);
      case Implementation::SharedLocked:
        if (cfg.lock_shards > 1)
            return std::make_unique<ShardedLockBackend>(cfg);
        return std::make_unique<SharedLockedBackend>(cfg);
      case Implementation::ReplicatedJoin:
      case Implementation::ReplicatedNoJoin:
        return std::make_unique<ReplicatedBackend>(cfg);
    }
    panic("makeBackend: unknown implementation");
}

} // namespace dsearch
