/**
 * @file
 * The "Join Forces" pattern: merging replicated indices.
 *
 * §2.3 of the paper: each term extractor (or updater) builds a private
 * index and the replicas are joined at the end, eliminating all
 * synchronization except a barrier before the join. The open question
 * the paper poses — "Would it be enough to join the indices with a
 * single thread, or should a parallel reduction setup with multiple
 * joining processes be used?" — is answered empirically by ablation
 * E8, for which both joins are provided.
 *
 * Both joins concatenate posting lists into one mutable index; they
 * serve callers that want that index (IndexGenerator::build, the
 * ablations). A sealed build never calls them: it merges the replicas
 * term by term while packing them (PostingSegment::build via
 * IndexSnapshot::sealMerged), which yields the same bytes as joining
 * and then sealing, without the concatenation or the re-sort.
 */

#ifndef DSEARCH_INDEX_INDEX_JOIN_HH
#define DSEARCH_INDEX_INDEX_JOIN_HH

#include <cstddef>
#include <vector>

#include "index/inverted_index.hh"

namespace dsearch {

/**
 * Join replicas with a single thread: fold every replica into the
 * first.
 *
 * @param replicas Consumed (left empty).
 * @return The joined index; empty input yields an empty index.
 */
InvertedIndex joinSequential(std::vector<InvertedIndex> replicas);

/**
 * Join replicas with a parallel reduction tree of @p threads joiner
 * threads: each round merges disjoint pairs concurrently, halving the
 * replica count until one remains.
 *
 * @param replicas Consumed (left empty).
 * @param threads  Joiner thread count (>= 1; 1 degenerates to the
 *                 sequential join).
 * @return The joined index.
 */
InvertedIndex joinParallel(std::vector<InvertedIndex> replicas,
                           std::size_t threads);

} // namespace dsearch

#endif // DSEARCH_INDEX_INDEX_JOIN_HH
