/**
 * @file
 * E8: join ablation (§2.3 of the paper).
 *
 * "Would it be enough to join the indices with a single thread, or
 * should a parallel reduction setup with multiple joining processes
 * be used?" — measured here on the real "Join Forces" step, which
 * Implementation 2 fuses with the seal: z threads each k-way merge a
 * hash share of the terms across all r replicas and pack it into
 * compressed blocks (IndexSnapshot::sealMerged). Replica sets are
 * built once per replica count and deep-copied for each timed join,
 * so the measurement isolates the join + seal itself.
 */

#include <iostream>
#include <thread>
#include <vector>

#include "core/index_generator.hh"
#include "fs/corpus.hh"
#include "index/index_snapshot.hh"
#include "util/stats.hh"
#include "util/string_util.hh"
#include "util/table.hh"
#include "util/timer.hh"

namespace {

using namespace dsearch;

/** Deep copy of a replica set (join consumes its input). */
std::vector<InvertedIndex>
cloneReplicas(const std::vector<InvertedIndex> &replicas)
{
    std::vector<InvertedIndex> copies;
    copies.reserve(replicas.size());
    for (const InvertedIndex &replica : replicas)
        copies.push_back(replica.clone());
    return copies;
}

} // namespace

int
main()
{
    using namespace dsearch;

    const unsigned cores =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned repeats = 5;

    auto fs = CorpusGenerator(CorpusSpec::paperScaled(0.12))
                  .generateInMemory();

    Table table("E8 — merge-and-pack of r replicas on z threads (real "
                "runs, "
                + std::to_string(cores) + "-core host, "
                + formatBytes(fs->totalBytes()) + ", mean of "
                + std::to_string(repeats)
                + ", replicas built once and cloned per join)");
    table.setColumns({"replicas r", "postings", "z = 1 (s)",
                      "z = 2 (s)", "z = 4 (s)", "z=2 vs z=1"});

    for (unsigned r_count : {2u, 4u, 8u}) {
        Config build_cfg = Config::replicatedNoJoin(cores, r_count);
        IndexGenerator generator(*fs, "/", build_cfg);
        BuildResult result = generator.build();

        std::uint64_t postings = 0;
        for (const InvertedIndex &replica : result.indices)
            postings += replica.postingCount();

        // Warm-up clone+join (untimed) to stabilize the allocator.
        {
            IndexSnapshot warm = IndexSnapshot::sealMerged(
                cloneReplicas(result.indices), 2);
            if (warm.termCount() == 0)
                return 1;
        }

        RunningStat stats[3];
        const unsigned z_values[3] = {1, 2, 4};
        for (unsigned rep = 0; rep < repeats; ++rep) {
            // Interleave z values within each repetition so slow
            // drift (frequency scaling, heap growth) biases no cell.
            for (int zi = 0; zi < 3; ++zi) {
                auto copies = cloneReplicas(result.indices);
                Timer timer;
                IndexSnapshot joined = IndexSnapshot::sealMerged(
                    std::move(copies), z_values[zi]);
                stats[zi].push(timer.elapsedSec());
                if (joined.termCount() == 0)
                    return 1; // defeat over-optimization
            }
        }

        table.addRow({std::to_string(r_count),
                      std::to_string(postings),
                      formatDouble(stats[0].mean(), 3),
                      formatDouble(stats[1].mean(), 3),
                      formatDouble(stats[2].mean(), 3),
                      formatDouble(percentDelta(stats[1].mean(),
                                                stats[0].mean()),
                                   1)
                          + "%"});
    }

    table.render(std::cout);
    std::cout << "Expected shape: the paper (§2.3) found one joiner "
                 "enough for its pairwise\nreduction; the fused "
                 "merge-and-pack splits the terms, not the replica "
                 "pairs,\nso z > 1 helps at every r, bounded by the "
                 "host's core count.\n";
    return 0;
}
