/**
 * @file
 * E9: ground-truth speed-ups of the real threaded generator on the
 * build host (scaled synthetic corpus, in-memory filesystem).
 *
 * This is the experiment the paper runs, at laptop scale: the same
 * three implementations, a small (x, y) sweep bounded by the host's
 * core count, five repetitions per configuration. With the corpus in
 * memory there is no disk bottleneck, so speed-ups track the CPU
 * parallelism available.
 */

#include <iostream>
#include <thread>

#include "core/index_generator.hh"
#include "fs/corpus.hh"
#include "tune/tuner.hh"
#include "util/stats.hh"
#include "util/string_util.hh"
#include "util/table.hh"

int
main()
{
    using namespace dsearch;

    const unsigned cores =
        std::max(1u, std::thread::hardware_concurrency());
    const double scale = 0.05;
    const unsigned repeats = 3;

    auto fs = CorpusGenerator(CorpusSpec::paperScaled(scale))
                  .generateInMemory();

    // Sequential baseline, sealed like every tuned configuration
    // (RealCostEvaluator times the build Engine::build runs).
    RunningStat seq_stat;
    for (unsigned r = 0; r < repeats; ++r) {
        IndexGenerator generator(*fs, "/", Config::sequential());
        seq_stat.push(
            generator.build(BuildOutput::Snapshot).times.total);
    }
    double seq = seq_stat.mean();

    Table table("E9 — real speed-ups on the build host ("
                + std::to_string(cores) + " cores, "
                + formatBytes(fs->totalBytes())
                + " in-memory corpus, mean of "
                + std::to_string(repeats) + " runs)");
    table.setColumns({"implementation", "best config", "time (s)",
                      "speed-up", "vs Impl 1"});
    table.addRow({"Sequential", "-", formatDouble(seq, 3), "-", "-"});
    table.addSeparator();

    const unsigned max_x = cores + 1;
    const unsigned max_y = std::max(1u, cores / 2);

    double impl1_speedup = 0.0;
    for (Implementation impl :
         {Implementation::SharedLocked, Implementation::ReplicatedJoin,
          Implementation::ReplicatedNoJoin}) {
        ConfigSpace space = ConfigSpace::paperTable(
            impl, max_x, max_y,
            impl == Implementation::ReplicatedJoin ? 2 : 0);
        // Also allow y = 0 (extractors update directly) on the host:
        // the paper's tables keep y >= 1, but the host sweep is
        // cheap enough to widen.
        space.min_updaters = 0;

        RealCostEvaluator evaluator(*fs, "/", repeats);
        TuneResult best = ExhaustiveTuner().tune(evaluator, space);

        double s = speedup(seq, best.best_sec);
        if (impl == Implementation::SharedLocked)
            impl1_speedup = s;
        table.addRow({name(impl), best.best.tupleString(),
                      formatDouble(best.best_sec, 3),
                      formatDouble(s, 2),
                      formatDouble(percentDelta(s, impl1_speedup), 1)
                          + "%"});
    }

    table.render(std::cout);
    std::cout << "Expected shape: speed-up approaches the host core "
                 "count; replicated\nimplementations at least match "
                 "the shared locked index.\n";
    return 0;
}
