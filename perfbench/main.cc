/**
 * @file
 * perfbench entry point: parse the command line, run one workload
 * (or, with --trace 1, the traced per-layer ladder) and print the
 * report. The last stdout line is one JSON object; run.py turns it
 * into the result line BENCHMARK.json describes.
 *
 *   perfbench --workload serve --seed 3 --seconds 15 --trace 0 \
 *             --scale 0.1 --ref-rate 1000 --sweep 1000,2000 ...
 *
 * Exit status: 0 when every output check passed, 1 when one failed,
 * 2 on a usage error.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "bench.hh"

namespace {

using perfbench::Options;

std::vector<double>
parseList(const std::string &text)
{
    std::vector<double> out;
    std::stringstream in(text);
    std::string item;
    while (std::getline(in, item, ','))
        out.push_back(std::stod(item));
    return out;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        auto u = [&] { return static_cast<unsigned>(std::stoul(v)); };
        if (flag == "--workload") o.workload = v;
        else if (flag == "--seed") o.seed = std::stoull(v);
        else if (flag == "--seconds") o.seconds = std::stod(v);
        else if (flag == "--trace") o.trace = v != "0";
        else if (flag == "--scale") o.scale = std::stod(v);
        else if (flag == "--setups") o.setups = u();
        else if (flag == "--cold-starts") o.cold_starts = u();
        else if (flag == "--distinct") o.distinct_queries = u();
        else if (flag == "--ref-rate") o.ref_rate = std::stod(v);
        else if (flag == "--sweep") o.sweep_rates = parseList(v);
        else if (flag == "--work-dir") o.work_dir = v;
        else usage("unknown flag " + flag);
    }
    if (o.seconds <= 0.0 || o.scale <= 0.0 || o.scale > 1.0
        || o.setups == 0 || o.distinct_queries == 0 || o.ref_rate <= 0.0)
        usage("a numeric option is out of range");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    perfbench::Report report;
    try {
        if (opts.trace)
            perfbench::runLadder(opts, report);
        else if (opts.workload == "build")
            perfbench::runBuild(opts, report);
        else if (opts.workload == "serve")
            perfbench::runServe(opts, report);
        else if (opts.workload == "sharded")
            perfbench::runSharded(opts, report);
        else if (opts.workload == "live")
            perfbench::runLive(opts, report);
        else
            usage("unknown workload '" + opts.workload + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (report.attempted() != 0) {
        report.metric("fail_rate",
                      static_cast<double>(report.failed())
                          / static_cast<double>(report.attempted()),
                      "ratio", "failed / attempted, all phases");
    }
    report.print(opts.trace);
    return report.correct() ? 0 : 1;
}
