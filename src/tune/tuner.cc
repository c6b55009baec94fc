#include "tune/tuner.hh"

#include <cmath>
#include <map>

#include "util/logging.hh"

namespace dsearch {

SimCostEvaluator::SimCostEvaluator(const PipelineSim &sim,
                                   unsigned repeats,
                                   double noise_stddev,
                                   std::uint64_t seed)
    : _sim(sim), _repeats(repeats), _noise_stddev(noise_stddev),
      _rng(seed)
{
    if (repeats == 0)
        fatal("SimCostEvaluator: repeats must be >= 1");
}

double
SimCostEvaluator::evaluate(const Config &cfg)
{
    double base = _sim.run(cfg).total_sec;
    double sum = 0.0;
    for (unsigned r = 0; r < _repeats; ++r) {
        double factor = 1.0;
        if (_noise_stddev > 0.0) {
            // Box-Muller standard normal.
            double u1 = _rng.nextDouble();
            double u2 = _rng.nextDouble();
            while (u1 <= 0.0)
                u1 = _rng.nextDouble();
            double z = std::sqrt(-2.0 * std::log(u1))
                       * std::cos(6.28318530717958648 * u2);
            factor = std::max(0.0, 1.0 + _noise_stddev * z);
        }
        sum += base * factor;
    }
    ++_evaluations;
    return sum / static_cast<double>(_repeats);
}

RealCostEvaluator::RealCostEvaluator(const FileSystem &fs,
                                     std::string root, unsigned repeats,
                                     TokenizerOptions opts)
    : _fs(fs), _root(std::move(root)), _repeats(repeats), _opts(opts)
{
    if (repeats == 0)
        fatal("RealCostEvaluator: repeats must be >= 1");
}

double
RealCostEvaluator::evaluate(const Config &cfg)
{
    double sum = 0.0;
    for (unsigned r = 0; r < _repeats; ++r) {
        IndexGenerator generator(_fs, _root, cfg, _opts);
        sum += generator.build(BuildOutput::Snapshot).times.total;
    }
    ++_evaluations;
    return sum / static_cast<double>(_repeats);
}

namespace {

/** Track the best point seen, first-found winning ties. */
void
consider(TuneResult &result, const Config &cfg, double seconds)
{
    result.history.push_back(Evaluated{cfg, seconds});
    if (seconds < result.best_sec) {
        result.best_sec = seconds;
        result.best = cfg;
    }
}

} // namespace

TuneResult
ExhaustiveTuner::tune(CostEvaluator &evaluator, const ConfigSpace &space)
{
    TuneResult result;
    for (const Config &cfg : space.enumerate())
        consider(result, cfg, evaluator.evaluate(cfg));
    result.evaluations = result.history.size();
    return result;
}

RandomTuner::RandomTuner(std::size_t budget, std::uint64_t seed)
    : _budget(budget), _seed(seed)
{
    if (budget == 0)
        fatal("RandomTuner: budget must be >= 1");
}

TuneResult
RandomTuner::tune(CostEvaluator &evaluator, const ConfigSpace &space)
{
    space.validate();
    TuneResult result;
    Rng rng(_seed);
    for (std::size_t i = 0; i < _budget; ++i) {
        Config cfg = space.randomConfig(rng);
        consider(result, cfg, evaluator.evaluate(cfg));
    }
    result.evaluations = result.history.size();
    return result;
}

HillClimbTuner::HillClimbTuner(std::size_t restarts,
                               std::size_t max_steps,
                               std::uint64_t seed)
    : _restarts(restarts), _max_steps(max_steps), _seed(seed)
{
    if (restarts == 0 || max_steps == 0)
        fatal("HillClimbTuner: restarts and max_steps must be >= 1");
}

TuneResult
HillClimbTuner::tune(CostEvaluator &evaluator, const ConfigSpace &space)
{
    space.validate();
    TuneResult result;
    Rng rng(_seed);

    // Memoize on the (x, y, z) lattice; re-evaluating the same tuple
    // only wastes budget (noise is the evaluator's concern).
    std::map<std::string, double> cache;
    auto cost = [&](const Config &cfg) {
        auto it = cache.find(cfg.tupleString());
        if (it != cache.end())
            return it->second;
        double seconds = evaluator.evaluate(cfg);
        cache.emplace(cfg.tupleString(), seconds);
        consider(result, cfg, seconds);
        return seconds;
    };

    for (std::size_t restart = 0; restart < _restarts; ++restart) {
        Config current = space.randomConfig(rng);
        double current_cost = cost(current);
        for (std::size_t step = 0; step < _max_steps; ++step) {
            Config best_neighbor = current;
            double best_cost = current_cost;
            for (const Config &neighbor : space.neighbors(current)) {
                double c = cost(neighbor);
                if (c < best_cost) {
                    best_cost = c;
                    best_neighbor = neighbor;
                }
            }
            if (best_cost >= current_cost)
                break; // local optimum
            current = best_neighbor;
            current_cost = best_cost;
        }
    }
    result.evaluations = result.history.size();
    return result;
}

} // namespace dsearch
