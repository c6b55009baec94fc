/**
 * @file
 * Auto-tuner for the generator configuration.
 *
 * Step 6 of the paper's recommended process: "Use an auto-tuner to
 * speed up exploring the design space." Three search strategies run
 * against an abstract CostEvaluator, so the same tuner drives either
 * the platform simulator (for the table reproductions) or the real
 * threaded generator (for host tuning).
 */

#ifndef DSEARCH_TUNE_TUNER_HH
#define DSEARCH_TUNE_TUNER_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/index_generator.hh"
#include "sim/pipeline_sim.hh"
#include "tune/config_space.hh"

namespace dsearch {

/** Cost oracle: configuration -> expected build seconds. */
class CostEvaluator
{
  public:
    virtual ~CostEvaluator() = default;

    /** @return Mean build time for @p cfg, in seconds. */
    virtual double evaluate(const Config &cfg) = 0;

    /** @return Evaluations performed so far. */
    std::uint64_t evaluations() const { return _evaluations; }

  protected:
    std::uint64_t _evaluations = 0;
};

/**
 * Evaluator backed by the platform simulator.
 *
 * The DES itself is deterministic; optional multiplicative Gaussian
 * noise models run-to-run measurement variance, and @p repeats
 * averages it away — reproducing the paper's five-run protocol.
 */
class SimCostEvaluator : public CostEvaluator
{
  public:
    /**
     * @param sim          Simulator to query (kept by reference).
     * @param repeats      Runs to average per evaluation (>= 1).
     * @param noise_stddev Relative noise sigma (0 = deterministic).
     * @param seed         Noise stream seed.
     */
    SimCostEvaluator(const PipelineSim &sim, unsigned repeats = 1,
                     double noise_stddev = 0.0,
                     std::uint64_t seed = 0x70b5);

    double evaluate(const Config &cfg) override;

  private:
    const PipelineSim &_sim;
    unsigned _repeats;
    double _noise_stddev;
    Rng _rng;
};

/**
 * Evaluator that runs the real threaded generator on a corpus and
 * scores the sealed build Engine::build() performs (seal included).
 */
class RealCostEvaluator : public CostEvaluator
{
  public:
    /**
     * @param fs      Filesystem holding the corpus.
     * @param root    Directory to index.
     * @param repeats Runs to average per evaluation (>= 1).
     * @param opts    Tokenizer settings.
     */
    RealCostEvaluator(const FileSystem &fs, std::string root,
                      unsigned repeats = 1, TokenizerOptions opts = {});

    double evaluate(const Config &cfg) override;

  private:
    const FileSystem &_fs;
    std::string _root;
    unsigned _repeats;
    TokenizerOptions _opts;
};

/** One evaluated point of a tuning run. */
struct Evaluated
{
    Config config;
    double seconds = 0.0;
};

/** Outcome of a tuning run. */
struct TuneResult
{
    Config best;
    double best_sec = std::numeric_limits<double>::infinity();
    std::uint64_t evaluations = 0;
    /** Every evaluated point, in evaluation order. */
    std::vector<Evaluated> history;
};

/** Search strategy interface. */
class Tuner
{
  public:
    virtual ~Tuner() = default;

    /** Search @p space for the fastest configuration. */
    virtual TuneResult tune(CostEvaluator &evaluator,
                            const ConfigSpace &space) = 0;
};

/** Evaluates every configuration; ties keep the first found. */
class ExhaustiveTuner : public Tuner
{
  public:
    TuneResult tune(CostEvaluator &evaluator,
                    const ConfigSpace &space) override;
};

/** Evaluates a fixed budget of uniformly sampled configurations. */
class RandomTuner : public Tuner
{
  public:
    /**
     * @param budget Configurations to sample (duplicates are
     *               re-evaluated; keeps the estimator unbiased under
     *               noise).
     * @param seed   Sampling seed.
     */
    explicit RandomTuner(std::size_t budget,
                         std::uint64_t seed = 0x7a2d);

    TuneResult tune(CostEvaluator &evaluator,
                    const ConfigSpace &space) override;

  private:
    std::size_t _budget;
    std::uint64_t _seed;
};

/**
 * Steepest-descent hill climbing with random restarts over the
 * (x, y, z) lattice; evaluation results are memoized per restart
 * chain.
 */
class HillClimbTuner : public Tuner
{
  public:
    /**
     * @param restarts  Independent climbs from random starts (>= 1).
     * @param max_steps Step cap per climb.
     * @param seed      Start-point seed.
     */
    HillClimbTuner(std::size_t restarts = 4, std::size_t max_steps = 64,
                   std::uint64_t seed = 0xc11b);

    TuneResult tune(CostEvaluator &evaluator,
                    const ConfigSpace &space) override;

  private:
    std::size_t _restarts;
    std::size_t _max_steps;
    std::uint64_t _seed;
};

} // namespace dsearch

#endif // DSEARCH_TUNE_TUNER_HH
