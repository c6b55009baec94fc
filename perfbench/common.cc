/**
 * @file
 * Report, Tracer, generated inputs and sample statistics shared by
 * every workload.
 */
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "bench.hh"
#include "fs/corpus.hh"
#include "util/stats.hh"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

// ----------------------------------------------------------------------
// Report
// ----------------------------------------------------------------------

void
Report::metric(std::string name, double value, std::string unit,
               std::string note)
{
    std::scoped_lock lock(_mutex);
    for (Metric &m : _metrics) {
        if (m.name == name) {
            m = Metric{std::move(name), value, std::move(unit),
                       std::move(note)};
            return;
        }
    }
    _metrics.push_back(Metric{std::move(name), value, std::move(unit),
                              std::move(note)});
}

void
Report::check(const std::string &name, bool ok,
              const std::string &detail)
{
    std::scoped_lock lock(_mutex);
    auto it = std::find_if(_checks.begin(), _checks.end(),
                           [&](const Check &c) { return c.name == name; });
    if (it == _checks.end()) {
        _checks.push_back(Check{name, 0, 0, {}});
        it = _checks.end() - 1;
    }
    if (ok) {
        ++it->passed;
        return;
    }
    if (it->failed++ == 0)
        it->first_failure = detail;
    _correct = false;
}

void
Report::operations(const std::string &phase, std::uint64_t attempted,
                   std::uint64_t failed)
{
    std::scoped_lock lock(_mutex);
    _phases.push_back(Phase{phase, attempted, failed});
    _attempted += attempted;
    _failed += failed;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

void
Report::print(bool trace) const
{
    std::scoped_lock lock(_mutex);
    for (const Phase &p : _phases) {
        std::printf("phase %-28s attempted %10" PRIu64
                    "  succeeded %10" PRIu64 "  failed %6" PRIu64
                    "  fail_rate %.6f\n",
                    p.name.c_str(), p.attempted, p.attempted - p.failed,
                    p.failed,
                    p.attempted == 0 ? 0.0
                                     : static_cast<double>(p.failed)
                                           / static_cast<double>(
                                               p.attempted));
    }
    for (const Check &c : _checks) {
        std::printf("check %-40s passed %8" PRIu64 "  failed %4" PRIu64
                    "%s%s\n",
                    c.name.c_str(), c.passed, c.failed,
                    c.failed != 0 ? "  first: " : "",
                    c.first_failure.c_str());
    }
    for (const Metric &m : _metrics) {
        std::printf("metric %-34s %16.6f %-8s %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"trace\": %s, \"metrics\": {",
                _correct ? "true" : "false", _attempted, _failed,
                trace ? "true" : "false");
    bool first = true;
    for (const Metric &m : _metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", jsonEscape(m.name).c_str(),
                    std::isfinite(m.value) ? m.value : -1.0,
                    jsonEscape(m.unit).c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

// ----------------------------------------------------------------------
// Tracer
// ----------------------------------------------------------------------

Tracer::Tracer() : _epoch(Clock::now()) {}

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - _epoch)
        .count();
}

std::uint32_t
Tracer::begin(const char *name, std::uint32_t parent,
              std::uint64_t request)
{
    std::int64_t start = now();
    std::scoped_lock lock(_mutex);
    Span span;
    span.name = name;
    span.start_ns = start;
    span.end_ns = -1;
    span.id = static_cast<std::uint32_t>(_spans.size() + 1);
    span.parent = parent;
    span.request = request;
    _spans.push_back(span);
    return span.id;
}

void
Tracer::end(std::uint32_t id)
{
    std::int64_t end = now();
    std::scoped_lock lock(_mutex);
    if (id != 0 && id <= _spans.size())
        _spans[id - 1].end_ns = end;
}

void
Tracer::add(const char *name, Clock::time_point start,
            Clock::time_point end, std::uint32_t parent,
            std::uint64_t request)
{
    auto ns = [this](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - _epoch)
            .count();
    };
    std::scoped_lock lock(_mutex);
    Span span;
    span.name = name;
    span.start_ns = ns(start);
    span.end_ns = ns(end);
    span.id = static_cast<std::uint32_t>(_spans.size() + 1);
    span.parent = parent;
    span.request = request;
    _spans.push_back(span);
}

std::vector<Span>
Tracer::spans() const
{
    std::scoped_lock lock(_mutex);
    return _spans;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    for (const Span &s : spans()) {
        out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << "}\n";
    }
    return static_cast<bool>(out);
}

std::vector<std::pair<std::string, double>>
Tracer::selfTimeByLayer() const
{
    std::vector<Span> all = spans();
    std::map<std::uint32_t, std::vector<std::pair<std::int64_t,
                                                  std::int64_t>>>
        children;
    for (const Span &s : all) {
        if (s.parent != 0 && s.end_ns >= s.start_ns)
            children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::map<std::string, double> by_layer;
    for (const Span &s : all) {
        if (s.end_ns < s.start_ns)
            continue;
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t cur_lo = 0, cur_hi = -1;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.start_ns);
                hi = std::min(hi, s.end_ns);
                if (hi <= lo)
                    continue;
                if (lo > cur_hi) {
                    if (cur_hi > cur_lo)
                        covered += cur_hi - cur_lo;
                    cur_lo = lo;
                    cur_hi = hi;
                } else {
                    cur_hi = std::max(cur_hi, hi);
                }
            }
            if (cur_hi > cur_lo)
                covered += cur_hi - cur_lo;
        }
        std::string name = s.name;
        std::string layer = name.substr(0, name.find('.'));
        by_layer[layer] +=
            static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    }
    return {by_layer.begin(), by_layer.end()};
}

// ----------------------------------------------------------------------
// Generated inputs
// ----------------------------------------------------------------------

std::uint64_t
Rng::next()
{
    std::uint64_t z = (_state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::unit()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t
Rng::range(std::size_t lo, std::size_t hi)
{
    return lo + static_cast<std::size_t>(next() % (hi - lo));
}

QueryMix
makeQueryMix(const Options &opts, std::size_t vocabulary,
             std::uint64_t seed)
{
    // Vocabulary bands by Zipf rank. Head terms occur in nearly every
    // document, torso terms in a few to a few tens of percent, tail
    // terms in a few percent or less, so ANDs and NOTs over them are
    // selective.
    const std::size_t head_end = 100;
    const std::size_t torso_lo = 300;
    const std::size_t torso_end = std::min<std::size_t>(3000,
                                                        vocabulary / 2);
    const std::size_t tail_end = vocabulary;
    Rng rng(seed * 0x2545f4914f6cdd1dull + 0x51ed);
    auto head = [&] {
        return dsearch::CorpusGenerator::wordForRank(rng.range(0, head_end));
    };
    auto torso = [&] {
        return dsearch::CorpusGenerator::wordForRank(
            rng.range(torso_lo, torso_end));
    };
    auto tail = [&] {
        return dsearch::CorpusGenerator::wordForRank(
            rng.range(torso_end, tail_end));
    };

    struct Shape
    {
        const char *name;
        double weight;
        bool ranked;
    };
    const double b = 1.0 - fixed::ranked_share;
    const double r = fixed::ranked_share;
    const Shape shapes[] = {
        {"and2", 0.30 * b, false},   {"and3", 0.15 * b, false},
        {"or2", 0.15 * b, false},    {"andnot", 0.15 * b, false},
        {"andor", 0.15 * b, false},  {"ornot", 0.10 * b, false},
        {"ranked_or", 0.5 * r, true}, {"ranked_and", 0.5 * r, true},
    };

    // Shapes are dealt in a fixed interleaved cycle (smooth weighted
    // round robin), so every popularity band of the Zipf stream sees
    // the nominal shape shares and only the terms depend on the seed.
    QueryMix mix;
    mix.distinct.reserve(opts.distinct_queries);
    std::vector<double> credit(std::size(shapes), 0.0);
    for (std::size_t i = 0; i < opts.distinct_queries; ++i) {
        std::size_t pick = 0;
        for (std::size_t k = 0; k < credit.size(); ++k) {
            credit[k] += shapes[k].weight;
            if (credit[k] > credit[pick])
                pick = k;
        }
        credit[pick] -= 1.0;
        const Shape *shape = &shapes[pick];
        std::string n = shape->name;
        std::string text;
        if (n == "and2") {
            text = torso() + " AND " + torso();
        } else if (n == "and3") {
            text = head() + " AND " + torso() + " AND " + tail();
        } else if (n == "or2") {
            text = tail() + " OR " + tail();
        } else if (n == "andnot") {
            text = torso() + " AND NOT " + head();
        } else if (n == "andor") {
            text = torso() + " AND (" + tail() + " OR " + tail() + ")";
        } else if (n == "ornot") {
            text = "(" + torso() + " OR " + tail() + ") AND NOT " + torso();
        } else if (n == "ranked_or") {
            text = torso() + " OR " + tail();
        } else {
            text = head() + " AND " + torso();
        }
        mix.distinct.push_back(MixQuery{text, shape->ranked});
    }

    // Popularity: distinct query i has Zipf rank i.
    std::vector<double> cdf(mix.distinct.size());
    double total = 0.0;
    for (std::size_t i = 0; i < cdf.size(); ++i) {
        total +=
            1.0 / std::pow(static_cast<double>(i + 1), fixed::zipf_s);
        cdf[i] = total;
    }
    mix.stream.resize(1u << 18);
    for (std::uint32_t &q : mix.stream) {
        double u = rng.unit() * total;
        q = static_cast<std::uint32_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        if (q >= cdf.size())
            q = static_cast<std::uint32_t>(cdf.size() - 1);
    }
    return mix;
}

std::uint64_t
hashHits(const dsearch::DocSet &hits)
{
    std::uint64_t h = 0xcbf29ce484222325ull ^ hits.size();
    for (dsearch::DocId d : hits)
        h = (h ^ d) * 0x100000001b3ull;
    return h;
}

std::uint64_t
hashRanked(const std::vector<dsearch::ScoredHit> &hits)
{
    std::uint64_t h = 0x84222325cbf29ce4ull ^ hits.size();
    for (const dsearch::ScoredHit &hit : hits) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &hit.score, sizeof bits);
        h = (h ^ hit.doc) * 0x100000001b3ull;
        h = (h ^ bits) * 0x100000001b3ull;
    }
    return h;
}

double
quantile(std::vector<double> sample, double q)
{
    std::sort(sample.begin(), sample.end());
    return dsearch::quantileSorted(sample, q);
}

double
median(std::vector<double> sample)
{
    return quantile(std::move(sample), 0.5);
}

double
tailQuantile(std::size_t n)
{
    // quantileSorted interpolates at rank q * (n - 1); the samples
    // beyond it are those above floor(rank).
    if (n < 21)
        return 0.5;
    const double q = static_cast<double>(n - 11) / static_cast<double>(n - 1);
    return std::floor(q * 100.0) / 100.0;
}

std::string
tailNote(const std::vector<double> &sample, const std::string &unit)
{
    std::string note = "median, n=" + std::to_string(sample.size());
    if (sample.size() < 21)
        return note + ", too few samples for a tail percentile";
    const double q = tailQuantile(sample.size());
    char tail[64];
    std::snprintf(tail, sizeof tail, ", p%.0f %.6g %s", q * 100.0,
                  quantile(sample, q), unit.c_str());
    return note + tail;
}

} // namespace perfbench
