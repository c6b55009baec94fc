/**
 * @file
 * Open-loop query streams; see serving.hh.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>

#include "serving.hh"

namespace perfbench {

using dsearch::BrokerResponse;
using dsearch::Query;
using dsearch::QueryResponse;

void
ServerTarget::submit(const MixQuery &query, std::size_t k, Done done)
{
    Query parsed = Query::parse(query.text);
    if (query.ranked) {
        _server.submitRanked(std::move(parsed), k,
                             [done](const QueryResponse &r) {
                                 Clock::time_point now = Clock::now();
                                 done(r.ok, hashRanked(r.ranked), now);
                             });
    } else {
        _server.submit(std::move(parsed),
                       [done](const QueryResponse &r) {
                           Clock::time_point now = Clock::now();
                           done(r.ok, hashHits(r.hits), now);
                       });
    }
}

BrokerTarget::BrokerTarget(dsearch::Broker &broker)
    : _broker(broker), _collector([this] { collect(); })
{
}

BrokerTarget::~BrokerTarget()
{
    {
        std::scoped_lock lock(_mutex);
        _stop = true;
    }
    _ready.notify_all();
    _collector.join();
}

void
BrokerTarget::submit(const MixQuery &query, std::size_t k, Done done)
{
    Pending pending;
    pending.ranked = query.ranked;
    pending.done = std::move(done);
    Query parsed = Query::parse(query.text);
    pending.future = query.ranked
        ? _broker.submitRanked(std::move(parsed), k)
        : _broker.submit(std::move(parsed));
    pending.submitted = Clock::now();
    {
        std::scoped_lock lock(_mutex);
        _pending.push_back(std::move(pending));
    }
    _ready.notify_one();
}

void
BrokerTarget::collect()
{
    for (;;) {
        Pending pending;
        {
            std::unique_lock lock(_mutex);
            _ready.wait(lock, [this] { return _stop || !_pending.empty(); });
            if (_pending.empty())
                return; // stopping and drained
            pending = std::move(_pending.front());
            _pending.pop_front();
        }
        BrokerResponse r = pending.future.get();
        Clock::time_point finished =
            pending.submitted
            + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(r.latency_sec));
        bool ok = r.ok && !r.partial;
        pending.done(ok, pending.ranked ? hashRanked(r.ranked)
                                        : hashHits(r.hits),
                     finished);
    }
}

namespace {

/** Per-request record shared with the completion callbacks. */
struct Slot
{
    Clock::time_point scheduled;
    Clock::time_point submitted;
    Clock::time_point finished;
    std::uint32_t query = 0;
    bool ok = false;
    bool right = false;
    std::atomic<bool> answered{false};
};

struct StreamState
{
    explicit StreamState(std::size_t n) : slots(n) {}
    std::vector<Slot> slots;
    std::mutex mutex;
    std::condition_variable all_done;
    std::size_t answered = 0;
};

} // namespace

StreamResult
runStream(Target &target, const QueryMix &mix, const Expected &expected,
          double rate, double seconds, std::size_t offset, Tracer *tracer,
          std::uint32_t parent)
{
    const std::size_t n =
        std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
    StreamResult result;
    result.rate = rate;
    result.checked = expected.check;
    auto state = std::make_shared<StreamState>(n);
    const char *span = target.spanName();

    std::vector<double> late_ms;
    late_ms.reserve(n);
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < n; ++i) {
        Slot &slot = state->slots[i];
        slot.scheduled =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         static_cast<double>(i) / rate));
        // Sleep to just before the send time, then spin: a wake-up from
        // sleep on an idle vCPU can take longer than the gap between
        // sends, and lateness is charged to every queued request.
        const Clock::time_point wake =
            slot.scheduled - std::chrono::microseconds(200);
        if (Clock::now() < wake)
            std::this_thread::sleep_until(wake);
        while (Clock::now() < slot.scheduled) {
        }
        slot.submitted = Clock::now();
        late_ms.push_back(msBetween(slot.scheduled, slot.submitted));
        slot.query = mix.stream[(offset + i) % mix.stream.size()];
        const std::uint64_t want = expected.hash[slot.query];
        const bool check = expected.check;
        target.submit(
            mix.distinct[slot.query], fixed::top_k,
            [state, i, want, check, tracer, parent,
             span](bool ok, std::uint64_t hash, Clock::time_point when) {
                Slot &s = state->slots[i];
                s.finished = when;
                s.ok = ok;
                s.right = !ok || !check || hash == want;
                if (tracer != nullptr)
                    tracer->add(span, s.scheduled, when, parent, i + 1);
                s.answered.store(true, std::memory_order_release);
                std::scoped_lock lock(state->mutex);
                if (++state->answered == state->slots.size())
                    state->all_done.notify_all();
            });
    }
    {
        std::unique_lock lock(state->mutex);
        state->all_done.wait_for(lock, std::chrono::seconds(60), [&] {
            return state->answered == state->slots.size();
        });
    }

    // Backlog: requests submitted and not yet finished, swept over
    // every submit/finish instant.
    std::vector<std::pair<Clock::time_point, int>> events;
    events.reserve(2 * n);
    result.attempted = n;
    for (Slot &s : state->slots) {
        events.emplace_back(s.submitted, +1);
        if (!s.answered.load(std::memory_order_acquire)) {
            ++result.failed;
            continue;
        }
        events.emplace_back(s.finished, -1);
        if (!s.ok) {
            ++result.failed;
        } else if (!s.right) {
            ++result.failed;
            if (result.wrong++ == 0)
                result.first_wrong = mix.distinct[s.query].text;
        } else {
            result.latency_ms.push_back(msBetween(s.scheduled, s.finished));
        }
    }
    std::sort(events.begin(), events.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first < b.first
                                            : a.second < b.second;
              });
    long outstanding = 0;
    for (const auto &[when, delta] : events) {
        (void)when;
        outstanding += delta;
        result.backlog_max = std::max<std::size_t>(
            result.backlog_max, static_cast<std::size_t>(outstanding));
    }

    // Per-window figures: p50 and p90 within consecutive windows of
    // 1000 scheduled requests, median over the windows, so a burst of
    // host noise shorter than half the run moves neither. p99 on a shared
    // host is set by scheduler stalls of a few ms that come and go
    // between runs (the generator runs late in the same instants), so
    // it is reported (query_p99_ms) but not bounded.
    const std::size_t per_window = 1000;
    const std::size_t windows = std::max<std::size_t>(1, n / per_window);
    std::vector<std::vector<double>> by_window(windows);
    for (std::size_t i = 0; i < n; ++i) {
        const Slot &s = state->slots[i];
        if (s.answered.load(std::memory_order_acquire) && s.ok && s.right)
            by_window[std::min(windows - 1, i / per_window)].push_back(
                msBetween(s.scheduled, s.finished));
    }
    std::vector<double> window_p50s, window_tails;
    result.tail_q = 0.9;
    for (const std::vector<double> &w : by_window) {
        if (!w.empty()) {
            window_p50s.push_back(median(w));
            window_tails.push_back(quantile(w, result.tail_q));
        }
    }
    result.window_p50_ms = median(window_p50s);
    result.window_tails_ms = window_tails;
    result.p50_ms = median(result.latency_ms);
    result.tail_ms = median(window_tails);
    result.p99_ms = quantile(result.latency_ms, 0.99);
    result.gen_late_p99_ms = quantile(late_ms, 0.99);
    // A growing backlog shows as the last tenth of the requests waiting
    // longer than the latency limit at the median.
    std::vector<double> last_tenth;
    for (std::size_t i = n - n / 10; i < n; ++i) {
        const Slot &s = state->slots[i];
        last_tenth.push_back(
            s.answered.load(std::memory_order_acquire)
                ? msBetween(s.scheduled, s.finished)
                : 1e9);
    }
    result.growing_backlog = median(last_tenth) > fixed::slo_ms;
    result.meets_slo = result.failed == 0 && result.p99_ms <= fixed::slo_ms
        && !result.growing_backlog;
    return result;
}

void
reportStream(const StreamResult &r, const std::string &phase,
             Report &report)
{
    report.operations(phase, r.attempted, r.failed);
    if (r.checked)
        report.check(phase + ".answers_match_direct", r.wrong == 0,
                     r.first_wrong);
}

void
printRate(const StreamResult &r, const char *what)
{
    std::printf("rate %-6s %6.0f/s  p50 %7.3f  p90 %7.3f  p99 %7.3f ms  "
                "backlog max %5zu%s  late p99 %6.3f ms  failed %zu  "
                "%s  window p90s:",
                what, r.rate, r.p50_ms, quantile(r.latency_ms, 0.9),
                r.p99_ms, r.backlog_max, r.growing_backlog ? " growing" : "",
                r.gen_late_p99_ms,
                r.failed, r.meets_slo ? "meets limit" : "misses limit");
    for (double t : r.window_tails_ms)
        std::printf(" %.3f", t);
    std::printf("\n");
}

void
runServingPhase(Target &target, const QueryMix &mix,
                const Expected &expected, const Options &opts,
                const std::string &phase, Report &report)
{
    const double ref_seconds = opts.seconds * fixed::ref_share;
    StreamResult ref = runStream(target, mix, expected, opts.ref_rate,
                                 ref_seconds, 0);
    reportStream(ref, phase + ".ref", report);
    printRate(ref, "ref");
    const std::string n = "n=" + std::to_string(ref.latency_ms.size())
        + ", " + std::to_string(ref.window_tails_ms.size()) + " windows";
    report.metric("query_p50_ms", ref.window_p50_ms, "ms",
                  "p50 per window of 1000 at "
                      + std::to_string(static_cast<int>(opts.ref_rate))
                      + "/s, median over windows, " + n);
    report.metric("query_p90_ms", ref.tail_ms, "ms",
                  "p90 per window, median over windows, " + n);
    report.metric("query_p99_ms", ref.p99_ms, "ms", n);
    report.metric("gen_late_p99_ms", ref.gen_late_p99_ms, "ms");
    report.metric("backlog_max", static_cast<double>(ref.backlog_max),
                  "count");

    // Fixed rate ladder: the highest rate whose p99 meets the limit
    // with nothing failed and no growing backlog.
    double best = 0.0;
    std::size_t offset = ref.attempted;
    const double step_seconds = opts.sweep_rates.empty()
        ? 0.0
        : opts.seconds * (1.0 - fixed::ref_share)
            / static_cast<double>(opts.sweep_rates.size());
    for (double rate : opts.sweep_rates) {
        StreamResult r = runStream(target, mix, expected, rate,
                                   step_seconds, offset);
        offset += r.attempted;
        char label[64];
        std::snprintf(label, sizeof label, "%s.rate%.0f", phase.c_str(),
                      rate);
        reportStream(r, label, report);
        printRate(r, "ladder");
        if (!r.meets_slo)
            break;
        best = rate;
    }
    report.metric("max_qps_at_slo", best, "1/s",
                  "highest ladder rate with p99 <= "
                      + std::to_string(fixed::slo_ms) + " ms");
}

} // namespace perfbench
