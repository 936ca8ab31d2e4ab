/**
 * @file
 * Cycle-accounting tests. The battery runs in any environment: on
 * hosts with a usable PMU it exercises real counter groups, and the
 * forced-fallback cases (a bogus perf event type, or the syscall
 * skipped entirely) prove the clock-only degradation produces a
 * complete phase breakdown — the guarantee containers and
 * perf_event_paranoid >= 3 machines rely on.
 */

#include "telemetry/perf_counters.hh"

#include <gtest/gtest.h>

#include <chrono>

#include "telemetry/flight_recorder.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace djinn {
namespace telemetry {
namespace {

/** Spin the CPU for at least @p micros of wall time. */
void
burnCpu(int micros)
{
    using Clock = std::chrono::steady_clock;
    auto until = Clock::now() + std::chrono::microseconds(micros);
    volatile uint64_t sink = 0;
    while (Clock::now() < until)
        sink += sink * 31 + 7;
}

TEST(CounterSetTest, BogusEventTypeFallsBackToClockOnly)
{
    // An unknown event type makes perf_event_open fail with EINVAL,
    // the same degradation path a seccomp-restricted container
    // takes with EACCES.
    CounterSet::Config config;
    config.leaderType = 0xdeadbeefu;
    CounterSet set(config);
    EXPECT_FALSE(set.hardware());

    auto begin = set.snapshot();
    burnCpu(2000);
    auto end = set.snapshot();
    CounterDelta d = CounterSet::delta(begin, end);

    EXPECT_FALSE(d.hardware);
    EXPECT_EQ(d.cycles, 0u);
    EXPECT_EQ(d.instructions, 0u);
    EXPECT_EQ(d.ipc(), 0.0);
    EXPECT_GT(d.wallNs, 0u);
    EXPECT_GT(d.taskClockNs, 0u); // the spin consumed thread CPU
    EXPECT_EQ(d.work(), d.wallNs);
}

TEST(CounterSetTest, DisabledConfigSkipsTheSyscall)
{
    CounterSet::Config config;
    config.disabled = true;
    CounterSet set(config);
    EXPECT_FALSE(set.hardware());

    auto begin = set.snapshot();
    burnCpu(500);
    CounterDelta d = CounterSet::delta(begin, set.snapshot());
    EXPECT_FALSE(d.hardware);
    EXPECT_GT(d.wallNs, 0u);
}

TEST(CounterDeltaTest, AddAccumulatesEveryField)
{
    CounterDelta a;
    a.cycles = 100;
    a.instructions = 200;
    a.cacheRefs = 10;
    a.cacheMisses = 5;
    a.taskClockNs = 1000;
    a.wallNs = 2000;
    a.hardware = true;

    CounterDelta b = a;
    b.cycles = 50;
    a.add(b);
    EXPECT_EQ(a.cycles, 150u);
    EXPECT_EQ(a.instructions, 400u);
    EXPECT_EQ(a.cacheRefs, 20u);
    EXPECT_EQ(a.cacheMisses, 10u);
    EXPECT_EQ(a.taskClockNs, 2000u);
    EXPECT_EQ(a.wallNs, 4000u);
    EXPECT_TRUE(a.hardware);
}

TEST(CounterDeltaTest, IpcIsInstructionsPerCycle)
{
    CounterDelta d;
    d.cycles = 1000;
    d.instructions = 2500;
    d.hardware = true;
    EXPECT_DOUBLE_EQ(d.ipc(), 2.5);

    CounterDelta zero;
    EXPECT_EQ(zero.ipc(), 0.0);
}

TEST(ThreadCounterSetTest, DeltaTracksBusyWork)
{
    CounterSet &set = threadCounterSet();
    auto begin = set.snapshot();
    burnCpu(2000);
    CounterDelta d = CounterSet::delta(begin, set.snapshot());

    // Whichever mode the environment allows, work() is positive and
    // the fallback clocks always move.
    EXPECT_GT(d.wallNs, 0u);
    EXPECT_GT(d.work(), 0u);
    if (set.hardware()) {
        EXPECT_TRUE(d.hardware);
        EXPECT_GT(d.cycles, 0u);
        EXPECT_GT(d.instructions, 0u);
        EXPECT_GT(d.ipc(), 0.0);
    }
}

TEST(CounterScopeTest, StopIsIdempotent)
{
    CounterScope scope;
    burnCpu(500);
    const CounterDelta &first = scope.stop();
    uint64_t wall = first.wallNs;
    burnCpu(500);
    EXPECT_EQ(scope.stop().wallNs, wall);
}

TEST(CounterScopeTest, NestingMatchesTraceSpanNesting)
{
    // Scopes nest like trace spans: the inner scope's delta must be
    // a subset of the enclosing scope's delta on every axis the
    // current mode measures.
    CounterScope outer;
    burnCpu(1000);
    CounterDelta inner_delta;
    {
        CounterScope inner;
        burnCpu(1000);
        inner_delta = inner.stop();
    }
    burnCpu(1000);
    const CounterDelta &outer_delta = outer.stop();

    EXPECT_GT(inner_delta.wallNs, 0u);
    EXPECT_LT(inner_delta.wallNs, outer_delta.wallNs);
    EXPECT_LE(inner_delta.taskClockNs, outer_delta.taskClockNs);
    EXPECT_LE(inner_delta.work(), outer_delta.work());
    if (outer_delta.hardware) {
        EXPECT_LE(inner_delta.cycles, outer_delta.cycles);
        EXPECT_LE(inner_delta.instructions,
                  outer_delta.instructions);
    }
}

TEST(PerfAvailabilityTest, ProbeIsCachedAndStable)
{
    bool first = perfCountersAvailable();
    EXPECT_EQ(perfCountersAvailable(), first);
    // The probe and the calling thread's set agree: both open the
    // same group under the same process restrictions.
    EXPECT_EQ(threadCounterSet().hardware(), first);
}

TEST(RequestTraceWorkTest, ClockOnlyDeltasYieldCompleteBreakdown)
{
    // The fallback guarantee: with counters unavailable, feeding
    // clock-only deltas through the phase accounting still yields a
    // complete breakdown of the worker's phases (decode, queue
    // wait, encode; the executor records forward per pass) whose
    // shares sum to the request span — just denominated in
    // nanoseconds.
    MetricRegistry registry;
    FlightRecorder recorder(16, 0);
    RequestLog log(registry, recorder, "tiny", true, 0.0);

    RequestWork work;
    CounterDelta *phases[] = {&work.decode, &work.queueWait,
                              &work.encode};
    const uint64_t ns[] = {1000, 2000, 4000};
    uint64_t total = 0;
    for (int i = 0; i < 3; ++i) {
        phases[i]->wallNs = ns[i];
        phases[i]->taskClockNs = ns[i];
        phases[i]->hardware = false;
        total += ns[i];
    }
    work.request.wallNs = total;
    work.request.hardware = false;
    FlightRecord record;
    log.begin();
    log.finish(record, work);

    double phase_sum = 0.0;
    int phase_families = 0;
    double request_sum = 0.0;
    for (const MetricSample &s : registry.snapshot()) {
        if (s.name == phaseCyclesMetricName) {
            ++phase_families;
            EXPECT_EQ(s.labels.at("model"), "tiny");
            EXPECT_EQ(s.histogram.count, 1u);
            phase_sum += s.histogram.sum;
        } else if (s.name == requestCyclesMetricName) {
            request_sum = s.histogram.sum;
        } else {
            // Clock-only deltas must not fabricate hardware-unit
            // families: no instructions, IPC, or cache-miss series.
            EXPECT_NE(s.name, phaseInstructionsMetricName);
            EXPECT_NE(s.name, phaseIpcMetricName);
            EXPECT_NE(s.name, phaseCacheMissMetricName);
            EXPECT_NE(s.name, requestIpcMetricName);
        }
    }
    EXPECT_EQ(phase_families, 3);
    EXPECT_DOUBLE_EQ(phase_sum, static_cast<double>(total));
    EXPECT_DOUBLE_EQ(request_sum, static_cast<double>(total));
}

TEST(RequestTraceWorkTest, HardwareDeltasExportIpcAndMisses)
{
    MetricRegistry registry;
    FlightRecorder recorder(16, 0);
    RequestLog log(registry, recorder, "tiny", false, 0.0);
    RequestWork work;
    CounterDelta &d = work.decode;
    d.cycles = 4000;
    d.instructions = 8000;
    d.cacheMisses = 17;
    d.wallNs = 999; // must be ignored: work() prefers cycles
    d.hardware = true;
    FlightRecord record;
    log.begin();
    log.finish(record, work);

    bool saw_cycles = false, saw_ipc = false, saw_misses = false;
    for (const MetricSample &s : registry.snapshot()) {
        auto phase = s.labels.find("phase");
        if (phase == s.labels.end() || phase->second != "decode")
            continue;
        if (s.name == phaseCyclesMetricName) {
            saw_cycles = true;
            EXPECT_DOUBLE_EQ(s.histogram.sum, 4000.0);
        } else if (s.name == phaseIpcMetricName) {
            saw_ipc = true;
            EXPECT_DOUBLE_EQ(s.histogram.sum, 2.0);
        } else if (s.name == phaseCacheMissMetricName) {
            saw_misses = true;
            EXPECT_DOUBLE_EQ(s.histogram.sum, 17.0);
        }
    }
    EXPECT_TRUE(saw_cycles);
    EXPECT_TRUE(saw_ipc);
    EXPECT_TRUE(saw_misses);
}

} // namespace
} // namespace telemetry
} // namespace djinn
