#include "core/batcher.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "nn/init.hh"
#include "nn/net_def.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace djinn {
namespace core {
namespace {

/** Live threads of this process named @p name (Linux /proc). */
int
threadsNamed(const std::string &name)
{
    int count = 0;
    for (const auto &task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        std::ifstream comm(task.path() / "comm");
        std::string line;
        if (std::getline(comm, line) && line == name)
            ++count;
    }
    return count;
}

class BatcherTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto net = nn::parseNetDefOrDie(
            "name tiny\ninput 1 2 2\nlayer fc fc out 3\n");
        nn::initializeWeights(*net, 5);
        ASSERT_TRUE(registry_.add(std::move(net)).isOk());
    }

    /** Forward passes run for "tiny" (djinn_batches_total). */
    uint64_t
    batches()
    {
        return metrics_.counter("djinn_batches_total", {{"model", "tiny"}})
            .value();
    }

    /** Queries for "tiny" shed for @p reason (djinn_shed_total). */
    uint64_t
    sheds(const char *reason)
    {
        return metrics_
            .counter("djinn_shed_total",
                     {{"model", "tiny"}, {"reason", reason}})
            .value();
    }

    ModelRegistry registry_;
    telemetry::MetricRegistry metrics_;
};

TEST_F(BatcherTest, SingleQueryCompletes)
{
    BatchOptions options;
    options.maxQueries = 4;
    BatchingExecutor executor(registry_, options, metrics_);
    auto future = executor.submit("tiny", 1, {1, 2, 3, 4});
    InferenceResult result = future.get();
    ASSERT_TRUE(result.status.isOk()) << result.status.toString();
    EXPECT_EQ(result.output.size(), 3u);
    EXPECT_EQ(batches(), 1u);
}

TEST_F(BatcherTest, UnknownModelRejected)
{
    BatchingExecutor executor(registry_, BatchOptions{}, metrics_);
    auto future = executor.submit("missing", 1, {1, 2, 3, 4});
    InferenceResult result = future.get();
    EXPECT_EQ(result.status.code(), StatusCode::NotFound);
}

TEST_F(BatcherTest, WrongPayloadSizeRejected)
{
    BatchingExecutor executor(registry_, BatchOptions{}, metrics_);
    auto future = executor.submit("tiny", 1, {1, 2, 3});
    InferenceResult result = future.get();
    EXPECT_EQ(result.status.code(), StatusCode::InvalidArgument);
}

TEST_F(BatcherTest, ZeroRowsRejected)
{
    BatchingExecutor executor(registry_, BatchOptions{}, metrics_);
    auto future = executor.submit("tiny", 0, {});
    EXPECT_EQ(future.get().status.code(),
              StatusCode::InvalidArgument);
}

TEST_F(BatcherTest, ConcurrentQueriesGetCombined)
{
    BatchOptions options;
    options.maxQueries = 8;
    BatchingExecutor executor(registry_, options, metrics_);

    // Park dispatch so the burst queues instead of each query
    // finding the model idle and running inline.
    std::atomic<bool> open{false};
    executor.setDispatchGate(
        [&open](const std::string &) { return open.load(); });

    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < 8; ++i) {
        futures.push_back(executor.submit(
            "tiny", 1,
            {static_cast<float>(i), 0, 0, 0}));
    }
    open.store(true);
    for (auto &f : futures)
        ASSERT_TRUE(f.get().status.isOk());
    // Coalescing must beat one-batch-per-query.
    EXPECT_LT(batches(), 8u);
}

TEST_F(BatcherTest, BatchedResultsMatchUnbatched)
{
    // A query's answer must not depend on its batch peers: each
    // output row has one owner and a fixed k-order, so the batched
    // result is bit-identical to the same query run alone.
    BatchOptions options;
    options.maxQueries = 4;
    BatchingExecutor executor(registry_, options, metrics_);

    // Queue all three behind a parked gate so they share a batch.
    std::atomic<bool> open{false};
    executor.setDispatchGate(
        [&open](const std::string &) { return open.load(); });

    std::vector<std::vector<float>> inputs = {
        {1, 2, 3, 4}, {5, 6, 7, 8}, {-1, 0, 1, 2}};
    std::vector<std::future<InferenceResult>> futures;
    for (const auto &in : inputs)
        futures.push_back(executor.submit("tiny", 1, in));
    open.store(true);

    for (size_t i = 0; i < inputs.size(); ++i) {
        InferenceResult result = futures[i].get();
        ASSERT_TRUE(result.status.isOk());
        InferenceResult alone = executor.run("tiny", 1, inputs[i]);
        ASSERT_TRUE(alone.status.isOk());
        ASSERT_EQ(result.output.size(), 3u);
        ASSERT_EQ(alone.output.size(), 3u);
        EXPECT_EQ(std::memcmp(result.output.data(),
                              alone.output.data(),
                              3 * sizeof(float)),
                  0)
            << "query " << i;
    }
}

TEST_F(BatcherTest, RunExecutesOnCallingThreadWithoutDispatcher)
{
    // The unbatched path: run() executes a batch of one on the
    // caller's thread — no queue, no dispatcher, no thread hop.
    BatchingExecutor executor(registry_, BatchOptions{}, metrics_);
    std::thread::id observed;
    executor.setBatchObserver(
        [&observed](const std::string &, int64_t, double) {
            observed = std::this_thread::get_id();
        });

    InferenceResult result = executor.run("tiny", 2,
                                          {1, 2, 3, 4, 5, 6, 7, 8});
    ASSERT_TRUE(result.status.isOk()) << result.status.toString();
    EXPECT_EQ(observed, std::this_thread::get_id());
    EXPECT_EQ(threadsNamed("batch-tiny"), 0);
    EXPECT_EQ(result.output.size(), 6u);
    EXPECT_EQ(result.batchQueries, 1);
    EXPECT_EQ(result.batchPosition, 0);
    EXPECT_EQ(result.batchRows, 2);
    EXPECT_EQ(result.queueWaitSeconds, 0.0);
    EXPECT_GT(result.forwardSeconds, 0.0);
    EXPECT_EQ(batches(), 1u);

    // The pass's forward phase is recorded; no queue_wait phase.
    bool saw_forward = false;
    for (const telemetry::MetricSample &s : metrics_.snapshot()) {
        if (s.name != telemetry::phaseMetricName)
            continue;
        EXPECT_NE(s.labels.at("phase"), "queue_wait");
        if (s.labels.at("phase") == "forward") {
            saw_forward = true;
            EXPECT_EQ(s.histogram.count, 1u);
        }
    }
    EXPECT_TRUE(saw_forward);

    // Validation and the deadline shed match submit().
    EXPECT_EQ(executor.run("missing", 1, {1, 2, 3, 4}).status.code(),
              StatusCode::NotFound);
    EXPECT_EQ(executor.run("tiny", 1, {1, 2, 3}).status.code(),
              StatusCode::InvalidArgument);
    auto past = std::chrono::steady_clock::now() -
                std::chrono::milliseconds(1);
    EXPECT_EQ(executor.run("tiny", 1, {1, 2, 3, 4}, {}, 0, past)
                  .status.code(),
              StatusCode::DeadlineExceeded);
    EXPECT_EQ(sheds("deadline"), 1u);

    // A later submit() starts the model's dispatcher.
    ASSERT_TRUE(
        executor.submit("tiny", 1, {1, 2, 3, 4}).get().status.isOk());
    EXPECT_EQ(threadsNamed("batch-tiny"), 1);
}

TEST_F(BatcherTest, SubmitOnIdleModelRunsInlineOnCaller)
{
    // Work-conserving assembly: a lone query finds its model idle
    // and runs at once on the submitting thread — no wait for
    // peers, no hop to the dispatcher.
    BatchingExecutor executor(registry_, BatchOptions{}, metrics_);
    std::thread::id observed;
    executor.setBatchObserver(
        [&observed](const std::string &, int64_t, double) {
            observed = std::this_thread::get_id();
        });

    auto future = executor.submit("tiny", 1, {1, 2, 3, 4});
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    InferenceResult result = future.get();
    ASSERT_TRUE(result.status.isOk()) << result.status.toString();
    EXPECT_EQ(observed, std::this_thread::get_id());
    EXPECT_EQ(result.batchQueries, 1);
    EXPECT_EQ(result.batchPosition, 0);
    EXPECT_EQ(result.admitQueueDepth, 0);
    EXPECT_EQ(result.queueWaitSeconds, 0.0);
    EXPECT_EQ(executor.queueDepthTotal(), 0);

    // The wait (a zero) travels in the result; the server derives
    // its queue_wait sample from the request's flight record, so
    // the executor records none.
    for (const telemetry::MetricSample &s : metrics_.snapshot()) {
        if (s.name == telemetry::phaseMetricName)
            EXPECT_NE(s.labels.at("phase"), "queue_wait");
    }
}

TEST_F(BatcherTest, PeersGatherBehindInFlightForward)
{
    // While a forward is in flight, new queries queue behind it;
    // when it returns, the dispatcher takes up to the target of
    // them as one batch.
    BatchOptions options;
    options.maxQueries = 4;
    BatchingExecutor executor(registry_, options, metrics_);

    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::atomic<int> passes{0};
    executor.setBatchObserver(
        [&](const std::string &, int64_t, double) {
            if (passes.fetch_add(1) == 0) {
                entered.set_value();
                released.wait();
            }
        });

    InferenceResult first;
    std::thread holder([&]() {
        first = executor.submit("tiny", 1, {1, 2, 3, 4}).get();
    });
    entered.get_future().wait();

    // Pass 1 is still in flight (held in its observer).
    constexpr int peers = 6;
    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < peers; ++i) {
        futures.push_back(executor.submit(
            "tiny", 1, {static_cast<float>(i), 0, 0, 0}));
    }
    EXPECT_EQ(executor.queueDepth("tiny"), peers);
    release.set_value();
    holder.join();

    ASSERT_TRUE(first.status.isOk());
    EXPECT_EQ(first.batchQueries, 1);
    for (int i = 0; i < peers; ++i) {
        InferenceResult r = futures[static_cast<size_t>(i)].get();
        ASSERT_TRUE(r.status.isOk()) << "peer " << i;
        // Pass 2 takes min(peers, target) = 4; pass 3 the rest.
        EXPECT_EQ(r.batchQueries, i < 4 ? 4 : peers - 4) << i;
        EXPECT_EQ(r.batchPosition, i < 4 ? i : i - 4) << i;
        EXPECT_EQ(r.admitQueueDepth, i) << i;
        EXPECT_GT(r.queueWaitSeconds, 0.0) << i;
    }
    EXPECT_EQ(batches(), 3u);
}

TEST_F(BatcherTest, MultiRowQueryKeepsRowOrder)
{
    auto net = registry_.find("tiny");
    BatchingExecutor executor(registry_, BatchOptions{}, metrics_);
    std::vector<float> data = {1, 2, 3, 4, 5, 6, 7, 8};
    auto result = executor.submit("tiny", 2, data).get();
    ASSERT_TRUE(result.status.isOk());
    ASSERT_EQ(result.output.size(), 6u);

    nn::Tensor in(nn::Shape(2, 1, 2, 2));
    std::copy(data.begin(), data.end(), in.data());
    nn::Tensor expected = net->forward(in);
    for (int64_t i = 0; i < 6; ++i)
        EXPECT_NEAR(result.output[i], expected[i], 1e-5);
}

TEST_F(BatcherTest, ManyThreadsStress)
{
    BatchOptions options;
    options.maxQueries = 16;
    BatchingExecutor executor(registry_, options, metrics_);

    // One forward per model at a time, inline or dispatched.
    std::atomic<int> running{0};
    std::atomic<int> overlaps{0};
    executor.setBatchObserver(
        [&running, &overlaps](const std::string &, int64_t, double) {
            if (running.fetch_add(1) != 0)
                ++overlaps;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            running.fetch_sub(1);
        });

    constexpr int threads = 8;
    constexpr int per_thread = 25;
    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&executor, &failures]() {
            for (int i = 0; i < per_thread; ++i) {
                auto result = executor.submit(
                    "tiny", 1, {1, 1, 1, 1}).get();
                if (!result.status.isOk())
                    ++failures;
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(overlaps.load(), 0);
}

TEST_F(BatcherTest, InvalidOptionsFatal)
{
    BatchOptions options;
    options.maxQueries = 0;
    EXPECT_THROW(BatchingExecutor(registry_, options, metrics_),
                 FatalError);
    options.maxQueries = 4;
    options.maxQueueDepth = -1;
    EXPECT_THROW(BatchingExecutor(registry_, options, metrics_),
                 FatalError);
}

TEST_F(BatcherTest, QueueDepthCapDerivesFromBatchSize)
{
    BatchOptions options;
    options.maxQueries = 16;
    EXPECT_EQ(options.queueDepthCapFor(options.maxQueries), 64);
    options.maxQueueDepth = 5;
    EXPECT_EQ(options.queueDepthCapFor(options.maxQueries), 5);
}

TEST_F(BatcherTest, FullQueueShedsWithOverloaded)
{
    // Admission control: with dispatch parked at the gate, rapid
    // submits keep the queue populated, so the D+1st..Nth submits
    // must be rejected immediately with Overloaded rather than
    // growing the queue without bound.
    BatchOptions options;
    options.maxQueries = 64;   // never fills a batch in this test
    options.maxQueueDepth = 4; // cap D
    BatchingExecutor executor(registry_, options, metrics_);

    std::atomic<bool> open{false};
    executor.setDispatchGate(
        [&open](const std::string &) { return open.load(); });

    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < 12; ++i)
        futures.push_back(executor.submit("tiny", 1, {1, 2, 3, 4}));
    open.store(true);

    int ok = 0, overloaded = 0;
    for (auto &f : futures) {
        InferenceResult result = f.get();
        if (result.status.isOk())
            ++ok;
        else if (result.status.code() == StatusCode::Overloaded)
            ++overloaded;
    }
    EXPECT_GE(overloaded, 4) << ok << " ok";
    EXPECT_GE(ok, 4);
    EXPECT_EQ(ok + overloaded, 12);
    EXPECT_EQ(sheds("queue_full"), static_cast<uint64_t>(overloaded));
}

TEST_F(BatcherTest, AdmissionCapTracksShrunkenBatchTarget)
{
    // The bug-1 regression: the derived queue cap (4 x batch) was
    // computed once from the static maxQueries. After the adaptive
    // scheduler shrinks the dispatch target, admission must
    // re-derive from the *current* target — with the stale cap
    // (4 x 16 = 64) none of the 40 submits below would shed.
    BatchOptions options;
    options.maxQueries = 16;
    BatchingExecutor executor(registry_, options, metrics_);

    // Park the dispatcher so nothing drains while the burst lands.
    std::atomic<bool> open{false};
    executor.setDispatchGate(
        [&open](const std::string &) { return open.load(); });
    executor.setBatchTarget("tiny", 4); // live cap: 4 x 4 = 16

    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < 40; ++i)
        futures.push_back(executor.submit("tiny", 1, {1, 2, 3, 4}));
    EXPECT_EQ(sheds("queue_full"), 24u);

    open.store(true);
    int ok = 0, overloaded = 0;
    for (auto &f : futures) {
        InferenceResult result = f.get();
        if (result.status.isOk())
            ++ok;
        else if (result.status.code() == StatusCode::Overloaded)
            ++overloaded;
    }
    EXPECT_EQ(ok, 16);
    EXPECT_EQ(overloaded, 24);
}

TEST_F(BatcherTest, OccupancyReportsAgainstCurrentTarget)
{
    // The bug-2 regression: djinn_batch_occupancy divided by the
    // static tuned batch, so a full batch under a shrunken target
    // read 4/16 = 0.25 instead of 1.0.
    BatchOptions options;
    options.maxQueries = 16;
    BatchingExecutor executor(registry_, options, metrics_);

    std::atomic<bool> open{false};
    executor.setDispatchGate(
        [&open](const std::string &) { return open.load(); });
    executor.setBatchTarget("tiny", 4);
    EXPECT_EQ(executor.batchTarget("tiny"), 4);

    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(executor.submit("tiny", 1, {1, 2, 3, 4}));
    open.store(true);
    for (auto &f : futures)
        ASSERT_TRUE(f.get().status.isOk());

    double occupancy = -1.0;
    for (const telemetry::MetricSample &s : metrics_.snapshot()) {
        if (s.name == std::string("djinn_batch_occupancy"))
            occupancy = s.value;
    }
    EXPECT_DOUBLE_EQ(occupancy, 1.0);
}

TEST_F(BatcherTest, ExpiredDeadlineShedsBeforeForward)
{
    // A query whose deadline has already passed when its batch is
    // assembled must be shed with DeadlineExceeded, not computed.
    BatchOptions options;
    options.maxQueries = 4;
    BatchingExecutor executor(registry_, options, metrics_);

    auto past = std::chrono::steady_clock::now() -
                std::chrono::milliseconds(1);
    auto expired = executor.submit("tiny", 1, {1, 2, 3, 4}, {}, 0, past);
    InferenceResult result = expired.get();
    EXPECT_EQ(result.status.code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(sheds("deadline"), 1u);

    // A live query in the same queue still completes.
    auto live = executor.submit("tiny", 1, {1, 2, 3, 4});
    EXPECT_TRUE(live.get().status.isOk());
}

TEST_F(BatcherTest, FutureDeadlineDoesNotShed)
{
    BatchOptions options;
    options.maxQueries = 4;
    BatchingExecutor executor(registry_, options, metrics_);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    auto result =
        executor.submit("tiny", 1, {1, 2, 3, 4}, {}, 0, deadline).get();
    EXPECT_TRUE(result.status.isOk());
    EXPECT_EQ(sheds("deadline"), 0u);
}

} // namespace
} // namespace core
} // namespace djinn
