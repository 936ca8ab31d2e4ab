/**
 * @file
 * Request-lifecycle robustness battery (DESIGN.md §10): I/O
 * timeouts against stalled and trickling peers, fault injection,
 * admission control under burst load with client retries, graceful
 * drain, protocol-error accounting, HTTP slowloris defense, and
 * acceptor survival under fd exhaustion.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/djinn_client.hh"
#include "core/djinn_server.hh"
#include "core/fault.hh"
#include "core/http_endpoint.hh"
#include "core/protocol.hh"
#include "nn/init.hh"
#include "telemetry/exposition.hh"

#include "forward_hold.hh"

namespace djinn {
namespace core {
namespace {

TEST(FaultSpec, ParsesKnownNames)
{
    std::string error;
    EXPECT_EQ(parseFaultSpec("", &error), FaultNone);
    EXPECT_EQ(parseFaultSpec("slow-read", &error), FaultSlowRead);
    EXPECT_EQ(parseFaultSpec("slow-read,mid-frame-close", &error),
              FaultSlowRead | FaultMidFrameClose);
    EXPECT_EQ(parseFaultSpec("stall-after-header", &error),
              FaultStallAfterHeader);
    EXPECT_TRUE(error.empty()) << error;
}

TEST(FaultSpec, ReportsUnknownNames)
{
    std::string error;
    uint32_t mask = parseFaultSpec("slow-read,bogus", &error);
    EXPECT_EQ(mask, FaultSlowRead);
    EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST(FrameIoTimeout, IdleTimeoutBoundsFirstByte)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameIo reader(fds[1]);
    reader.setIdleTimeout(0.05);
    auto got = reader.readFrame();
    EXPECT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::DeadlineExceeded);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FrameIoTimeout, StalledMidFrameTimesOut)
{
    // The peer sends the length prefix then stalls: the transfer
    // timeout (armed at the first byte) must fire even though the
    // connection was never idle-before-frame.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    uint8_t header[4] = {100, 0, 0, 0}; // claims 100 bytes, sends 0
    ASSERT_EQ(::write(fds[0], header, sizeof(header)), 4);

    FrameIo reader(fds[1]);
    reader.setTimeout(0.05);
    auto start = std::chrono::steady_clock::now();
    auto got = reader.readFrame();
    double seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    EXPECT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::DeadlineExceeded);
    EXPECT_LT(seconds, 2.0);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FrameIoTimeout, TricklingPeerCannotResetBudget)
{
    // Slowloris: a peer delivering one byte at a time restarts any
    // per-read timeout but must not defeat the per-frame budget.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::atomic<bool> stop{false};
    std::thread trickler([&]() {
        // Claim a 1000-byte frame, then trickle a byte every 10 ms
        // (would take 10 s; the reader's budget is 150 ms).
        uint8_t header[4] = {0xe8, 0x03, 0, 0};
        (void)!::write(fds[0], header, sizeof(header));
        uint8_t b = 0;
        while (!stop.load()) {
            if (::write(fds[0], &b, 1) != 1)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
    });
    FrameIo reader(fds[1]);
    reader.setTimeout(0.15);
    auto got = reader.readFrame();
    stop.store(true);
    EXPECT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::DeadlineExceeded);
    ::shutdown(fds[0], SHUT_RDWR);
    trickler.join();
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FrameIoFaults, SlowReadStillDeliversIntactFrames)
{
    // FaultSlowRead degrades throughput, not correctness.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameIo writer(fds[0]), reader(fds[1]);
    reader.setFaults(FaultSlowRead);
    std::vector<uint8_t> frame{9, 8, 7, 6, 5};
    ASSERT_TRUE(writer.writeFrame(frame).isOk());
    auto got = reader.readFrame();
    ASSERT_TRUE(got.isOk()) << got.status().toString();
    EXPECT_EQ(got.value(), frame);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FrameIoFaults, StallAfterHeaderStallsThePeer)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameIo writer(fds[0]), reader(fds[1]);
    writer.setFaults(FaultStallAfterHeader);
    EXPECT_TRUE(writer.writeFrame({1, 2, 3}).isOk());
    reader.setTimeout(0.05);
    auto got = reader.readFrame();
    EXPECT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::DeadlineExceeded);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FrameIoFaults, MidFrameCloseTruncatesThePeer)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameIo writer(fds[0]), reader(fds[1]);
    writer.setFaults(FaultMidFrameClose);
    EXPECT_FALSE(writer.writeFrame({1, 2, 3, 4}).isOk());
    auto got = reader.readFrame();
    EXPECT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::ProtocolError);
    ::close(fds[0]);
    ::close(fds[1]);
}

/** Server-side battery over a real loopback server. */
class RobustnessTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto net = heldNetwork("tiny", &hold_);
        nn::initializeWeights(*net, 5);
        ASSERT_TRUE(registry_.add(std::move(net)).isOk());
    }

    /**
     * Close the hold and send one marker query from a new thread;
     * returns once its forward is parked in flight. open() the
     * hold, then join the thread.
     */
    std::thread
    holdForward()
    {
        hold_.close();
        std::thread held([this]() {
            DjinnClient client;
            if (connect(client).isOk())
                (void)client.infer("tiny", 1, {kHoldMarker, 0, 0, 0});
        });
        hold_.awaitEntered();
        return held;
    }

    void
    startServer(ServerConfig config = ServerConfig{})
    {
        server_ = std::make_unique<DjinnServer>(registry_, config);
        ASSERT_TRUE(server_->start().isOk());
    }

    Status
    connect(DjinnClient &client)
    {
        return client.connect("127.0.0.1", server_->port());
    }

    /** Raw TCP connection to the server, for misbehaving peers. */
    int
    rawConnect()
    {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server_->port());
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) < 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    }

    /** A metric's current value from the server's registry. */
    double
    metric(const std::string &name,
           const telemetry::LabelMap &labels = {})
    {
        auto parsed = telemetry::parseExposition(
            telemetry::renderPrometheus(
                server_->metrics().snapshot()));
        if (!parsed.isOk())
            return -1.0;
        auto v = telemetry::findSample(parsed.value(), name, labels);
        return v.isOk() ? v.value() : 0.0;
    }

    /** Poll until @p name{labels} >= @p least or ~2s elapse. */
    bool
    waitForMetric(const std::string &name,
                  const telemetry::LabelMap &labels, double least)
    {
        for (int i = 0; i < 200; ++i) {
            if (metric(name, labels) >= least)
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        return false;
    }

    ForwardHold hold_;
    ModelRegistry registry_;
    std::unique_ptr<DjinnServer> server_;
};

TEST_F(RobustnessTest, StalledClientCannotBlockWorkerPastTimeout)
{
    // Acceptance: a client that stalls mid-frame must not park its
    // worker thread forever; the I/O timeout reclaims it and the
    // stall is visible in djinn_io_timeouts_total. Other clients
    // stay served throughout.
    ServerConfig config;
    config.ioTimeoutSeconds = 0.1;
    startServer(config);

    int stalled = rawConnect();
    ASSERT_GE(stalled, 0);
    {
        // Send the length prefix and two payload bytes, then stall.
        uint8_t partial[6] = {100, 0, 0, 0, 0xaa, 0xbb};
        ASSERT_EQ(::write(stalled, partial, sizeof(partial)), 6);
    }

    DjinnClient healthy;
    ASSERT_TRUE(connect(healthy).isOk());
    EXPECT_TRUE(healthy.infer("tiny", 1, {1, 2, 3, 4}).isOk());

    EXPECT_TRUE(waitForMetric("djinn_io_timeouts_total",
                              {{"op", "read"}}, 1.0))
        << "stalled connection was never timed out";
    EXPECT_TRUE(healthy.ping().isOk());
    ::close(stalled);
}

TEST_F(RobustnessTest, OverloadBurstShedsAndRetriesSucceed)
{
    // Acceptance: a burst far above the queue cap sheds with
    // Overloaded (bounded queue), the sheds are counted, and a
    // client retrying with backoff eventually gets every answer.
    ServerConfig config;
    config.batching = true;
    config.batchOptions.maxQueries = 64;
    config.batchOptions.maxQueueDepth = 4;
    startServer(config);

    // The burst queues behind a forward held in flight.
    std::thread held = holdForward();
    constexpr int burst = 16; // 4 x the queue cap
    std::atomic<int> ok{0}, overloaded{0}, other{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < burst; ++c) {
        clients.emplace_back([this, &ok, &overloaded, &other]() {
            DjinnClient client;
            if (!connect(client).isOk()) {
                ++other;
                return;
            }
            auto result = client.infer("tiny", 1, {1, 2, 3, 4});
            if (result.isOk())
                ++ok;
            else if (result.status().code() ==
                     StatusCode::Overloaded)
                ++overloaded;
            else
                ++other;
        });
    }
    // Release the held forward once everything past the cap shed.
    (void)waitForMetric("djinn_shed_total",
                        {{"model", "tiny"}, {"reason", "queue_full"}},
                        burst - 4);
    hold_.open();
    held.join();
    for (auto &c : clients)
        c.join();
    EXPECT_EQ(other.load(), 0);
    EXPECT_EQ(ok.load() + overloaded.load(), burst);
    EXPECT_GT(overloaded.load(), 0)
        << "burst of 4x queue depth never shed";
    EXPECT_GE(metric("djinn_shed_total", {{"model", "tiny"},
                                          {"reason", "queue_full"}}),
              static_cast<double>(overloaded.load()));
    EXPECT_GE(metric("djinn_request_errors_total",
                     {{"reason", "overloaded"}}),
              static_cast<double>(overloaded.load()));

    // The same burst with retries enabled must fully succeed: an
    // Overloaded shed is explicitly safe to retry, and backoff
    // spreads the retries past the spike.
    std::atomic<int> retried_ok{0}, retried_fail{0};
    std::vector<std::thread> retry_clients;
    for (int c = 0; c < burst; ++c) {
        retry_clients.emplace_back(
            [this, c, &retried_ok, &retried_fail]() {
                DjinnClient client;
                RetryPolicy policy;
                policy.maxAttempts = 20;
                policy.initialBackoffSeconds = 0.02;
                policy.maxBackoffSeconds = 0.2;
                client.setRetryPolicy(policy);
                client.setRetrySeed(1000 + c);
                if (!connect(client).isOk()) {
                    ++retried_fail;
                    return;
                }
                if (client.infer("tiny", 1, {1, 2, 3, 4}).isOk())
                    ++retried_ok;
                else
                    ++retried_fail;
            });
    }
    for (auto &c : retry_clients)
        c.join();
    EXPECT_EQ(retried_ok.load(), burst);
    EXPECT_EQ(retried_fail.load(), 0);
}

TEST_F(RobustnessTest, DeadlineExpiredInQueueIsShedNotServed)
{
    // A 1 ms budget cannot survive queueing behind a forward held
    // in flight: the server must shed at dequeue (before the
    // forward pass) with DeadlineExceeded, and count the shed.
    ServerConfig config;
    config.batching = true;
    config.batchOptions.maxQueries = 64;
    startServer(config);

    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    std::thread held = holdForward();
    // Release once the query is queued and its budget is spent.
    std::thread release([this]() {
        (void)waitForMetric("djinn_batch_queue_depth",
                            {{"model", "tiny"}}, 1.0);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        hold_.open();
    });
    client.setDeadlineMs(1);
    auto result = client.infer("tiny", 1, {1, 2, 3, 4});
    release.join();
    held.join();
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::DeadlineExceeded);
    EXPECT_GE(metric("djinn_shed_total",
                     {{"model", "tiny"}, {"reason", "deadline"}}),
              1.0);
    // Its flight record still says why: the wait that spent the
    // budget.
    int shed = 0;
    for (const telemetry::FlightRecord &r :
         server_->flightRecorder().snapshot()) {
        if (r.outcome != telemetry::FlightOutcome::ShedDeadline)
            continue;
        ++shed;
        EXPECT_GT(r.queueWaitSeconds, 0.0);
    }
    EXPECT_EQ(shed, 1);

    // Without a deadline the same request completes.
    client.setDeadlineMs(0);
    EXPECT_TRUE(client.infer("tiny", 1, {1, 2, 3, 4}).isOk());
}

TEST_F(RobustnessTest, DeadlineTrailerAcceptedWithoutBatching)
{
    // An expired-on-arrival budget is hard to construct without
    // batching delay; instead verify a generous budget passes
    // through the non-batching path untouched.
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    client.setDeadlineMs(60000);
    EXPECT_TRUE(client.infer("tiny", 1, {1, 2, 3, 4}).isOk());
}

TEST_F(RobustnessTest, StopUnderLoadDrainsInflightResponses)
{
    // Acceptance: stop() during an in-flight request must flush
    // that request's response (drain), not cut the connection
    // under it. The request queues behind a forward held in flight,
    // which is released 30 ms into stop().
    ServerConfig config;
    config.batching = true;
    config.batchOptions.maxQueries = 64;
    config.drainTimeoutSeconds = 5.0;
    startServer(config);

    std::thread held = holdForward();
    std::atomic<bool> ok{false};
    std::thread inflight([this, &ok]() {
        DjinnClient client;
        if (!connect(client).isOk())
            return;
        auto result = client.infer("tiny", 1, {1, 2, 3, 4});
        ok.store(result.isOk());
    });
    EXPECT_TRUE(waitForMetric("djinn_batch_queue_depth",
                              {{"model", "tiny"}}, 1.0));
    std::thread release([this]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        hold_.open();
    });
    server_->stop();
    release.join();
    held.join();
    inflight.join();
    EXPECT_TRUE(ok.load())
        << "in-flight response dropped during stop()";
}

TEST_F(RobustnessTest, ControlVerbWhileDrainingIsOverloaded)
{
    // A draining server rejects every request with Overloaded (not
    // executed, safe to retry elsewhere), and the client reports
    // that status for control verbs as it does for inference.
    ServerConfig config;
    config.drainTimeoutSeconds = 5.0;
    startServer(config);
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    ASSERT_TRUE(client.ping().isOk());

    // The held forward keeps the drain waiting.
    std::thread held = holdForward();
    std::thread stopper([this]() { server_->stop(); });
    for (int i = 0; i < 5000 && !server_->draining(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(server_->draining());
    auto models = client.listModels();
    hold_.open();
    held.join();
    stopper.join();
    ASSERT_FALSE(models.isOk());
    EXPECT_EQ(models.status().code(), StatusCode::Overloaded)
        << models.status().toString();
}

TEST_F(RobustnessTest, OversizeFrameCountsProtocolError)
{
    // Satellite regression: oversized frames used to be dropped
    // silently; they must surface in djinn_protocol_errors.
    startServer();
    int fd = rawConnect();
    ASSERT_GE(fd, 0);
    // Length prefix claiming 1 GiB, over the server's cap.
    uint8_t header[4] = {0, 0, 0, 0x40};
    ASSERT_EQ(::write(fd, header, sizeof(header)), 4);
    EXPECT_TRUE(waitForMetric("djinn_protocol_errors",
                              {{"reason", "oversize"}}, 1.0));
    ::close(fd);
}

TEST_F(RobustnessTest, TruncatedFrameCountsProtocolError)
{
    startServer();
    int fd = rawConnect();
    ASSERT_GE(fd, 0);
    // Claim 100 bytes, deliver 10, close: a mid-frame truncation.
    uint8_t header[4] = {100, 0, 0, 0};
    uint8_t body[10] = {};
    ASSERT_EQ(::write(fd, header, sizeof(header)), 4);
    ASSERT_EQ(::write(fd, body, sizeof(body)), 10);
    ::close(fd);
    EXPECT_TRUE(waitForMetric("djinn_protocol_errors",
                              {{"reason", "truncated"}}, 1.0));
}

TEST_F(RobustnessTest, MalformedRequestCountsProtocolError)
{
    // A well-framed but undecodable payload (bad magic) counts
    // under the malformed reason and earns a BadRequest response.
    startServer();
    int fd = rawConnect();
    ASSERT_GE(fd, 0);
    FrameIo io(fd);
    ASSERT_TRUE(io.writeFrame({0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4})
                    .isOk());
    auto response = io.readFrame();
    ASSERT_TRUE(response.isOk());
    auto decoded = decodeResponse(response.value());
    ASSERT_TRUE(decoded.isOk());
    EXPECT_EQ(decoded.value().status, WireStatus::BadRequest);
    EXPECT_GE(metric("djinn_protocol_errors",
                     {{"reason", "malformed"}}),
              1.0);
    ::close(fd);
}

TEST_F(RobustnessTest, EachProtocolFaultCountsUnderItsReason)
{
    // One crafted frame per reason: three well-framed requests on
    // one connection (each answered BadRequest), then a length
    // prefix over the server's cap on another.
    startServer();
    Request ping;
    ping.type = RequestType::Ping;
    const std::vector<uint8_t> good = encodeRequest(ping);
    std::vector<uint8_t> trailing = good;
    trailing.push_back(0);
    std::vector<uint8_t> bad = good;
    bad[0] ^= 0xff;
    const std::vector<uint8_t> frames[] = {
        {good.begin(), good.end() - 1}, trailing, bad};
    int fd = rawConnect();
    ASSERT_GE(fd, 0);
    FrameIo io(fd);
    for (const std::vector<uint8_t> &frame : frames) {
        ASSERT_TRUE(io.writeFrame(frame).isOk());
        auto response = io.readFrame();
        ASSERT_TRUE(response.isOk());
        auto decoded = decodeResponse(response.value());
        ASSERT_TRUE(decoded.isOk());
        EXPECT_EQ(decoded.value().status, WireStatus::BadRequest);
    }
    ::close(fd);
    fd = rawConnect();
    ASSERT_GE(fd, 0);
    const uint8_t header[4] = {0, 0, 0, 0x40}; // 1 GiB
    ASSERT_EQ(::write(fd, header, sizeof(header)), 4);
    EXPECT_TRUE(waitForMetric("djinn_protocol_errors",
                              {{"reason", "oversize"}}, 1.0));
    ::close(fd);

    for (const char *reason :
         {"truncated", "trailing_bytes", "malformed", "oversize"}) {
        EXPECT_EQ(metric("djinn_protocol_errors", {{"reason", reason}}),
                  1.0)
            << reason;
    }
}

TEST_F(RobustnessTest, ServerFaultInjectionBreaksResponses)
{
    // The --fault plumbing end to end: a server injecting
    // mid-frame closes on its responses must produce truncated
    // frames at the client, not valid answers.
    ServerConfig config;
    config.faultSpec = "mid-frame-close";
    startServer(config);
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    auto result = client.infer("tiny", 1, {1, 2, 3, 4});
    EXPECT_FALSE(result.isOk());
}

TEST_F(RobustnessTest, ClientRequestTimeoutBoundsStalledServer)
{
    // A server stalling its responses (stall-after-header fault)
    // must not hang a client that set a request timeout.
    ServerConfig config;
    config.faultSpec = "stall-after-header";
    startServer(config);
    DjinnClient client;
    client.setRequestTimeout(0.1);
    ASSERT_TRUE(connect(client).isOk());
    auto start = std::chrono::steady_clock::now();
    auto result = client.infer("tiny", 1, {1, 2, 3, 4});
    double seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    EXPECT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::DeadlineExceeded);
    EXPECT_LT(seconds, 2.0);
}

TEST_F(RobustnessTest, ConnectTimeoutExpiresQuickly)
{
    // A listener whose accept queue is saturated stops answering
    // SYNs, so a further connect can only end via the client-side
    // timeout. (A blackhole address would be simpler but is not
    // reliable in every network environment.)
    int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(listener,
                            reinterpret_cast<sockaddr *>(&addr),
                            &len),
              0);
    ASSERT_EQ(::listen(listener, 0), 0);

    // Saturate the backlog with non-blocking connects that are
    // never accepted; once it is full the kernel drops new SYNs.
    std::vector<int> fillers;
    for (int i = 0; i < 8; ++i) {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        int flags = ::fcntl(fd, F_GETFL, 0);
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        (void)::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr));
        fillers.push_back(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    DjinnClient client;
    client.setConnectTimeout(0.1);
    auto start = std::chrono::steady_clock::now();
    Status s = client.connect("127.0.0.1", ntohs(addr.sin_port));
    double seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    for (int fd : fillers)
        ::close(fd);
    ::close(listener);
    if (s.isOk())
        GTEST_SKIP() << "kernel accepted past the backlog; cannot "
                        "force a connect stall here";
    EXPECT_EQ(s.code(), StatusCode::DeadlineExceeded)
        << s.toString();
    EXPECT_LT(seconds, 5.0);
}

TEST(HttpTimeout, StalledScraperGets408)
{
    // Slowloris defense: a scraper that never finishes its request
    // head must get 408 within the socket timeout instead of
    // wedging the single-threaded endpoint, and the timeout must
    // be counted.
    telemetry::MetricRegistry metrics;
    telemetry::Tracer tracer(1024);
    HttpEndpoint endpoint(
        DebugRoutes({.metrics = &metrics, .tracer = &tracer}));
    endpoint.setIoTimeout(0.1);
    ASSERT_TRUE(endpoint.start("127.0.0.1", 0).isOk());

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    // A partial request line and then silence.
    ASSERT_GT(::write(fd, "GET /heal", 9), 0);

    std::string reply;
    char buf[512];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            break;
        reply.append(buf, static_cast<size_t>(n));
    }
    EXPECT_NE(reply.find("408"), std::string::npos) << reply;
    ::close(fd);

    auto parsed = telemetry::parseExposition(
        telemetry::renderPrometheus(metrics.snapshot()));
    ASSERT_TRUE(parsed.isOk());
    auto count = telemetry::findSample(parsed.value(),
                                       "djinn_http_timeouts_total");
    ASSERT_TRUE(count.isOk());
    EXPECT_GE(count.value(), 1.0);

    // The endpoint still serves the next scrape.
    std::string content_type, body;
    EXPECT_EQ(endpoint.handle("/healthz", content_type, body), 200);
    endpoint.stop();
}

/**
 * Acceptor fd-exhaustion battery. Separate fixture name so the
 * TSan stage (which filters on *Robustness*) skips it: driving the
 * process against RLIMIT_NOFILE under TSan starves the runtime
 * itself.
 */
class AcceptLoopTest : public RobustnessTest
{};

TEST_F(AcceptLoopTest, SurvivesFdExhaustion)
{
    // Satellite regression: accept() returning EMFILE used to kill
    // the acceptor silently, leaving a listening socket that never
    // answers again. The acceptor must count the error, back off,
    // and serve the backlog once descriptors free up.
    startServer();
    DjinnClient before;
    ASSERT_TRUE(connect(before).isOk());
    ASSERT_TRUE(before.ping().isOk());

    // Reserve one spare descriptor for the client socket the test
    // will need after exhausting the table (server and test share
    // one process, so exhaustion hits both).
    int spare = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(spare, 0);

    // Exhaust the rest of the fd table with ballast so accept()
    // deterministically hits EMFILE for the next connection.
    std::vector<int> ballast;
    for (;;) {
        int fd = ::open("/dev/null", O_RDONLY);
        if (fd < 0)
            break;
        ballast.push_back(fd);
        if (ballast.size() > 65536)
            break; // effectively unbounded limit; give up
    }
    if (ballast.empty() || ballast.size() > 65536) {
        for (int fd : ballast)
            ::close(fd);
        ::close(spare);
        GTEST_SKIP() << "cannot exhaust RLIMIT_NOFILE here";
    }

    // Trade the spare for a client socket: the TCP handshake
    // completes in the kernel backlog without a server-side
    // accept, so this connect succeeds while accept() fails
    // EMFILE (the freed descriptor is consumed by this socket).
    ::close(spare);
    int pending = rawConnect();
    ASSERT_GE(pending, 0);

    EXPECT_TRUE(waitForMetric("djinn_accept_errors", {}, 1.0))
        << "accept() never reported fd exhaustion";
    EXPECT_TRUE(server_->running());

    // Free the ballast; the acceptor's retry must then accept the
    // pending connection and serve it.
    for (int fd : ballast)
        ::close(fd);
    ballast.clear();

    FrameIo io(pending);
    io.setTimeout(5.0);
    io.setIdleTimeout(5.0);
    Request ping;
    ping.type = RequestType::Ping;
    ASSERT_TRUE(io.writeFrame(encodeRequest(ping)).isOk());
    auto frame = io.readFrame();
    ASSERT_TRUE(frame.isOk()) << frame.status().toString();
    auto decoded = decodeResponse(frame.value());
    ASSERT_TRUE(decoded.isOk());
    EXPECT_EQ(decoded.value().message, "pong");
    ::close(pending);

    // The earlier connection kept working through the exhaustion.
    EXPECT_TRUE(before.ping().isOk());
}

TEST_F(AcceptLoopTest, HttpEndpointSurvivesFdExhaustion)
{
    // The scrape endpoint accepts through the same listener, so an
    // EMFILE there is counted and retried too instead of ending
    // the scrape acceptor for good. Lowering RLIMIT_NOFILE under
    // every free descriptor fails the acceptor's next accept()
    // (a thread already blocked in accept() holds its new fd's
    // number, so connection A may still get through first).
    ServerConfig config;
    config.httpPort = 0;
    // No sampler: nothing else in the process may need an fd while
    // the limit is down.
    config.samplerPeriod = 0.0;
    startServer(config);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->httpPort());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
    // Both client sockets exist before the limit drops.
    int a = ::socket(AF_INET, SOCK_STREAM, 0);
    int b = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    auto reply = [](int fd) {
        timeval tv{5, 0}; // an unserved scrape fails, not hangs
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        std::string out;
        char buf[4096];
        for (ssize_t n; (n = ::read(fd, buf, sizeof(buf))) > 0;)
            out.append(buf, static_cast<size_t>(n));
        ::close(fd);
        return out;
    };

    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit low = saved;
    low.rlim_cur = 3; // stdin, stdout and stderr only
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
    const bool sent =
        ::connect(a, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0 &&
        ::write(a, request, sizeof(request) - 1) > 0;
    const bool counted = waitForMetric("djinn_accept_errors", {}, 1.0);
    const bool queued = ::connect(b, reinterpret_cast<sockaddr *>(&addr),
                                  sizeof(addr)) == 0 &&
                        ::write(b, request, sizeof(request) - 1) > 0;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    EXPECT_TRUE(sent && queued);
    EXPECT_TRUE(counted) << "accept() never reported fd exhaustion";

    // With descriptors back, the acceptor's retries serve both.
    std::string first = reply(a);
    EXPECT_EQ(first.rfind("HTTP/1.0 200", 0), 0u) << first;
    std::string second = reply(b);
    EXPECT_EQ(second.rfind("HTTP/1.0 200", 0), 0u) << second;
    EXPECT_NE(second.find("djinn_accept_errors"), std::string::npos);
}

} // namespace
} // namespace core
} // namespace djinn
