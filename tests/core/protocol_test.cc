#include "core/protocol.hh"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <thread>

namespace djinn {
namespace core {
namespace {

TEST(Protocol, RequestRoundTrip)
{
    Request request;
    request.type = RequestType::Inference;
    request.model = "alexnet";
    request.rows = 2;
    request.payload = {1.0f, 2.5f, -3.0f, 0.0f};

    auto bytes = encodeRequest(request);
    auto decoded = decodeRequest(bytes);
    ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
    const Request &r = decoded.value();
    EXPECT_EQ(r.type, RequestType::Inference);
    EXPECT_EQ(r.model, "alexnet");
    EXPECT_EQ(r.rows, 2u);
    ASSERT_EQ(r.payload.size(), 4u);
    EXPECT_FLOAT_EQ(r.payload[1], 2.5f);
    EXPECT_FLOAT_EQ(r.payload[2], -3.0f);
}

TEST(Protocol, ResponseRoundTrip)
{
    Response response;
    response.status = WireStatus::UnknownModel;
    response.message = "unknown model 'x'";
    response.payload = {0.25f};

    auto bytes = encodeResponse(response);
    auto decoded = decodeResponse(bytes);
    ASSERT_TRUE(decoded.isOk());
    EXPECT_EQ(decoded.value().status, WireStatus::UnknownModel);
    EXPECT_EQ(decoded.value().message, "unknown model 'x'");
    ASSERT_EQ(decoded.value().payload.size(), 1u);
}

TEST(Protocol, EmptyPayloadAllowed)
{
    Request request;
    request.type = RequestType::Ping;
    auto decoded = decodeRequest(encodeRequest(request));
    ASSERT_TRUE(decoded.isOk());
    EXPECT_TRUE(decoded.value().payload.empty());
}

TEST(Protocol, RejectsBadMagic)
{
    auto bytes = encodeRequest(Request{});
    bytes[0] ^= 0xff;
    auto decoded = decodeRequest(bytes);
    ASSERT_FALSE(decoded.isOk());
    EXPECT_EQ(decoded.status().code(), StatusCode::ProtocolError);
}

TEST(Protocol, RejectsBadVersion)
{
    auto bytes = encodeRequest(Request{});
    bytes[4] = 0x77;
    EXPECT_FALSE(decodeRequest(bytes).isOk());
}

TEST(Protocol, RejectsUnknownType)
{
    auto bytes = encodeRequest(Request{});
    bytes[6] = 0x42;
    EXPECT_FALSE(decodeRequest(bytes).isOk());
}

TEST(Protocol, RejectsTruncatedFrames)
{
    Request request;
    request.type = RequestType::Inference;
    request.model = "m";
    request.rows = 1;
    request.payload = {1, 2, 3};
    auto bytes = encodeRequest(request);
    for (size_t cut : {size_t(3), size_t(9), bytes.size() - 1}) {
        std::vector<uint8_t> partial(bytes.begin(),
                                     bytes.begin() + cut);
        EXPECT_FALSE(decodeRequest(partial).isOk())
            << "cut at " << cut;
    }
}

TEST(Protocol, RejectsTrailingGarbage)
{
    auto bytes = encodeRequest(Request{});
    bytes.push_back(0xab);
    EXPECT_FALSE(decodeRequest(bytes).isOk());
}

TEST(Protocol, RejectsOversizeModelName)
{
    auto bytes = encodeRequest(Request{});
    // Patch the name length field (offset 8) to a huge value.
    bytes[8] = 0xff;
    bytes[9] = 0xff;
    bytes[10] = 0xff;
    bytes[11] = 0x7f;
    EXPECT_FALSE(decodeRequest(bytes).isOk());
}

TEST(Protocol, ErrorsCarryTheirFault)
{
    // The fault travels in the status, not in the message's words.
    Request request;
    request.type = RequestType::Ping;
    auto bytes = encodeRequest(request);
    std::vector<uint8_t> trailing = bytes;
    trailing.push_back(0);
    std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 1);
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_EQ(protocolFaultOf(decodeRequest(trailing).status()),
              ProtocolFault::TrailingBytes);
    EXPECT_EQ(protocolFaultOf(decodeRequest(cut).status()),
              ProtocolFault::Truncated);
    EXPECT_EQ(protocolFaultOf(decodeRequest(bad).status()),
              ProtocolFault::Malformed);
    EXPECT_EQ(protocolFaultOf(Status::protocolError("truncated file")),
              ProtocolFault::Malformed);
    EXPECT_EQ(protocolFaultOf(Status::ioError("frame too large")),
              ProtocolFault::Malformed);

    EXPECT_STREQ(protocolFaultName(ProtocolFault::Malformed),
                 "malformed");
    EXPECT_STREQ(protocolFaultName(ProtocolFault::Truncated),
                 "truncated");
    EXPECT_STREQ(protocolFaultName(ProtocolFault::Oversize), "oversize");
    EXPECT_STREQ(protocolFaultName(ProtocolFault::TrailingBytes),
                 "trailing_bytes");
}

TEST(Protocol, UntracedRequestEncodesAsVersionOne)
{
    // Backward compatibility: a request without a trace context
    // must emit the original v1 frame, byte for byte — an old
    // server never sees the v2 trailer.
    Request request;
    request.type = RequestType::Inference;
    request.model = "m";
    request.rows = 1;
    request.payload = {1.0f};
    auto bytes = encodeRequest(request);
    EXPECT_EQ(bytes[4], protocolVersion & 0xff);
    EXPECT_EQ(bytes[5], (protocolVersion >> 8) & 0xff);

    auto decoded = decodeRequest(bytes);
    ASSERT_TRUE(decoded.isOk());
    EXPECT_FALSE(decoded.value().trace.valid());
}

TEST(Protocol, TracedRequestRoundTripsTraceContext)
{
    Request request;
    request.type = RequestType::Inference;
    request.model = "alexnet";
    request.rows = 1;
    request.payload = {0.5f, 0.25f};
    request.trace = telemetry::makeTraceContext();

    auto bytes = encodeRequest(request);
    EXPECT_EQ(bytes[4], protocolVersionTraced & 0xff);

    auto decoded = decodeRequest(bytes);
    ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
    const Request &r = decoded.value();
    EXPECT_EQ(r.model, "alexnet");
    ASSERT_EQ(r.payload.size(), 2u);
    EXPECT_TRUE(r.trace.valid());
    EXPECT_TRUE(r.trace.sampled());
    EXPECT_EQ(r.trace.traceId, request.trace.traceId);
    EXPECT_EQ(r.trace.spanId, request.trace.spanId);
    EXPECT_EQ(r.trace.flags, request.trace.flags);
}

TEST(Protocol, TracedEncodingOnlyAppendsTrailer)
{
    // The v2 frame is the v1 frame plus 17 trailer bytes and the
    // bumped version field — nothing else moves, so a v1 decoder's
    // view of the shared prefix is unchanged.
    Request request;
    request.type = RequestType::Inference;
    request.model = "m";
    request.rows = 1;
    request.payload = {1.0f, 2.0f};
    auto v1 = encodeRequest(request);
    request.trace = telemetry::makeTraceContext();
    auto v2 = encodeRequest(request);

    ASSERT_EQ(v2.size(), v1.size() + 17);
    for (size_t i = 6; i < v1.size(); ++i)
        EXPECT_EQ(v2[i], v1[i]) << "offset " << i;
}

TEST(Protocol, RejectsTruncatedTraceTrailer)
{
    Request request;
    request.type = RequestType::Inference;
    request.model = "m";
    request.rows = 1;
    request.payload = {1.0f};
    request.trace = telemetry::makeTraceContext();
    auto bytes = encodeRequest(request);
    for (size_t drop = 1; drop <= 16; drop += 5) {
        std::vector<uint8_t> partial(bytes.begin(),
                                     bytes.end() - drop);
        EXPECT_FALSE(decodeRequest(partial).isOk())
            << "dropped " << drop;
    }
}

TEST(Protocol, DeadlineRequestRoundTrips)
{
    Request request;
    request.type = RequestType::Inference;
    request.model = "alexnet";
    request.rows = 1;
    request.payload = {0.5f};
    request.deadlineMs = 250;

    auto bytes = encodeRequest(request);
    EXPECT_EQ(bytes[4], protocolVersionDeadline & 0xff);

    auto decoded = decodeRequest(bytes);
    ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
    EXPECT_EQ(decoded.value().deadlineMs, 250u);
    // The v3 trace block is present but all-zero for an untraced
    // request, and must not decode as a valid context.
    EXPECT_FALSE(decoded.value().trace.valid());
}

TEST(Protocol, DeadlineAndTraceRoundTripTogether)
{
    Request request;
    request.type = RequestType::Inference;
    request.model = "m";
    request.rows = 1;
    request.payload = {1.0f};
    request.trace = telemetry::makeTraceContext();
    request.deadlineMs = 75;

    auto decoded = decodeRequest(encodeRequest(request));
    ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
    EXPECT_EQ(decoded.value().deadlineMs, 75u);
    EXPECT_TRUE(decoded.value().trace.valid());
    EXPECT_EQ(decoded.value().trace.traceId,
              request.trace.traceId);
}

TEST(Protocol, DeadlineEncodingOnlyAppendsTrailer)
{
    // The v3 frame is the v2 frame plus the 4-byte deadline block
    // and the bumped version field: a v1/v2 decoder's view of the
    // shared prefix is unchanged (back-compat battery across the
    // three versions).
    Request request;
    request.type = RequestType::Inference;
    request.model = "m";
    request.rows = 1;
    request.payload = {1.0f, 2.0f};
    auto v1 = encodeRequest(request);
    request.trace = telemetry::makeTraceContext();
    auto v2 = encodeRequest(request);
    request.deadlineMs = 1000;
    auto v3 = encodeRequest(request);

    ASSERT_EQ(v2.size(), v1.size() + 17);
    ASSERT_EQ(v3.size(), v2.size() + 4);
    for (size_t i = 6; i < v1.size(); ++i)
        EXPECT_EQ(v3[i], v1[i]) << "offset " << i;
    for (size_t i = 6; i < v2.size(); ++i)
        EXPECT_EQ(v3[i], v2[i]) << "offset " << i;
}

TEST(Protocol, ZeroDeadlineStaysVersionOne)
{
    // No deadline and no trace must keep the frame byte-identical
    // to v1 so old servers keep working.
    Request request;
    request.type = RequestType::Inference;
    request.model = "m";
    request.rows = 1;
    request.payload = {1.0f};
    request.deadlineMs = 0;
    auto bytes = encodeRequest(request);
    EXPECT_EQ(bytes[4], protocolVersion & 0xff);
}

TEST(Protocol, RejectsTruncatedDeadlineBlock)
{
    Request request;
    request.type = RequestType::Inference;
    request.model = "m";
    request.rows = 1;
    request.payload = {1.0f};
    request.deadlineMs = 42;
    auto bytes = encodeRequest(request);
    for (size_t drop = 1; drop <= 4; ++drop) {
        std::vector<uint8_t> partial(bytes.begin(),
                                     bytes.end() - drop);
        EXPECT_FALSE(decodeRequest(partial).isOk())
            << "dropped " << drop;
    }
}

TEST(Protocol, OverloadedResponseRoundTrips)
{
    Response response;
    response.status = WireStatus::Overloaded;
    response.message = "model 'm' queue full (64 queued)";
    auto decoded = decodeResponse(encodeResponse(response));
    ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
    EXPECT_EQ(decoded.value().status, WireStatus::Overloaded);
    EXPECT_EQ(decoded.value().message, response.message);
}

TEST(Protocol, DeadlineExceededResponseRoundTrips)
{
    Response response;
    response.status = WireStatus::DeadlineExceeded;
    response.message = "deadline expired before forward pass";
    auto decoded = decodeResponse(encodeResponse(response));
    ASSERT_TRUE(decoded.isOk());
    EXPECT_EQ(decoded.value().status,
              WireStatus::DeadlineExceeded);
}

TEST(Protocol, ResponseRejectsBadStatus)
{
    auto bytes = encodeResponse(Response{});
    bytes[6] = 0x63; // status 99
    EXPECT_FALSE(decodeResponse(bytes).isOk());
}

TEST(Protocol, RequestAndResponseMagicsDiffer)
{
    auto req = encodeRequest(Request{});
    EXPECT_FALSE(decodeResponse(req).isOk());
    auto resp = encodeResponse(Response{});
    EXPECT_FALSE(decodeRequest(resp).isOk());
}

TEST(FrameIo, RoundTripOverSocketPair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameIo a(fds[0]), b(fds[1]);

    std::vector<uint8_t> frame{1, 2, 3, 4, 5};
    ASSERT_TRUE(a.writeFrame(frame).isOk());
    auto got = b.readFrame();
    ASSERT_TRUE(got.isOk());
    EXPECT_EQ(got.value(), frame);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FrameIo, EmptyFrameRoundTrips)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameIo a(fds[0]), b(fds[1]);
    ASSERT_TRUE(a.writeFrame({}).isOk());
    auto got = b.readFrame();
    ASSERT_TRUE(got.isOk());
    EXPECT_TRUE(got.value().empty());
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FrameIo, LargeFrameRoundTrips)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::vector<uint8_t> frame(1 << 20);
    for (size_t i = 0; i < frame.size(); ++i)
        frame[i] = static_cast<uint8_t>(i * 31);
    // Write from a thread so the pipe buffer can drain.
    std::thread writer([&]() {
        FrameIo a(fds[0]);
        ASSERT_TRUE(a.writeFrame(frame).isOk());
    });
    FrameIo b(fds[1]);
    auto got = b.readFrame();
    writer.join();
    ASSERT_TRUE(got.isOk());
    EXPECT_EQ(got.value(), frame);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FrameIo, RejectsFrameOverLimit)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameIo a(fds[0]), b(fds[1]);
    std::vector<uint8_t> frame(1024);
    ASSERT_TRUE(a.writeFrame(frame).isOk());
    auto got = b.readFrame(512);
    EXPECT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::ProtocolError);
    EXPECT_EQ(protocolFaultOf(got.status()), ProtocolFault::Oversize);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(FrameIo, PeerCloseReportsIoError)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[0]);
    FrameIo b(fds[1]);
    auto got = b.readFrame();
    EXPECT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::IoError);
    ::close(fds[1]);
}

} // namespace
} // namespace core
} // namespace djinn
