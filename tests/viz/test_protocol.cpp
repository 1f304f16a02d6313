#include "viz/protocol.hpp"

#include <gtest/gtest.h>

namespace avf::viz {
namespace {

TEST(Protocol, OpenImageRoundTrip) {
  OpenImage m{.session_id = 7, .image_id = 12345, .level = 4, .codec = 2};
  OpenImage back = decode_open_image(encode(m));
  EXPECT_EQ(back.session_id, 7u);
  EXPECT_EQ(back.image_id, 12345u);
  EXPECT_EQ(back.level, 4);
  EXPECT_EQ(back.codec, 2);
}

TEST(Protocol, OpenAckRoundTrip) {
  OpenAck m{.session_id = 3, .width = 1024, .height = 768, .levels = 4};
  OpenAck back = decode_open_ack(encode(m));
  EXPECT_EQ(back.session_id, 3u);
  EXPECT_EQ(back.width, 1024);
  EXPECT_EQ(back.height, 768);
  EXPECT_EQ(back.levels, 4);
}

TEST(Protocol, RequestRoundTrip) {
  Request m{
      .session_id = 42, .cx = 512, .cy = 600, .half = 320, .level = 3};
  Request back = decode_request(encode(m));
  EXPECT_EQ(back.session_id, 42u);
  EXPECT_EQ(back.cx, 512);
  EXPECT_EQ(back.cy, 600);
  EXPECT_EQ(back.half, 320);
  EXPECT_EQ(back.level, 3);
}

TEST(Protocol, ReplyRoundTrip) {
  Reply m;
  m.session_id = 9;
  m.complete = true;
  m.codec = 1;
  m.premeasured = false;
  m.raw_len = 100000;
  m.wire_len = 55000;
  m.payload = {1, 2, 3, 4, 5};
  sim::Message wire = encode(m);
  EXPECT_EQ(wire.wire_size_override, 0u);  // real payload: no override
  Reply back = decode_reply(std::move(wire));
  EXPECT_EQ(back.session_id, 9u);
  EXPECT_TRUE(back.complete);
  EXPECT_EQ(back.codec, 1);
  EXPECT_EQ(back.raw_len, 100000u);
  EXPECT_EQ(back.wire_len, 55000u);
  EXPECT_EQ(back.payload, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(Protocol, PremeasuredReplyOverridesWireSize) {
  Reply m;
  m.premeasured = true;
  m.raw_len = 1000;
  m.wire_len = 400;
  m.payload.assign(1000, 7);  // raw bytes shipped
  sim::Message wire = encode(m);
  // Charged as compressed size + protocol header (session_id + flags +
  // lengths = 15 bytes) + frame header.
  EXPECT_EQ(wire.wire_size_override,
            400u + 15u + sim::kMessageHeaderBytes);
  EXPECT_EQ(wire.wire_size(), wire.wire_size_override);
  Reply back = decode_reply(std::move(wire));
  EXPECT_TRUE(back.premeasured);
  EXPECT_EQ(back.payload.size(), 1000u);
}

TEST(Protocol, ReplyHeaderTrailsPayload) {
  // The server encodes from a separate buffer; the bytes match encoding a
  // Reply that carries the payload, and the header is stripped by length.
  Reply m;
  m.session_id = 3;
  m.raw_len = 4;
  std::vector<std::uint8_t> body = {9, 8, 7, 6};
  sim::Message from_span = encode(m, body);
  m.payload = body;
  EXPECT_EQ(from_span.payload, encode(m).payload);
  EXPECT_EQ(decode_reply(std::move(from_span)).payload, body);

  // An empty body is exactly the header; one byte less is truncated.
  sim::Message empty = encode(Reply{.session_id = 5});
  EXPECT_EQ(empty.payload.size(), 15u);
  sim::Message cut = empty;
  Reply back = decode_reply(std::move(empty));
  EXPECT_EQ(back.session_id, 5u);
  EXPECT_TRUE(back.payload.empty());
  cut.payload.pop_back();
  EXPECT_THROW(decode_reply(std::move(cut)), std::runtime_error);
}

TEST(Protocol, SetCodecRoundTrip) {
  SetCodec back =
      decode_set_codec(encode(SetCodec{.session_id = 5, .codec = 2}));
  EXPECT_EQ(back.session_id, 5u);
  EXPECT_EQ(back.codec, 2);
}

TEST(Protocol, ErrorReplyRoundTrip) {
  ErrorReply m{.session_id = 17, .code = ErrorCode::kNoSession};
  sim::Message wire = encode(m);
  EXPECT_EQ(wire.kind, kError);
  ErrorReply back = decode_error(wire);
  EXPECT_EQ(back.session_id, 17u);
  EXPECT_EQ(back.code, ErrorCode::kNoSession);
}

TEST(Protocol, ErrorReplyTruncatedThrows) {
  sim::Message wire =
      encode(ErrorReply{.session_id = 1, .code = ErrorCode::kBadMessage});
  wire.payload.pop_back();
  EXPECT_THROW(decode_error(wire), std::runtime_error);
}

TEST(Protocol, KindMismatchThrows) {
  sim::Message m = encode(SetCodec{.codec = 1});
  EXPECT_THROW(decode_request(m), std::runtime_error);
  EXPECT_THROW(decode_open_image(m), std::runtime_error);
}

TEST(Protocol, TruncatedPayloadThrows) {
  sim::Message m = encode(Request{.cx = 1, .cy = 2, .half = 3, .level = 4});
  m.payload.pop_back();
  EXPECT_THROW(decode_request(m), std::runtime_error);
}

TEST(Protocol, TrailingBytesThrow) {
  sim::Message m = encode(SetCodec{.codec = 1});
  m.payload.push_back(0);
  EXPECT_THROW(decode_set_codec(m), std::runtime_error);
}

TEST(Protocol, ShutdownHasNoPayload) {
  sim::Message m = encode_shutdown();
  EXPECT_EQ(m.kind, kShutdown);
  EXPECT_TRUE(m.payload.empty());
}

}  // namespace
}  // namespace avf::viz
