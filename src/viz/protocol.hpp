// Wire protocol of the Active Visualization application (paper §2.1/§4.1).
//
// The client drives a request/reply loop: it opens an image session, then
// repeatedly requests the (growing) foveal square up to a resolution level;
// the server replies with the incremental wavelet tiles, compressed with
// the session codec.  A separate control message switches the compression
// type at run time — the transition action in Figure 2
// (`notify(env.server, new_control.c)`).
//
// Every message carries a `session_id` so one server endpoint loop can
// multiplex many concurrent client sessions (the multi-client regime the
// paper's evaluation hints at but the single-session seed could not
// simulate).  Session ids are client-chosen, non-zero, and unique per
// connection; the server echoes them on replies so a client can assert it
// is not reading another session's traffic.  `kError` replaces the old
// fatal server throw on per-session protocol violations: the offending
// session gets an error reply and every other session keeps streaming.
//
// A reply's 15 header bytes *trail* its tile payload, so decode_reply can
// strip them by shrinking the buffer it takes ownership of: the payload is
// copied once on the whole reply path (from the server's cached buffer
// into the message) and never moved again.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/link.hpp"

namespace avf::viz {

enum MsgKind : int {
  kOpenImage = 1,  ///< client->server: session_id, image_id, level, codec
  kOpenAck = 2,    ///< server->client: session_id, width, height, levels
  kRequest = 3,    ///< client->server: session_id, cx, cy, half, level
  kReply = 4,      ///< server->client: tiles, then session_id/flags/lengths
  kSetCodec = 5,   ///< client->server control: session_id, codec
  kShutdown = 6,   ///< stop the server loop for this endpoint
  kError = 7,      ///< server->client: session_id, error code (session survives)
};

/// Per-session error codes carried in ErrorReply.
enum class ErrorCode : std::uint8_t {
  kNoSession = 1,     ///< request/control for a session never opened
  kUnknownImage = 2,  ///< open for an image id the server does not serve
  kBadMessage = 3,    ///< known kind, malformed payload
};

struct OpenImage {
  std::uint32_t session_id = 0;
  std::uint32_t image_id = 0;
  std::uint8_t level = 0;
  std::uint8_t codec = 0;
};

struct OpenAck {
  std::uint32_t session_id = 0;
  std::uint16_t width = 0;
  std::uint16_t height = 0;
  std::uint8_t levels = 0;
};

struct Request {
  std::uint32_t session_id = 0;
  std::uint16_t cx = 0;
  std::uint16_t cy = 0;
  std::uint16_t half = 0;
  std::uint8_t level = 0;
};

struct Reply {
  std::uint32_t session_id = 0;
  bool complete = false;       ///< everything for this level has been sent
  std::uint8_t codec = 0;
  bool premeasured = false;    ///< payload is raw; wire size was overridden
  std::uint32_t raw_len = 0;   ///< decompressed payload length
  std::uint32_t wire_len = 0;  ///< compressed length actually charged
  std::vector<std::uint8_t> payload;
};

struct SetCodec {
  std::uint32_t session_id = 0;
  std::uint8_t codec = 0;
};

struct ErrorReply {
  std::uint32_t session_id = 0;  ///< 0 when the session could not be parsed
  ErrorCode code = ErrorCode::kBadMessage;
};

// -- encode/decode to sim::Message ---------------------------------------
// Throws std::runtime_error on malformed/mismatched messages.

sim::Message encode(const OpenImage& m);
sim::Message encode(const OpenAck& m);
sim::Message encode(const Request& m);
sim::Message encode(const Reply& m);
/// Encode `m`'s header fields around `payload` as the reply body
/// (m.payload is ignored): the server ships a cached buffer this way
/// without first copying it into a Reply.
sim::Message encode(const Reply& m, std::span<const std::uint8_t> payload);
sim::Message encode(const SetCodec& m);
sim::Message encode(const ErrorReply& m);
sim::Message encode_shutdown();

OpenImage decode_open_image(const sim::Message& m);
OpenAck decode_open_ack(const sim::Message& m);
Request decode_request(const sim::Message& m);
Reply decode_reply(sim::Message m);  // reuses the message's buffer
SetCodec decode_set_codec(const sim::Message& m);
ErrorReply decode_error(const sim::Message& m);

}  // namespace avf::viz
