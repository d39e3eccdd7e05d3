// Wire-protocol robustness: header validation, payload codecs, the
// incremental FrameReader fed at every possible byte boundary, the
// blocking Connection reading frames off a real socket, and a
// deterministic malformed-frame fuzz that must never crash or accept a
// corrupted frame.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/frame.h"
#include "net/stream.h"
#include "stats/rng.h"
#include "trace/store_io.h"

namespace locpriv::net {
namespace {

std::vector<std::uint8_t> frame_of(FrameType type, const std::string& payload) {
  std::vector<std::uint8_t> out;
  encode_frame(type, payload, out);
  return out;
}

TEST(NetFrame, HeaderRoundTrip) {
  const std::vector<std::uint8_t> buf = frame_of(FrameType::kTelemetryReq, "hello");
  ASSERT_EQ(buf.size(), kFrameHeaderBytes + 5);
  FrameError err = FrameError::kNone;
  const auto h = decode_header(buf.data(), buf.size(), &err);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->type, FrameType::kTelemetryReq);
  EXPECT_EQ(h->payload_len, 5u);
  EXPECT_TRUE(payload_checksum_ok(*h, buf.data() + kFrameHeaderBytes, 5));
  EXPECT_EQ(err, FrameError::kNone);
}

TEST(NetFrame, ChecksumIsFnv1aOverPayload) {
  const std::string payload = "checksum me";
  const std::vector<std::uint8_t> buf = frame_of(FrameType::kError, payload);
  const auto h = decode_header(buf.data(), buf.size());
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->checksum, trace::fnv1a64(payload.data(), payload.size()));
}

TEST(NetFrame, HeaderRejectsBadMagic) {
  std::vector<std::uint8_t> buf = frame_of(FrameType::kSubmit, "x");
  buf[0] ^= 0xff;
  FrameError err = FrameError::kNone;
  EXPECT_FALSE(decode_header(buf.data(), buf.size(), &err).has_value());
  EXPECT_EQ(err, FrameError::kBadMagic);
}

TEST(NetFrame, HeaderRejectsBadVersion) {
  std::vector<std::uint8_t> buf = frame_of(FrameType::kSubmit, "x");
  buf[4] = kProtocolVersion + 1;
  FrameError err = FrameError::kNone;
  EXPECT_FALSE(decode_header(buf.data(), buf.size(), &err).has_value());
  EXPECT_EQ(err, FrameError::kBadVersion);
}

TEST(NetFrame, HeaderRejectsUnknownType) {
  std::vector<std::uint8_t> buf = frame_of(FrameType::kSubmit, "x");
  buf[5] = 0xee;
  FrameError err = FrameError::kNone;
  EXPECT_FALSE(decode_header(buf.data(), buf.size(), &err).has_value());
  EXPECT_EQ(err, FrameError::kBadType);
}

TEST(NetFrame, HeaderRejectsOversizedPayload) {
  std::vector<std::uint8_t> buf = frame_of(FrameType::kSubmit, "x");
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(buf.data() + 8, &huge, sizeof huge);  // payload_len field
  FrameError err = FrameError::kNone;
  EXPECT_FALSE(decode_header(buf.data(), buf.size(), &err).has_value());
  EXPECT_EQ(err, FrameError::kOversized);
}

TEST(NetFrame, CorruptedPayloadFailsChecksum) {
  std::vector<std::uint8_t> buf = frame_of(FrameType::kAnswer, "payload bytes");
  const auto h = decode_header(buf.data(), buf.size());
  ASSERT_TRUE(h.has_value());
  buf[kFrameHeaderBytes + 3] ^= 0x01;
  EXPECT_FALSE(payload_checksum_ok(*h, buf.data() + kFrameHeaderBytes, h->payload_len));
}

TEST(NetFrame, SubmitRoundTrip) {
  SubmitPayload p;
  p.tag = 0xdeadbeefcafef00dULL;
  p.user_id = "cab-042 \xc3\xa9";  // non-ASCII ids must survive verbatim
  p.event.time = -1234567890123LL;
  p.event.location = {-1.5e300, 4.25};
  std::vector<std::uint8_t> buf;
  encode_submit(p, buf);
  const auto back = decode_submit(buf.data(), buf.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->tag, p.tag);
  EXPECT_EQ(back->user_id, p.user_id);
  EXPECT_EQ(back->event.time, p.event.time);
  EXPECT_EQ(back->event.location.x, p.event.location.x);
  EXPECT_EQ(back->event.location.y, p.event.location.y);
}

TEST(NetFrame, SubmitRejectsEmptyUserAndTrailingBytes) {
  SubmitPayload p;
  p.user_id = "u";
  std::vector<std::uint8_t> buf;
  encode_submit(p, buf);
  std::vector<std::uint8_t> longer = buf;
  longer.push_back(0);
  EXPECT_FALSE(decode_submit(longer.data(), longer.size()).has_value());
  EXPECT_FALSE(decode_submit(buf.data(), buf.size() - 1).has_value());

  SubmitPayload empty;
  empty.user_id = "";
  std::vector<std::uint8_t> ebuf;
  encode_submit(empty, ebuf);
  EXPECT_FALSE(decode_submit(ebuf.data(), ebuf.size()).has_value());
}

TEST(NetFrame, AnswerRoundTripAllStatuses) {
  for (const service::ReportStatus status :
       {service::ReportStatus::delivered, service::ReportStatus::suppressed_budget,
        service::ReportStatus::rejected_queue_full, service::ReportStatus::degraded_suppressed,
        service::ReportStatus::degraded_fallback}) {
    AnswerPayload a;
    a.tag = 7;
    a.user_id = "rider";
    a.seq = 99;
    a.status = status;
    a.downstream_attempts = 3;
    if (status == service::ReportStatus::delivered) {
      a.protected_event = trace::Event{42, {100.0, -200.0}};
    }
    std::vector<std::uint8_t> buf;
    encode_answer(a, buf);
    const auto back = decode_answer(buf.data(), buf.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->tag, a.tag);
    EXPECT_EQ(back->user_id, a.user_id);
    EXPECT_EQ(back->seq, a.seq);
    EXPECT_EQ(back->status, a.status);
    EXPECT_EQ(back->downstream_attempts, a.downstream_attempts);
    EXPECT_EQ(back->protected_event.has_value(), a.protected_event.has_value());
    if (back->protected_event) {
      EXPECT_EQ(back->protected_event->time, a.protected_event->time);
      EXPECT_EQ(back->protected_event->location.x, a.protected_event->location.x);
    }
  }
}

TEST(NetFrame, AnswerRejectsStatusOutOfRange) {
  AnswerPayload a;
  a.user_id = "u";
  std::vector<std::uint8_t> buf;
  encode_answer(a, buf);
  buf[16] = 250;  // status byte, way past the enum
  EXPECT_FALSE(decode_answer(buf.data(), buf.size()).has_value());
}

TEST(NetFrame, ReaderParsesConcatenatedFrames) {
  std::vector<std::uint8_t> stream = frame_of(FrameType::kSubmit, "one");
  const std::vector<std::uint8_t> second = frame_of(FrameType::kAnswer, "two");
  stream.insert(stream.end(), second.begin(), second.end());

  FrameReader reader;
  reader.feed(stream.data(), stream.size());
  Frame f;
  ASSERT_EQ(reader.next(f), FrameReader::Result::kFrame);
  EXPECT_EQ(f.type, FrameType::kSubmit);
  EXPECT_EQ(std::string(f.payload.begin(), f.payload.end()), "one");
  ASSERT_EQ(reader.next(f), FrameReader::Result::kFrame);
  EXPECT_EQ(f.type, FrameType::kAnswer);
  EXPECT_EQ(std::string(f.payload.begin(), f.payload.end()), "two");
  EXPECT_EQ(reader.next(f), FrameReader::Result::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

// The partial-read guarantee: no matter where the kernel splits the
// byte stream, the reader reassembles the same frames. Split a
// three-frame stream at EVERY byte boundary.
TEST(NetFrame, ReaderHandlesEveryByteSplit) {
  std::vector<std::uint8_t> stream;
  encode_frame(FrameType::kSubmit, "alpha", stream);
  encode_frame(FrameType::kTelemetryReply, std::string(300, 'x'), stream);
  encode_frame(FrameType::kDrainReply, "", stream);

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameReader reader;
    reader.feed(stream.data(), split);
    std::vector<Frame> got;
    Frame f;
    while (reader.next(f) == FrameReader::Result::kFrame) got.push_back(f);
    reader.feed(stream.data() + split, stream.size() - split);
    while (reader.next(f) == FrameReader::Result::kFrame) got.push_back(f);

    ASSERT_EQ(got.size(), 3u) << "split at byte " << split;
    EXPECT_EQ(got[0].type, FrameType::kSubmit);
    EXPECT_EQ(got[0].payload.size(), 5u);
    EXPECT_EQ(got[1].type, FrameType::kTelemetryReply);
    EXPECT_EQ(got[1].payload.size(), 300u);
    EXPECT_EQ(got[2].type, FrameType::kDrainReply);
    EXPECT_TRUE(got[2].payload.empty());
    EXPECT_EQ(reader.buffered(), 0u) << "split at byte " << split;
  }
}

TEST(NetFrame, ReaderLatchesBadAfterFramingLoss) {
  std::vector<std::uint8_t> stream = frame_of(FrameType::kSubmit, "ok");
  stream[1] ^= 0x55;  // magic corrupted: framing is unrecoverable
  FrameReader reader;
  reader.feed(stream.data(), stream.size());
  Frame f;
  EXPECT_EQ(reader.next(f), FrameReader::Result::kBad);
  EXPECT_EQ(reader.error(), FrameError::kBadMagic);
  // More bytes (even a pristine frame) cannot resynchronize the stream.
  const std::vector<std::uint8_t> fine = frame_of(FrameType::kAnswer, "later");
  reader.feed(fine.data(), fine.size());
  EXPECT_EQ(reader.next(f), FrameReader::Result::kBad);
}

TEST(NetFrame, ReaderRejectsCorruptPayloadChecksum) {
  std::vector<std::uint8_t> stream = frame_of(FrameType::kReload, "spec");
  stream[kFrameHeaderBytes] ^= 0x80;
  FrameReader reader;
  reader.feed(stream.data(), stream.size());
  Frame f;
  EXPECT_EQ(reader.next(f), FrameReader::Result::kBad);
  EXPECT_EQ(reader.error(), FrameError::kBadChecksum);
}

/// A Connection adopting one end of a socketpair; the test writes raw
/// bytes into the other end.
struct SocketPairConnection {
  Connection conn;
  Fd peer;

  SocketPairConnection() {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
    conn.adopt(Fd(sv[0]));
    peer.reset(sv[1]);
  }
  bool write(const std::uint8_t* data, std::size_t len) {
    return write_all(peer.get(), data, len);
  }
};

TEST(NetFrame, ConnectionRecvOverSocketPair) {
  Frame f;
  {
    // Three frames in one write come back one recv at each, then a
    // close between frames is a clean EOF.
    SocketPairConnection sp;
    std::vector<std::uint8_t> three = frame_of(FrameType::kSubmit, "one");
    encode_frame(FrameType::kAnswer, std::string(300, 'x'), three);
    encode_frame(FrameType::kDrainReply, std::string(), three);
    ASSERT_TRUE(sp.write(three.data(), three.size()));
    ASSERT_TRUE(sp.conn.recv(f)) << sp.conn.error();
    EXPECT_EQ(f.type, FrameType::kSubmit);
    EXPECT_EQ(std::string(f.payload.begin(), f.payload.end()), "one");
    ASSERT_TRUE(sp.conn.recv(f)) << sp.conn.error();
    EXPECT_EQ(f.type, FrameType::kAnswer);
    EXPECT_EQ(f.payload.size(), 300u);
    ASSERT_TRUE(sp.conn.recv(f)) << sp.conn.error();
    EXPECT_EQ(f.type, FrameType::kDrainReply);
    EXPECT_TRUE(f.payload.empty());
    sp.peer.reset();
    EXPECT_FALSE(sp.conn.recv(f));
    EXPECT_TRUE(sp.conn.eof());
    EXPECT_TRUE(sp.conn.error().empty()) << sp.conn.error();
  }
  {
    // One frame split inside the header and inside the payload, with a
    // pause between writes: recv blocks until the frame is whole.
    SocketPairConnection sp;
    const std::vector<std::uint8_t> bytes = frame_of(FrameType::kTelemetryReply, "split payload");
    const std::size_t cuts[] = {0, 10, kFrameHeaderBytes + 3, bytes.size()};
    std::thread writer([&] {
      for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
        if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_TRUE(sp.write(bytes.data() + cuts[i], cuts[i + 1] - cuts[i]));
      }
    });
    const bool got = sp.conn.recv(f);
    writer.join();
    ASSERT_TRUE(got) << sp.conn.error();
    EXPECT_EQ(f.type, FrameType::kTelemetryReply);
    EXPECT_EQ(std::string(f.payload.begin(), f.payload.end()), "split payload");
  }
  {
    // A corrupted checksum is an error, not an EOF, and closes.
    SocketPairConnection sp;
    std::vector<std::uint8_t> bytes = frame_of(FrameType::kReload, "spec");
    bytes[kFrameHeaderBytes] ^= 0x80;
    ASSERT_TRUE(sp.write(bytes.data(), bytes.size()));
    EXPECT_FALSE(sp.conn.recv(f));
    EXPECT_FALSE(sp.conn.eof());
    EXPECT_NE(sp.conn.error().find("checksum"), std::string::npos) << sp.conn.error();
    EXPECT_FALSE(sp.conn.connected());
  }
  {
    // EOF in the middle of a header is an error, not a clean EOF.
    SocketPairConnection sp;
    const std::vector<std::uint8_t> bytes = frame_of(FrameType::kSubmit, "cut");
    ASSERT_TRUE(sp.write(bytes.data(), 10));
    sp.peer.reset();
    EXPECT_FALSE(sp.conn.recv(f));
    EXPECT_FALSE(sp.conn.eof());
    EXPECT_FALSE(sp.conn.error().empty());
  }
}

// Deterministic fuzz: random mutations of valid frames plus pure-noise
// buffers, in random-sized feeds. The reader must always terminate in
// kFrame/kNeedMore/kBad and never crash; payload decoders must reject
// or accept without reading out of bounds (ASan/TSan lanes run this
// same test).
TEST(NetFrame, FuzzNeverCrashes) {
  stats::Rng rng(20160808);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> stream;
    const int frames = 1 + static_cast<int>(rng.uniform_index(3));
    for (int i = 0; i < frames; ++i) {
      SubmitPayload p;
      p.tag = rng();
      p.user_id = "user-" + std::to_string(rng.uniform_index(1000));
      p.event.time = static_cast<trace::Timestamp>(rng());
      p.event.location = {rng.uniform(-180.0, 180.0), rng.uniform(-90.0, 90.0)};
      std::vector<std::uint8_t> payload;
      encode_submit(p, payload);
      encode_frame(FrameType::kSubmit, payload.data(), payload.size(), stream);
    }
    // Mutate a few bytes (or none) anywhere in the stream.
    const int mutations = static_cast<int>(rng.uniform_index(4));
    for (int m = 0; m < mutations; ++m) {
      stream[rng.uniform_index(stream.size())] ^= static_cast<std::uint8_t>(rng());
    }
    // Occasionally append pure noise.
    if (rng.uniform_index(4) == 0) {
      const std::size_t junk = rng.uniform_index(64);
      for (std::size_t j = 0; j < junk; ++j) {
        stream.push_back(static_cast<std::uint8_t>(rng()));
      }
    }

    FrameReader reader;
    std::size_t fed = 0;
    bool bad = false;
    while (fed < stream.size() && !bad) {
      const std::size_t chunk = std::min<std::size_t>(1 + rng.uniform_index(48),
                                                      stream.size() - fed);
      reader.feed(stream.data() + fed, chunk);
      fed += chunk;
      Frame f;
      for (;;) {
        const FrameReader::Result r = reader.next(f);
        if (r == FrameReader::Result::kFrame) {
          // Whatever survived framing gets thrown at the payload
          // decoders too; they may reject, never crash.
          if (decode_submit(f.payload.data(), f.payload.size())) ++parsed;
          (void)decode_answer(f.payload.data(), f.payload.size());
          continue;
        }
        if (r == FrameReader::Result::kBad) {
          ++rejected;
          bad = true;
        }
        break;
      }
    }
  }
  // The fuzz must exercise both outcomes, or it is testing nothing.
  EXPECT_GT(parsed, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace locpriv::net
