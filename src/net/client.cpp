#include "net/client.h"

#include "io/json.h"
#include "net/error.h"
#include "net/stream.h"
#include "service/session_manager.h"

namespace locpriv::net {

bool Connection::connect(const Endpoint& ep) {
  error_.clear();
  eof_ = false;
  reader_ = FrameReader();
  fd_ = connect_endpoint(ep, &error_);
  return fd_.valid();
}

void Connection::adopt(Fd fd) {
  error_.clear();
  eof_ = false;
  reader_ = FrameReader();
  fd_ = std::move(fd);
}

bool Connection::send(FrameType type, const void* payload, std::size_t len) {
  if (!fd_.valid()) {
    error_ = "send on closed connection";
    return false;
  }
  scratch_.clear();
  encode_frame(type, payload, len, scratch_);
  int err = 0;
  if (!write_all(fd_.get(), scratch_.data(), scratch_.size(), &err)) {
    error_ = errno_message("send frame", err);
    fd_.reset();
    return false;
  }
  return true;
}

bool Connection::send_submit(const SubmitPayload& p) {
  std::vector<std::uint8_t> payload;
  encode_submit(p, payload);
  return send(FrameType::kSubmit, payload.data(), payload.size());
}

bool Connection::recv(Frame& out) {
  if (!fd_.valid()) {
    error_ = "recv on closed connection";
    return false;
  }
  char buf[16 * 1024];
  while (true) {
    const FrameReader::Result r = reader_.next(out);
    if (r == FrameReader::Result::kFrame) return true;
    if (r == FrameReader::Result::kBad) {
      error_ = std::string("recv: ") + to_string(reader_.error());
      fd_.reset();
      return false;
    }
    const ssize_t got = read_some(fd_.get(), buf, sizeof buf);
    if (got <= 0) {
      if (got < 0) {
        error_ = errno_message("recv");
      } else if (reader_.buffered() == 0) {
        eof_ = true;
        error_.clear();
      } else {
        error_ = "recv: unexpected end of stream";
      }
      fd_.reset();
      return false;
    }
    reader_.feed(buf, static_cast<std::size_t>(got));
  }
}

bool Connection::request(FrameType type, const std::string& payload, FrameType expect,
                         std::string& reply) {
  if (!send(type, payload)) return false;
  Frame frame;
  if (!recv(frame)) {
    if (error_.empty()) error_ = "connection closed before reply";
    return false;
  }
  const std::string text(frame.payload.begin(), frame.payload.end());
  if (frame.type == FrameType::kError) {
    error_ = "peer error: " + text;
    return false;
  }
  if (frame.type != expect) {
    error_ = "unexpected reply frame type";
    return false;
  }
  reply = text;
  return true;
}

std::size_t ShardMap::shard_of(const std::string& user) const {
  if (shards == 0) return 0;
  // Finalizer mix (murmur3 fmix64) before the modulo: the gateway routes
  // users onto worker queues with raw stable_hash64 % workers, so taking
  // the same raw hash % shards here would hand each shard only users
  // whose hash is congruent mod `shards` — and whenever workers divides
  // shards, every one of them collapses onto a single worker queue. The
  // mix decorrelates the two modulos while staying a pure function of
  // the user id, so client and service still agree byte-for-byte.
  std::uint64_t h = service::stable_hash64(user);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h % shards;
}

std::string ShardMap::to_json() const {
  io::JsonObject obj;
  obj["shards"] = shards;
  io::JsonArray eps;
  eps.reserve(endpoints.size());
  for (const auto& ep : endpoints) eps.emplace_back(ep.to_string());
  obj["endpoints"] = std::move(eps);
  return io::to_json(io::JsonValue(std::move(obj)));
}

std::optional<ShardMap> ShardMap::from_json(const std::string& text, std::string* err) {
  try {
    const io::JsonValue v = io::parse_json(text);
    ShardMap map;
    map.shards = static_cast<std::size_t>(v.at("shards").as_number());
    for (const auto& entry : v.at("endpoints").as_array()) {
      const auto ep = Endpoint::parse(entry.as_string(), err);
      if (!ep) return std::nullopt;
      map.endpoints.push_back(*ep);
    }
    if (map.shards == 0 || map.endpoints.size() != map.shards) {
      if (err != nullptr) *err = "shard map inconsistent: " + text;
      return std::nullopt;
    }
    return map;
  } catch (const std::exception& e) {
    if (err != nullptr) *err = std::string("shard map parse: ") + e.what();
    return std::nullopt;
  }
}

bool ShardClient::connect(const Endpoint& supervisor) {
  if (!supervisor_.connect(supervisor)) {
    error_ = supervisor_.error();
    return false;
  }
  std::string reply;
  if (!supervisor_.request(FrameType::kShardMapReq, "", FrameType::kShardMapReply, reply)) {
    error_ = supervisor_.error();
    return false;
  }
  const auto map = ShardMap::from_json(reply, &error_);
  if (!map) return false;
  map_ = *map;
  shards_.clear();
  shards_.resize(map_.shards);
  for (std::size_t k = 0; k < map_.shards; ++k) {
    if (!shards_[k].connect(map_.endpoints[k])) {
      error_ = shards_[k].error();
      return false;
    }
  }
  return true;
}

bool ShardClient::submit(const std::string& user, const trace::Event& event, std::uint64_t tag) {
  const std::size_t k = shard_of(user);
  SubmitPayload p;
  p.tag = tag;
  p.user_id = user;
  p.event = event;
  if (!shards_[k].send_submit(p)) {
    error_ = shards_[k].error();
    return false;
  }
  return true;
}

bool ShardClient::recv_answer(std::size_t k, AnswerPayload& out) {
  Frame frame;
  if (!shards_[k].recv(frame)) {
    error_ = shards_[k].error();
    return false;
  }
  if (frame.type != FrameType::kAnswer) {
    error_ = "unexpected frame type while waiting for an answer";
    return false;
  }
  const auto decoded = decode_answer(frame.payload.data(), frame.payload.size());
  if (!decoded) {
    error_ = "malformed answer payload";
    return false;
  }
  out = *decoded;
  return true;
}

}  // namespace locpriv::net
