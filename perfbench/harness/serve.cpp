// serve-steady / serve-churn: a ShardService fleet (2 shard processes x
// 1 gateway worker, downstream 0 µs) over unix sockets, driven by an
// open-loop generator on this process's main thread.
//
//   set-up    spawn -> supervisor and every shard accept a connection
//             (timed on every fleet this run starts; median = setup_s)
//   rounds    max(3, seconds / 2.5) of them. Each runs a fresh fleet at
//             40,000 reports/s, then the closed-loop phases on another
//             fresh fleet; spreading both over the run and reporting
//             medians over rounds keeps a burst of host contention, or one
//             unlucky placement of shard threads on the host's cores, from
//             setting the figures.
//   nominal   latency is taken from each report's *scheduled* send time.
//             Server CPU is the RUSAGE_CHILDREN delta over each nominal
//             fleet's whole life, over the reports it answered.
//   bursts    closed loop, 1,024 reports sent at once and the next burst
//             when all are answered: the time from a burst's send to its
//             last answer (answer_ms). Unlike the nominal p50, which on a
//             shared VM is mostly the time the host takes to wake idle
//             vCPUs, a burst is mostly the fleet's own work.
//   window    then, on the same fleet, closed loop with 256 reports in
//             flight: the sustained rate the fleet answers at when it is
//             never idle (saturated_rps, reported but not gated: it is
//             bounded by the CPU share the host grants, which drifts).
//   replay    each nominal stream pushed through an in-process Gateway
//             (submit -> sink, no sockets): the gateway determinism
//             witness (protected locations per tag must match the
//             fleet's) and the service layer's own report ceiling.
//
// The generator never blocks: sockets are non-blocking, unsent bytes
// wait in a per-shard outbox while answers keep being read, and the
// schedule never slows because the server is slow. steady: 20,000 users,
// each reporting every 60 s of stream time (the ε budget never binds).
// churn: every report is a new user and the session cap forces one LRU
// eviction per report.
#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lppm/online.h"
#include "net/client.h"
#include "net/fd.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/stream.h"
#include "service/gateway.h"
#include "service/shard/shard_service.h"
#include "stats/rng.h"
#include "trace/store.h"
#include "trace/store_io.h"
#include "workloads.h"

namespace perfbench {

namespace io = locpriv::io;
namespace net = locpriv::net;
namespace service = locpriv::service;
namespace trace = locpriv::trace;

namespace {

constexpr std::size_t kShards = 2;
constexpr std::size_t kWorkersPerShard = 1;
constexpr std::size_t kSessionShards = 8;
constexpr std::size_t kChurnSessionCap = 256;  ///< per session shard, serve-churn only
constexpr std::size_t kSteadyUsers = 20000;
constexpr trace::Timestamp kReportEvery = 60;  ///< stream seconds between a user's reports
constexpr double kNominalRate = 40000.0;
constexpr double kP50LimitMs = 1.0;
constexpr double kEpsilon = 0.01;
constexpr double kBudgetEps = 1.0;  ///< >= 61 reports per window: never binds at one per 60 s
constexpr trace::Timestamp kBudgetWindow = 3600;
constexpr double kNominalShare = 0.3;  ///< of --seconds, nominal rate over all rounds
constexpr double kBurstShare = 0.35;   ///< of --seconds, burst phases over all rounds
constexpr double kWindowShare = 0.25;  ///< of --seconds, windowed phases over all rounds
constexpr std::uint64_t kWindow = 256;  ///< reports in flight in the windowed phase
constexpr std::uint64_t kBurst = 1024;  ///< reports per burst
constexpr double kMaxRate = 2e6;  ///< caps a closed-loop phase's reports (client memory)
constexpr double kGraceS = 1.0;   ///< answers a phase is judged on: due by its last send + this
constexpr double kDrainS = 10.0;  ///< then wait this long at most for the stragglers

/// The generated report stream: report j's user, time and location are
/// pure functions of (seed, j); locations are drawn from the fleet.
class Stream {
 public:
  Stream(bool churn, std::uint64_t seed, std::shared_ptr<const trace::TraceStore> fleet)
      : churn_(churn), seed_(seed), fleet_(std::move(fleet)) {
    if (!churn_) {
      users_.reserve(kSteadyUsers);
      for (std::size_t u = 0; u < kSteadyUsers; ++u) users_.push_back(user_name(u));
    }
  }

  [[nodiscard]] std::string user(std::uint64_t j) const {
    return churn_ ? user_name(j) : users_[j % kSteadyUsers];
  }

  [[nodiscard]] trace::Event event(std::uint64_t j) const {
    const std::uint64_t i =
        locpriv::stats::derive_seed(seed_, j) % fleet_->event_count();
    trace::Event e;
    e.time = churn_ ? static_cast<trace::Timestamp>(j / 1000)
                    : static_cast<trace::Timestamp>(j / kSteadyUsers) * kReportEvery;
    e.location = {fleet_->xs()[i], fleet_->ys()[i]};
    return e;
  }

 private:
  [[nodiscard]] std::string user_name(std::uint64_t i) const {
    std::string name(churn_ ? "c" : "u");
    name += std::to_string(seed_ % 100000);
    name += '-';
    name += std::to_string(i);
    return name;
  }

  bool churn_;
  std::uint64_t seed_;
  std::shared_ptr<const trace::TraceStore> fleet_;
  std::vector<std::string> users_;
};

/// One non-blocking client connection to one shard.
struct Lane {
  net::Fd fd;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  net::FrameReader reader;
  [[nodiscard]] bool pending() const { return out_pos < out.size(); }
};

void reap(pid_t pid) {
  // The supervisor drains its shards on SIGTERM; escalate if it hangs.
  const Clock::time_point t0 = Clock::now();
  while (waitpid(pid, nullptr, WNOHANG) == 0) {
    if (seconds_since(t0) > 5.0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A running fleet; a fleet still up when this goes out of scope (an
/// exception mid-run) is terminated and reaped, never orphaned.
struct Fleet {
  pid_t pid = -1;
  net::Connection supervisor;
  std::vector<Lane> lanes;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    if (pid > 0) {
      kill(pid, SIGTERM);
      reap(pid);
    }
  }
};

/// Client-side record of one phase: open loop at `rate`, or closed loop
/// (rate 0), where each report is timed from when it was queued.
struct Phase {
  double rate = 0.0;
  std::uint64_t first_tag = 0;
  std::uint64_t count = 0;
  Clock::time_point t0;  ///< when report 0 is due
  Clock::time_point last_recv;  ///< when the last answer arrived
  std::uint64_t answered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t failed = 0;      ///< rejected, degraded, unanswered or lost
  std::uint64_t duplicates = 0;  ///< answers for an already answered (or foreign) tag
  std::vector<double> latency_ms;
  std::vector<double> late_ms;     ///< generator lateness per report
  std::vector<double> backlog;     ///< in-flight reports, sampled over the sends
  std::vector<std::uint8_t> seen;  ///< per tag in the phase
  std::vector<Clock::time_point> sent_at;  ///< per tag, closed loop only
  std::vector<double> burst_ms;            ///< send -> last answer, per burst
  double answered_span_s = 0.0;    ///< first scheduled send -> last answer in time
  bool in_time = false;            ///< every answer arrived within kGraceS
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  double codec_s = 0.0;
  bool connection_lost = false;
  // Protected location per tag (recorded for the witness phase only).
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::uint8_t> status;

  /// When report `k` of the phase is due.
  [[nodiscard]] Clock::time_point due(std::uint64_t k) const {
    if (rate == 0.0) return sent_at[k];
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(k) / rate));
  }
  [[nodiscard]] double p50_ms() const { return quantile(latency_ms, 0.5); }
  /// Answers in time per second of the phase (0 when none came).
  [[nodiscard]] double answered_per_s() const {
    return answered_span_s > 0.0 ? static_cast<double>(answered) / answered_span_s : 0.0;
  }
  /// Backlog growth: the median in-flight count over the last third of
  /// the sends against the first third, allowing 1 ms worth of reports
  /// (at least 64) of jitter. Medians, so one short host stall cannot
  /// make a flat backlog look like a growing one.
  [[nodiscard]] bool backlog_flat() const {
    const std::size_t third = backlog.size() / 3;
    if (third < 3) return true;
    const std::vector<double> head(backlog.begin(), backlog.begin() + third);
    const std::vector<double> tail(backlog.end() - third, backlog.end());
    return median(tail) <= median(head) + std::max(64.0, rate * 1e-3);
  }
  [[nodiscard]] bool passes() const {
    return failed == 0 && !connection_lost && in_time && p50_ms() <= kP50LimitMs &&
           backlog_flat();
  }
};

class Generator {
 public:
  Generator(const Stream& stream, Fleet& fleet, bool timed_codec)
      : stream_(stream), fleet_(fleet), timed_codec_(timed_codec) {
    routing_.shards = kShards;
  }

  /// Offers `count` reports at `rate` per second starting at tag
  /// `first_tag`, and waits up to kGraceS after the last one is due for
  /// the answers the phase is judged on. Answers still missing then are
  /// waited for up to kDrainS more, so none is mistaken for lost and the
  /// next phase starts on an idle fleet.
  Phase run(double rate, std::uint64_t first_tag, std::uint64_t count, bool record_xy) {
    Phase ph;
    ph.rate = rate;
    ph.first_tag = first_tag;
    ph.count = count;
    ph.t0 = Clock::now() + std::chrono::milliseconds(1);
    ph.seen.assign(count, 0);
    ph.latency_ms.reserve(count);
    ph.late_ms.reserve(count);
    if (record_xy) {
      ph.xs.assign(count, 0.0);
      ph.ys.assign(count, 0.0);
      ph.status.assign(count, 0xff);
    }
    constexpr std::size_t kSamples = 40;
    ph.backlog.reserve(kSamples);

    std::uint64_t next = 0;  // phase-relative index of the next report to send
    std::size_t next_sample = 0;
    Clock::time_point last_answer = ph.t0;
    for (;;) {
      Clock::time_point now = Clock::now();
      // 1. Queue every report that is due, in schedule order.
      while (next < count && ph.due(next) <= now) {
        queue(ph, next, now);
        ph.late_ms.push_back(seconds_between(ph.due(next), now) * 1e3);
        ++next;
      }
      // 2. Backlog samples at evenly spaced points of the schedule.
      while (next_sample < kSamples && next >= (count * (next_sample + 1)) / (kSamples + 1)) {
        ph.backlog.push_back(static_cast<double>(next - ph.answered));
        ++next_sample;
      }
      // 3. Push queued bytes and read every answer that has arrived.
      if (pump(ph)) last_answer = Clock::now();
      if (ph.connection_lost) break;
      if (next == count && ph.answered >= count) break;
      now = Clock::now();
      if (next == count && seconds_between(ph.due(count - 1), now) > kGraceS) break;
      // 4. Sleep until the next report is due or a socket is ready.
      long wait_ns = 2'000'000;
      if (next < count) {
        wait_ns = std::clamp<long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(ph.due(next) - now).count(), 0,
            wait_ns);
      }
      if (wait_ns > 0) sleep_on_sockets(wait_ns);
    }
    ph.answered_span_s = seconds_between(ph.t0, last_answer);
    ph.in_time = ph.answered == count;
    const Clock::time_point drain_start = Clock::now();
    while (!ph.connection_lost && ph.answered < count && seconds_since(drain_start) < kDrainS) {
      if (!pump(ph)) sleep_on_sockets(2'000'000);
    }
    ph.failed += count - std::min(count, ph.answered);  // unanswered
    return ph;
  }

  /// Closed loop from tag `first_tag`: with `bursts` false, keeps
  /// `window` reports in flight and sends the next as soon as an answer
  /// frees a slot; with `bursts` true, sends `window` reports at once and
  /// the next burst when all are answered, recording each burst's time
  /// from its send to its last answer. Stops sending after `budget_s` or
  /// `max_count` reports, then waits up to kGraceS + kDrainS without an
  /// answer before counting the rest unanswered.
  Phase run_closed(std::uint64_t first_tag, std::uint64_t window, bool bursts, double budget_s,
                   std::uint64_t max_count) {
    Phase ph;
    ph.first_tag = first_tag;
    ph.count = max_count;  // until the sends stop
    ph.t0 = Clock::now();
    ph.last_recv = ph.t0;
    ph.seen.assign(max_count, 0);
    ph.sent_at.reserve(max_count);
    ph.latency_ms.reserve(max_count);
    std::uint64_t next = 0;
    Clock::time_point burst_t0 = ph.t0;
    Clock::time_point progress = ph.t0;
    for (;;) {
      const Clock::time_point now = Clock::now();
      const bool sending = next < max_count && seconds_between(ph.t0, now) < budget_s;
      if (sending && !bursts) {
        for (; next < max_count && next - ph.answered < window; ++next) {
          ph.sent_at.push_back(now);
          queue(ph, next, now);
        }
      } else if (sending && next == ph.answered) {
        burst_t0 = now;
        for (const std::uint64_t end = std::min(max_count, next + window); next < end; ++next) {
          ph.sent_at.push_back(now);
          queue(ph, next, now);
        }
      }
      const std::uint64_t before = ph.answered;
      if (pump(ph)) progress = Clock::now();
      if (ph.connection_lost) break;
      if (bursts && before < next && ph.answered == next) {
        ph.burst_ms.push_back(seconds_between(burst_t0, ph.last_recv) * 1e3);
      }
      if (!sending && ph.answered == next) break;
      if (seconds_since(progress) > kGraceS + kDrainS) break;
      if (ph.answered == before) sleep_on_sockets(2'000'000);
    }
    ph.count = next;
    ph.seen.resize(next);
    ph.answered_span_s = seconds_between(ph.t0, ph.last_recv);
    ph.in_time = ph.answered == next;
    ph.failed += next - std::min(next, ph.answered);  // unanswered
    return ph;
  }

 private:
  /// Encodes report `k` of the phase into its shard's outbox.
  void queue(Phase& ph, std::uint64_t k, Clock::time_point now) {
    const std::uint64_t tag = ph.first_tag + k;
    net::SubmitPayload sp;
    sp.tag = tag;
    sp.user_id = stream_.user(tag);
    sp.event = stream_.event(tag);
    Lane& lane = fleet_.lanes[routing_.shard_of(sp.user_id)];
    const Clock::time_point c0 = timed_codec_ ? Clock::now() : now;
    payload_.clear();
    net::encode_submit(sp, payload_);
    const std::size_t before = lane.out.size();
    net::encode_frame(net::FrameType::kSubmit, payload_.data(), payload_.size(), lane.out);
    if (timed_codec_) ph.codec_s += seconds_since(c0);
    ph.bytes_out += lane.out.size() - before;
  }

  /// Writes what the lanes hold and reads what they received; true when
  /// an answer arrived.
  bool pump(Phase& ph) {
    bool any = false;
    for (Lane& lane : fleet_.lanes) flush(lane, ph);
    for (Lane& lane : fleet_.lanes) any = drain_answers(lane, ph) || any;
    return any;
  }

  void sleep_on_sockets(long wait_ns) {
    pfds_.resize(fleet_.lanes.size());
    for (std::size_t k = 0; k < fleet_.lanes.size(); ++k) {
      pfds_[k] = {fleet_.lanes[k].fd.get(),
                  static_cast<short>(POLLIN | (fleet_.lanes[k].pending() ? POLLOUT : 0)), 0};
    }
    const timespec ts{0, wait_ns};
    (void)ppoll(pfds_.data(), pfds_.size(), &ts, nullptr);
  }

  void flush(Lane& lane, Phase& ph) {
    while (lane.pending()) {
      const ssize_t put = net::write_some(lane.fd.get(), lane.out.data() + lane.out_pos,
                                          lane.out.size() - lane.out_pos);
      if (put < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) ph.connection_lost = true;
        return;
      }
      ++ph.writes;
      lane.out_pos += static_cast<std::size_t>(put);
    }
    lane.out.clear();
    lane.out_pos = 0;
  }

  bool drain_answers(Lane& lane, Phase& ph) {
    bool any = false;
    for (;;) {
      const ssize_t got = net::read_some(lane.fd.get(), rbuf_.data(), rbuf_.size());
      if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        ph.connection_lost = true;
        return any;
      }
      if (got < 0) return any;
      const Clock::time_point recv = Clock::now();
      ph.last_recv = recv;
      ++ph.reads;
      ph.bytes_in += static_cast<std::size_t>(got);
      lane.reader.feed(rbuf_.data(), static_cast<std::size_t>(got));
      for (;;) {
        const net::FrameReader::Result r = lane.reader.next(frame_);
        if (r == net::FrameReader::Result::kNeedMore) break;
        if (r == net::FrameReader::Result::kBad || frame_.type != net::FrameType::kAnswer) {
          ph.connection_lost = true;
          return any;
        }
        const Clock::time_point c0 = timed_codec_ ? Clock::now() : recv;
        const auto answer = net::decode_answer(frame_.payload.data(), frame_.payload.size());
        if (timed_codec_) ph.codec_s += seconds_since(c0);
        if (!answer) {
          ph.connection_lost = true;
          return any;
        }
        any = true;
        const std::uint64_t k = answer->tag - ph.first_tag;
        if (answer->tag < ph.first_tag || k >= ph.count || ph.seen[k]++ != 0) {
          ++ph.duplicates;
          continue;
        }
        ++ph.answered;
        ph.latency_ms.push_back(seconds_between(ph.due(k), recv) * 1e3);
        switch (answer->status) {
          case service::ReportStatus::delivered: ++ph.delivered; break;
          case service::ReportStatus::suppressed_budget: break;
          default: ++ph.failed; break;
        }
        if (!ph.xs.empty()) {
          ph.status[k] = static_cast<std::uint8_t>(answer->status);
          if (answer->protected_event) {
            ph.xs[k] = answer->protected_event->location.x;
            ph.ys[k] = answer->protected_event->location.y;
          }
        }
      }
      if (static_cast<std::size_t>(got) < rbuf_.size()) return any;
    }
  }

  const Stream& stream_;
  Fleet& fleet_;
  bool timed_codec_;
  net::ShardMap routing_;
  std::vector<pollfd> pfds_;
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint8_t> rbuf_ = std::vector<std::uint8_t>(256 * 1024);
  net::Frame frame_;
};

/// What one round's closed-loop phases leave behind. Only the summary is
/// kept: per-report records would grow this process, and every later
/// fleet is forked from it.
struct ClosedRun {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  bool once = false;       ///< every tag answered exactly once
  bool drained = false;    ///< the fleet answered everything and was stopped
  bool delivered = false;  ///< telemetry delivered == the client's count
  bool mix = false;        ///< the workload's status mix
  double saturated_rps = 0.0;
  double window_p50_ms = 0.0;
  double burst_ms = 0.0;
  std::size_t bursts = 0;
};

service::shard::ShardServiceConfig fleet_config(const Options& opt, bool churn,
                                                const std::string& dataset, int index) {
  service::shard::ShardServiceConfig cfg;
  cfg.listen.kind = net::Endpoint::Kind::kUnix;
  cfg.listen.path = opt.work_dir + "/f" + std::to_string(getpid() % 100000) + "-" +
                    std::to_string(index) + ".sock";
  cfg.shards = kShards;
  cfg.dataset_path = dataset;
  cfg.gateway.workers = kWorkersPerShard;
  cfg.gateway.queue_capacity = 4096;
  cfg.gateway.sessions.shard_count = kSessionShards;
  cfg.gateway.sessions.max_sessions_per_shard = churn ? kChurnSessionCap : 0;
  cfg.gateway.epsilon = kEpsilon;
  cfg.gateway.budget_eps = kBudgetEps;
  cfg.gateway.budget_window_s = kBudgetWindow;
  cfg.gateway.seed = locpriv::stats::derive_seed(opt.seed, 0x5E12E);
  cfg.gateway.downstream_latency = std::chrono::microseconds(0);
  return cfg;
}

template <typename Connect>
bool retry_connect(Connect&& connect, double timeout_s) {
  const Clock::time_point t0 = Clock::now();
  while (!connect()) {
    if (seconds_since(t0) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// Spawns a fleet and returns the seconds until the supervisor and every
/// shard accepted a connection.
double start_fleet(const service::shard::ShardServiceConfig& cfg, Fleet& fleet) {
  Span span("shard", "spawn");
  ::malloc_trim(0);
  const Clock::time_point t0 = Clock::now();
  std::string err;
  fleet.pid = service::shard::ShardService::spawn(cfg, &err);
  if (fleet.pid < 0) throw std::runtime_error("spawn: " + err);
  const bool up = retry_connect([&] { return fleet.supervisor.connect(cfg.listen); }, 20.0);
  for (std::size_t k = 0; up && k < cfg.shards; ++k) {
    Lane lane;
    const net::Endpoint ep = cfg.listen.shard_endpoint(k);
    const auto accepted = [&] { return (lane.fd = net::connect_endpoint(ep, &err)).valid(); };
    if (!retry_connect(accepted, 5.0) || !net::set_nonblocking(lane.fd.get())) {
      break;
    }
    fleet.lanes.push_back(std::move(lane));
  }
  const double setup = seconds_since(t0);
  if (fleet.lanes.size() != cfg.shards) {
    throw std::runtime_error("fleet never accepted on " + cfg.listen.to_string());
  }
  return setup;
}

io::JsonValue telemetry(Fleet& fleet) {
  Span span("service", "telemetry");
  std::string reply;
  if (!fleet.supervisor.request(net::FrameType::kTelemetryReq, "",
                                net::FrameType::kTelemetryReply, reply)) {
    throw std::runtime_error("telemetry: " + fleet.supervisor.error());
  }
  return io::parse_json(reply);
}

void stop_fleet(Fleet& fleet) {
  Span span("shard", "drain");
  fleet.lanes.clear();
  std::string reply;
  if (!fleet.supervisor.request(net::FrameType::kDrainReq, "", net::FrameType::kDrainReply,
                                reply)) {
    kill(fleet.pid, SIGTERM);
  }
  fleet.supervisor.close();
  reap(fleet.pid);
  fleet.pid = -1;
}

/// Kills a fleet that stopped answering (no graceful drain: that would
/// wait on the very reports it cannot answer). The supervisor is stopped
/// first, so it cannot fork a replacement for a shard killed here.
void kill_fleet(Fleet& fleet) {
  Span span("shard", "kill");
  fleet.lanes.clear();
  kill(fleet.pid, SIGSTOP);
  std::vector<pid_t> shards;
  std::ifstream children("/proc/" + std::to_string(fleet.pid) + "/task/" +
                         std::to_string(fleet.pid) + "/children");
  for (pid_t c = 0; children >> c;) shards.push_back(c);
  for (const pid_t c : shards) kill(c, SIGKILL);
  kill(fleet.pid, SIGKILL);
  waitpid(fleet.pid, nullptr, 0);
  // The shards were the supervisor's children; wait until they are gone.
  const Clock::time_point t0 = Clock::now();
  for (const pid_t c : shards) {
    while (kill(c, 0) == 0 && seconds_since(t0) < 5.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  fleet.supervisor.close();
  fleet.pid = -1;
}

double agg(const io::JsonValue& t, const char* key) {
  return t.at("aggregate").at(key).as_number();
}

double per_shard_sum(const io::JsonValue& t, const char* block, const char* key) {
  double s = 0.0;
  for (const io::JsonValue& shard : t.at("per_shard").as_array()) {
    s += shard.at(block).at(key).as_number();
  }
  return s;
}

double max_rss_kb(const io::JsonValue& t) {
  double m = 0.0;
  for (const io::JsonValue& v : t.at("aggregate").at("resident_set_kb_per_shard").as_array()) {
    m = std::max(m, v.as_number());
  }
  return m;
}

/// Times every StreamSession::report the wrapped session answers.
class TimedSession final : public locpriv::lppm::StreamSession {
 public:
  TimedSession(std::unique_ptr<StreamSession> inner, std::atomic<std::uint64_t>* ns)
      : inner_(std::move(inner)), ns_(ns) {}
  std::optional<trace::Event> report(const trace::Event& e) override {
    const Clock::time_point t0 = Clock::now();
    std::optional<trace::Event> out = inner_->report(e);
    ns_->fetch_add(static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                           .count()),
                   std::memory_order_relaxed);
    return out;
  }

 private:
  std::unique_ptr<StreamSession> inner_;
  std::atomic<std::uint64_t>* ns_;
};

struct Replay {
  double wall_s = 0.0;
  double lppm_s = 0.0;
  bool identical = false;
  std::uint64_t digest = 0;
};

/// One nominal-rate run on its own fleet.
struct NominalRun {
  service::shard::ShardServiceConfig cfg;
  Phase ph;
  io::JsonValue t_map;
  io::JsonValue t_load;
  Replay replay;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double late_p99_ms = 0.0;
  bool once = false;  ///< every tag answered exactly once
  bool met = false;   ///< the phase kept up with the nominal rate

  /// Keeps the phase's figures and drops its per-report records, so this
  /// process, which forks every later fleet, does not grow round by round.
  void summarize() {
    p50_ms = ph.p50_ms();
    p90_ms = quantile(ph.latency_ms, 0.90);
    p99_ms = quantile(ph.latency_ms, 0.99);
    late_p99_ms = quantile(ph.late_ms, 0.99);
    once = !ph.connection_lost && ph.duplicates == 0 &&
           std::all_of(ph.seen.begin(), ph.seen.end(), [](std::uint8_t s) { return s == 1; });
    met = ph.passes();
    ph.latency_ms = {};
    ph.late_ms = {};
    ph.seen = {};
    ph.xs = {};
    ph.ys = {};
    ph.status = {};
  }
};

/// Pushes the witness phase's stream through an in-process Gateway
/// configured like one shard's, and compares protected locations tag by
/// tag with what the fleet answered.
Replay replay_inprocess(const Stream& stream, const Phase& ph,
                        const service::shard::ShardServiceConfig& cfg, bool timed) {
  Span span("service", "inproc_replay");
  const std::uint64_t n = ph.count;
  std::vector<double> xs(n, 0.0);
  std::vector<double> ys(n, 0.0);
  std::vector<std::uint8_t> status(n, 0xff);
  std::vector<std::string> users(n);
  std::vector<trace::Event> events(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    users[k] = stream.user(ph.first_tag + k);
    events[k] = stream.event(ph.first_tag + k);
  }
  std::atomic<std::uint64_t> lppm_ns{0};
  service::GatewayConfig gcfg = cfg.gateway;
  gcfg.workers = kShards * kWorkersPerShard;
  gcfg.queue_capacity = static_cast<std::size_t>(n) + 1;  // the whole stream fits: never rejects
  service::SessionManager::SessionFactory factory;
  if (timed) {
    factory = [gcfg, &lppm_ns](
                  const std::string& user) -> std::unique_ptr<locpriv::lppm::StreamSession> {
      return std::make_unique<TimedSession>(
          std::make_unique<locpriv::lppm::BudgetedGeoIndSession>(
              gcfg.epsilon,
              locpriv::lppm::GeoIndBudget(gcfg.epsilon, gcfg.budget_eps, gcfg.budget_window_s),
              service::user_seed(gcfg.seed, user)),
          &lppm_ns);
    };
  }
  Replay r;
  const Clock::time_point t0 = Clock::now();
  {
    service::Gateway gw(gcfg, factory, [&](const service::ProtectedReport& rep) {
      const std::uint64_t k = rep.cookie;
      status[k] = static_cast<std::uint8_t>(rep.status);
      if (rep.protected_event) {
        xs[k] = rep.protected_event->location.x;
        ys[k] = rep.protected_event->location.y;
      }
    });
    for (std::uint64_t k = 0; k < n; ++k) (void)gw.submit(users[k], events[k], k);
    gw.drain();
  }
  r.wall_s = seconds_since(t0);
  r.lppm_s = static_cast<double>(lppm_ns.load()) * 1e-9;
  r.identical = std::memcmp(xs.data(), ph.xs.data(), n * sizeof(double)) == 0 &&
                std::memcmp(ys.data(), ph.ys.data(), n * sizeof(double)) == 0 &&
                status == ph.status;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t k = 0; k < n; ++k) {
    h = trace::fnv1a64(&xs[k], sizeof(double), h);
    h = trace::fnv1a64(&ys[k], sizeof(double), h);
  }
  r.digest = h;
  return r;
}

/// BudgetedGeoIndSession::report in a tight loop, budget never binding.
double report_loop_us(std::uint64_t seed) {
  Span span("lppm", "report_loop");
  constexpr int kReports = 200000;
  locpriv::lppm::BudgetedGeoIndSession session(
      kEpsilon, locpriv::lppm::GeoIndBudget(kEpsilon, kBudgetEps, kBudgetWindow), seed);
  trace::Event e;
  e.location = {1500.0, 1500.0};
  double sink = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kReports; ++i) {
    e.time = static_cast<trace::Timestamp>(i) * kReportEvery;
    const auto out = session.report(e);
    if (out) sink += out->location.x;
  }
  const double us = seconds_since(t0) * 1e6 / kReports;
  volatile double observed = sink;  // keeps the loop's results live
  (void)observed;
  return us;
}

}  // namespace

Result run_serve(const Options& opt, bool churn) {
  Result res;
  ::prctl(PR_SET_TIMERSLACK, 1UL);  // precise wake-ups for the send schedule
  // Every fleet is forked from this process, so its resident pages count
  // in each shard's RSS. A fixed threshold keeps large buffers mmap'd and
  // returned to the kernel when freed, instead of left on the heap.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  net::ignore_sigpipe();
  const std::string dataset = opt.work_dir + "/fleet-" + std::to_string(opt.seed) + ".lpds";
  build_fleet_file(dataset, opt.seed);  // reaped before any CPU baseline below

  // The benchmark's own map of the fleet (what every shard does), also
  // the source of report locations.
  std::vector<double> load_s;
  std::shared_ptr<const trace::TraceStore> fleet_store;
  for (int i = 0; i < 3; ++i) {
    Span span("trace", "load_store");
    const Clock::time_point t0 = Clock::now();
    fleet_store = trace::load_store(dataset);
    load_s.push_back(seconds_since(t0));
  }
  const Stream stream(churn, opt.seed, fleet_store);

  // --- Rounds: each runs a nominal-rate fleet, then the closed-loop
  // phases on another fresh fleet. Spreading both over the whole run, and
  // reporting medians over rounds, keeps a burst of host contention or
  // one unlucky placement of shard threads from setting the run's figures.
  const int rounds = std::max(3, static_cast<int>(opt.seconds / 2.5));
  const auto per_fleet =
      static_cast<std::uint64_t>(kNominalRate * kNominalShare * opt.seconds / rounds);
  const double window_s = kWindowShare * opt.seconds / rounds;
  const double burst_s = kBurstShare * opt.seconds / rounds;
  const auto max_reports = [](double s) {
    return static_cast<std::uint64_t>(kMaxRate * s) + kBurst;
  };
  const auto stopped_answering = [](const Phase& ph) {
    return ph.connection_lost || ph.answered < ph.count;
  };
  const std::uint64_t fleet_cap = kShards * kSessionShards * kChurnSessionCap;
  Stalls stalls;
  std::vector<double> setup_s;
  int fleet_index = 0;
  std::vector<NominalRun> runs;
  std::vector<ClosedRun> closed;
  double server_cpu_s = 0.0;
  bool collapsed = false;  // a fleet stopped answering: fails the checks
  for (int r = 0; r < rounds && !collapsed; ++r) {
    merge_stalls(stalls, probe_stalls(0.05));
    {
      NominalRun run;
      run.cfg = fleet_config(opt, churn, dataset, fleet_index++);
      const double cpu0 = children_cpu_s();
      Fleet fleet;
      setup_s.push_back(start_fleet(run.cfg, fleet));
      run.t_map = telemetry(fleet);
      {
        Span span("net", "nominal_phase");
        Generator gen(stream, fleet, opt.trace);
        run.ph = gen.run(kNominalRate, 0, per_fleet, /*record_xy=*/true);
      }
      if (stopped_answering(run.ph)) {
        collapsed = true;  // nothing more to measure
        kill_fleet(fleet);
        break;
      }
      run.t_load = telemetry(fleet);
      stop_fleet(fleet);
      server_cpu_s += children_cpu_s() - cpu0;
      // The in-process replay of the stream: witness + service ceiling.
      run.replay = replay_inprocess(stream, run.ph, run.cfg, opt.trace);
      run.summarize();
      runs.push_back(std::move(run));
    }
    {
      Fleet fleet;
      setup_s.push_back(start_fleet(fleet_config(opt, churn, dataset, fleet_index++), fleet));
      Generator gen(stream, fleet, false);
      // Bursts first, on an idle fleet: a saturated phase right before
      // them would leave this VM's vCPUs behind other tenants' in the
      // host's scheduler.
      Phase bursts;
      Phase window;
      {
        Span span("net", "burst_phase");
        bursts = gen.run_closed(0, kBurst, true, burst_s, max_reports(burst_s));
      }
      if (!stopped_answering(bursts)) {
        Span span("net", "window_phase");
        window = gen.run_closed(bursts.count, kWindow, false, window_s, max_reports(window_s));
      }
      ClosedRun run;
      run.once = true;
      for (const Phase* ph : {&bursts, &window}) {
        run.sent += ph->count;
        run.failed += ph->failed;
        run.once = run.once && !ph->connection_lost && ph->duplicates == 0 &&
                   std::all_of(ph->seen.begin(), ph->seen.end(),
                               [](std::uint8_t s) { return s == 1; });
      }
      run.saturated_rps = window.answered_per_s();
      run.window_p50_ms = window.p50_ms();
      run.burst_ms = median(bursts.burst_ms);
      run.bursts = bursts.burst_ms.size();
      if (stopped_answering(bursts) || stopped_answering(window)) {
        collapsed = true;
        kill_fleet(fleet);
      } else {
        const io::JsonValue t = telemetry(fleet);
        stop_fleet(fleet);
        run.drained = true;
        run.delivered =
            agg(t, "delivered") == static_cast<double>(window.delivered + bursts.delivered);
        const double created = agg(t, "sessions_created");
        run.mix = churn ? created == static_cast<double>(run.sent) &&
                              per_shard_sum(t, "counters", "sessions_evicted_lru") ==
                                  created - static_cast<double>(fleet_cap)
                        : agg(t, "suppressed_budget") == 0.0;
      }
      closed.push_back(run);
    }
  }
  if (runs.empty()) throw std::runtime_error("the first nominal-rate fleet stopped answering");

  // Closed-loop figures: sustained rate with kWindow reports in flight,
  // and each round's median burst. Every closed-loop report counts as
  // attempted.
  std::vector<double> saturated_rps;
  std::vector<double> window_p50;
  std::vector<double> burst_ms;
  std::uint64_t closed_sent = 0;
  std::uint64_t closed_failed = 0;
  std::size_t bursts_timed = 0;
  bool closed_once = !collapsed;
  bool closed_delivered = true;
  bool closed_mix = true;
  for (const ClosedRun& run : closed) {
    closed_sent += run.sent;
    closed_failed += run.failed;
    closed_once = closed_once && run.once;
    if (!run.drained) continue;  // killed: closed_once is already false
    closed_delivered = closed_delivered && run.delivered;
    closed_mix = closed_mix && run.mix;
    saturated_rps.push_back(run.saturated_rps);
    window_p50.push_back(run.window_p50_ms);
    burst_ms.push_back(run.burst_ms);
    bursts_timed += run.bursts;
  }

  // Output checks, per nominal fleet and on the closed-loop fleets.
  bool once = closed_once;
  bool delivered = closed_delivered;
  bool mix = closed_mix;
  bool identical = true;
  Phase pooled;  // every nominal run's counters together
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> p99s;
  std::vector<double> late_p99s;
  std::vector<double> rss_load;
  std::vector<double> rss_map;
  std::vector<double> handle_p50;
  std::vector<double> handle_p99;
  double sessions_created = 0.0;
  double evicted_lru = 0.0;
  double suppressed = 0.0;
  double rejected = 0.0;
  double lppm_s = 0.0;
  double replay_s = 0.0;
  io::JsonArray digests;
  for (const NominalRun& run : runs) {
    const Phase& ph = run.ph;
    once = once && run.once;
    delivered = delivered && agg(run.t_load, "delivered") == static_cast<double>(ph.delivered);
    const double evicted = per_shard_sum(run.t_load, "counters", "sessions_evicted_lru");
    mix = mix && (churn ? agg(run.t_load, "sessions_created") == static_cast<double>(ph.count) &&
                              evicted == static_cast<double>(ph.count - fleet_cap)
                        : agg(run.t_load, "suppressed_budget") == 0.0);
    identical = identical && run.replay.identical;
    digests.emplace_back(std::to_string(run.replay.digest));
    p50s.push_back(run.p50_ms);
    p90s.push_back(run.p90_ms);
    p99s.push_back(run.p99_ms);
    late_p99s.push_back(run.late_p99_ms);
    rss_load.push_back(max_rss_kb(run.t_load));
    rss_map.push_back(max_rss_kb(run.t_map));
    handle_p50.push_back(per_shard_sum(run.t_load, "latency", "p50_us") / kShards);
    handle_p99.push_back(per_shard_sum(run.t_load, "latency", "p99_us") / kShards);
    sessions_created += agg(run.t_load, "sessions_created");
    evicted_lru += evicted;
    suppressed += agg(run.t_load, "suppressed_budget");
    rejected += agg(run.t_load, "rejected_queue_full");
    lppm_s += run.replay.lppm_s;
    replay_s += run.replay.wall_s;
    pooled.count += ph.count;
    pooled.answered += ph.answered;
    pooled.failed += ph.failed;
    pooled.bytes_out += ph.bytes_out;
    pooled.bytes_in += ph.bytes_in;
    pooled.writes += ph.writes;
    pooled.reads += ph.reads;
    pooled.codec_s += ph.codec_s;
  }
  res.check("serve.every_tag_answered_once", once);
  res.check("serve.telemetry_delivered_matches_client", delivered);
  res.check(churn ? "serve.churn_new_session_and_lru_eviction_per_report"
                  : "serve.steady_none_suppressed",
            mix);
  res.check("serve.gateway_replay_identical", identical);

  res.attempted = pooled.count + closed_sent;
  res.failed = pooled.failed + closed_failed;

  const double p50_ms = median(p50s);
  const double cpu_us = pooled.answered > 0 ? server_cpu_s * 1e6 / pooled.answered : 0.0;
  const double rss_load_kb = median(rss_load);
  if (!opt.trace) {
    res.metric("setup_s", median(setup_s), "s");
    res.metric("answer_ms", median(burst_ms), "ms");
    res.metric("cpu_ms_per_answer", cpu_us * 1e-3, "ms");
    res.metric("peak_rss_mb", rss_load_kb / 1024.0, "MB");
  } else {
    const double n = static_cast<double>(pooled.count);
    const double answered = static_cast<double>(std::max<std::uint64_t>(1, pooled.answered));
    res.metric("trace.load_s", median(load_s), "s");
    res.metric("lppm.protect_s", lppm_s, "s");
    res.metric("lppm.events_per_s", lppm_s > 0 ? n / lppm_s : 0.0, "1/s");
    res.metric("lppm.report_us", report_loop_us(opt.seed), "us");
    res.metric("service.handle_p50_us", median(handle_p50), "us");
    res.metric("service.handle_p99_us", median(handle_p99), "us");
    res.metric("shard.outside_handle_p50_us", p50_ms * 1e3 - median(handle_p50), "us");
    res.metric("service.inproc_reports_per_s", n / replay_s, "1/s");
    res.metric("service.sessions_created", sessions_created, "count");
    res.metric("service.sessions_evicted_lru", evicted_lru, "count");
    res.metric("service.suppressed_budget", suppressed, "count");
    res.metric("service.rejected_queue_full", rejected, "count");
    res.metric("net.submit_bytes", static_cast<double>(pooled.bytes_out) / n, "B");
    res.metric("net.answer_bytes", static_cast<double>(pooled.bytes_in) / answered, "B");
    res.metric("net.client_writes_per_report", static_cast<double>(pooled.writes) / n, "ratio");
    res.metric("net.client_reads_per_answer", static_cast<double>(pooled.reads) / answered,
               "ratio");
    res.metric("net.client_codec_us", pooled.codec_s * 1e6 / n, "us");
    res.metric("shard.rss_after_map_kb", median(rss_map), "KiB");
    res.metric("shard.rss_after_load_kb", rss_load_kb, "KiB");
    res.metric("gen.late_p99_ms", median(late_p99s), "ms");
    res.metric("host.stall_frac", stalls.frac, "ratio");
    res.metric("host.stall_max_ms", stalls.max_ms, "ms");
    res.metric("host.ref_loop_ms", stalls.ref_loop_ms, "ms");
  }

  io::JsonObject d;
  d["shards"] = kShards;
  d["workers_per_shard"] = kWorkersPerShard;
  d["downstream_us"] = 0;
  d["nominal_rate_per_s"] = kNominalRate;
  d["rounds"] = rounds;
  d["nominal_rate_met"] = std::all_of(runs.begin(), runs.end(),
                                      [](const NominalRun& r) { return r.met; });
  d["users"] = churn ? static_cast<std::size_t>(pooled.count) : kSteadyUsers;
  d["setup_samples"] = setup_s.size();
  d["setup_s"] = median(setup_s);
  d["p50_ms"] = p50_ms;
  d["p50_ms_per_fleet"] = io::JsonArray(p50s.begin(), p50s.end());
  // Open-loop latencies: medians over rounds of each round's quantile;
  // latency_samples is one round's sample count.
  d["client.p90_ms"] = median(p90s);
  d["client.p99_ms"] = median(p99s);
  d["latency_samples"] = static_cast<double>(per_fleet);
  d["window"] = static_cast<std::size_t>(kWindow);
  d["saturated_rps"] = median(saturated_rps);
  d["saturated_rps_per_fleet"] = io::JsonArray(saturated_rps.begin(), saturated_rps.end());
  d["window_p50_ms"] = median(window_p50);
  d["burst_size"] = static_cast<std::size_t>(kBurst);
  d["burst_ms"] = median(burst_ms);
  d["burst_ms_per_fleet"] = io::JsonArray(burst_ms.begin(), burst_ms.end());
  d["bursts_timed"] = bursts_timed;
  d["closed_loop_reports"] = static_cast<double>(closed_sent);
  d["server_cpu_us_per_report"] = cpu_us;
  d["server_cpu_s"] = server_cpu_s;
  d["peak_rss_mb"] = rss_load_kb / 1024.0;
  d["fail_frac"] = static_cast<double>(res.failed) / static_cast<double>(res.attempted);
  d["gen_late_p99_ms"] = median(late_p99s);
  d["gateway_digests"] = std::move(digests);
  d["host_stall_frac"] = stalls.frac;
  d["host_stall_max_ms"] = stalls.max_ms;
  d["host_ref_loop_ms"] = stalls.ref_loop_ms;
  res.detail = std::move(d);
  return res;
}

}  // namespace perfbench
