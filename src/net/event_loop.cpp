#include "net/event_loop.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <poll.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "net/error.h"
#include "net/stream.h"

namespace locpriv::net {
namespace {

int signal_pipe_write_fd = -1;  // set once before any handler installs

void signal_pipe_handler(int signo) {
  // Async-signal-safe: one write to a non-blocking pipe. A full pipe
  // drops the byte, which is fine — the loop drains and re-checks state
  // on every wake, so coalesced signals behave like a single delivery.
  const int saved_errno = errno;
  const unsigned char byte = static_cast<unsigned char>(signo);
  [[maybe_unused]] const ssize_t n = ::write(signal_pipe_write_fd, &byte, 1);
  errno = saved_errno;
}

bool make_wake_pipe(Fd& read_end, Fd& write_end) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  read_end.reset(fds[0]);
  write_end.reset(fds[1]);
  return set_nonblocking(fds[0]) && set_nonblocking(fds[1]) && set_cloexec(fds[0]) &&
         set_cloexec(fds[1]);
}

}  // namespace

EventLoop::EventLoop(Backend backend) : backend_(backend) {
#ifdef __linux__
  if (backend_ == Backend::kDefault) backend_ = Backend::kEpoll;
#else
  if (backend_ == Backend::kDefault || backend_ == Backend::kEpoll) backend_ = Backend::kPoll;
#endif
  if (!make_wake_pipe(wake_read_, wake_write_)) {
    std::fprintf(stderr, "%s\n", errno_message("event loop: wake pipe").c_str());
    std::abort();
  }
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    epoll_fd_.reset(::epoll_create1(EPOLL_CLOEXEC));
    if (!epoll_fd_.valid()) {
      std::fprintf(stderr, "%s\n", errno_message("event loop: epoll_create1").c_str());
      std::abort();
    }
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.fd = wake_read_.get();
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_read_.get(), &ev) != 0) {
      std::fprintf(stderr, "%s\n", errno_message("event loop: epoll_ctl(wake)").c_str());
      std::abort();
    }
  }
#endif
}

EventLoop::~EventLoop() = default;

bool EventLoop::add(int fd, unsigned interest, Callback cb) {
  if (fd < 0 || entries_.count(fd) != 0) return false;
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    struct epoll_event ev = {};
    ev.events = (interest & kEventRead ? EPOLLIN : 0u) | (interest & kEventWrite ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  }
#endif
  entries_[fd] = Entry{interest, next_gen_++, std::move(cb)};
  return true;
}

bool EventLoop::modify(int fd, unsigned interest) {
  const auto it = entries_.find(fd);
  if (it == entries_.end()) return false;
  // Level-triggered, so an unchanged mask needs no re-arm. Skipping it
  // saves the epoll_ctl that FrameServer::flush_all() would otherwise
  // issue for every connection on every wakeup.
  if (it->second.interest == interest) return true;
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    struct epoll_event ev = {};
    ev.events = (interest & kEventRead ? EPOLLIN : 0u) | (interest & kEventWrite ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) return false;
  }
#endif
  it->second.interest = interest;
  return true;
}

void EventLoop::remove(int fd) {
  const auto it = entries_.find(fd);
  if (it == entries_.end()) return;
#ifdef __linux__
  if (backend_ == Backend::kEpoll) {
    // May fail if the fd is already closed; registration dies with the
    // fd in that case, so a failure here is not actionable.
    (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  }
#endif
  entries_.erase(it);
}

int EventLoop::wait_epoll(int timeout_ms, std::vector<std::pair<int, unsigned>>& ready) {
#ifdef __linux__
  struct epoll_event events[64];
  int n;
  do {
    n = ::epoll_wait(epoll_fd_.get(), events, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return n;
  for (int i = 0; i < n; ++i) {
    unsigned mask = 0;
    if (events[i].events & (EPOLLIN | EPOLLHUP)) mask |= kEventRead;
    if (events[i].events & EPOLLOUT) mask |= kEventWrite;
    if (events[i].events & (EPOLLERR | EPOLLHUP)) mask |= kEventError;
    const int ready_fd = events[i].data.fd;
    ready.emplace_back(ready_fd, mask);
  }
  return n;
#else
  (void)timeout_ms;
  (void)ready;
  return -1;
#endif
}

int EventLoop::wait_poll(int timeout_ms, std::vector<std::pair<int, unsigned>>& ready) {
  std::vector<struct pollfd> pfds;
  pfds.reserve(entries_.size() + 1);
  pfds.push_back({wake_read_.get(), POLLIN, 0});
  for (const auto& [fd, entry] : entries_) {
    short events = 0;
    if (entry.interest & kEventRead) events |= POLLIN;
    if (entry.interest & kEventWrite) events |= POLLOUT;
    pfds.push_back({fd, events, 0});
  }
  int n;
  do {
    n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return n;
  for (const auto& pfd : pfds) {
    if (pfd.revents == 0) continue;
    unsigned mask = 0;
    if (pfd.revents & (POLLIN | POLLHUP)) mask |= kEventRead;
    if (pfd.revents & POLLOUT) mask |= kEventWrite;
    if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) mask |= kEventError;
    ready.emplace_back(pfd.fd, mask);
  }
  return n;
}

int EventLoop::run_once(int timeout_ms) {
  std::vector<std::pair<int, unsigned>> ready;
  const int n = backend_ == Backend::kEpoll ? wait_epoll(timeout_ms, ready)
                                            : wait_poll(timeout_ms, ready);
  if (n <= 0) return 0;

  // Snapshot generations before dispatch: a callback may remove any
  // registration (and the fd number may be re-added, even re-used by a
  // fresh accept) — stale events must not reach the new owner.
  std::vector<std::tuple<int, unsigned, std::uint64_t>> batch;
  batch.reserve(ready.size());
  for (const auto& [fd, mask] : ready) {
    if (fd == wake_read_.get()) {
      char buf[256];
      while (read_some(wake_read_.get(), buf, sizeof buf) > 0) {
      }
      continue;
    }
    const auto it = entries_.find(fd);
    if (it != entries_.end()) batch.emplace_back(fd, mask, it->second.gen);
  }

  int dispatched = 0;
  for (const auto& [fd, mask, gen] : batch) {
    const auto it = entries_.find(fd);
    if (it == entries_.end() || it->second.gen != gen) continue;
    // Copy the callback: the entry may be erased (invalidating the
    // stored std::function) while it is executing.
    Callback cb = it->second.cb;
    cb(mask);
    ++dispatched;
  }
  return dispatched;
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_) (void)run_once(-1);
}

void EventLoop::wake() {
  const char byte = 0;
  // Non-blocking pipe: EAGAIN means a wake is already pending — good.
  while (::write(wake_write_.get(), &byte, 1) < 0 && errno == EINTR) {
  }
}

SignalPipe::SignalPipe() {
  if (!make_wake_pipe(read_fd_, write_fd_)) {
    std::fprintf(stderr, "%s\n", errno_message("signal pipe").c_str());
    std::abort();
  }
  signal_pipe_write_fd = write_fd_.get();
}

SignalPipe& SignalPipe::instance() {
  static SignalPipe pipe;
  return pipe;
}

bool SignalPipe::watch(int signo) {
  struct sigaction sa = {};
  sa.sa_handler = signal_pipe_handler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  return ::sigaction(signo, &sa, nullptr) == 0;
}

void SignalPipe::unwatch(int signo) {
  struct sigaction sa = {};
  sa.sa_handler = SIG_DFL;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(signo, &sa, nullptr);
}

std::vector<int> SignalPipe::drain() {
  std::vector<int> out;
  unsigned char buf[64];
  ssize_t got;
  while ((got = read_some(read_fd_.get(), buf, sizeof buf)) > 0) {
    for (ssize_t i = 0; i < got; ++i) out.push_back(buf[i]);
  }
  return out;
}

}  // namespace locpriv::net
