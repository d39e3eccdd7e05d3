// Exception-free I/O over file descriptors — the dio-style stream layer
// (after dinit's dinit-iostream, SNIPPETS.md snippet 3).
//
// Why not stdlib iostreams: obtaining a useful error message from a
// failed std::ostream is implementation lottery — the spec allows
// errno-carrying exceptions but implementations map everything to one
// message, and the iostream machinery drags in locale state the hot
// path never needs. This layer is the replacement: every operation
// returns success/failure, the failing errno is reported to the
// caller, nothing here ever throws, and every syscall is wrapped
// EINTR-safe with MSG_NOSIGNAL on sockets (see read_some/write_some).
#pragma once

#include <cstddef>
#include <sys/types.h>

namespace locpriv::net {

/// One read(2)/recv(2), retried on EINTR. Returns the byte count, 0 at
/// EOF, or -1 with errno set (EAGAIN/EWOULDBLOCK pass through for
/// non-blocking fds).
[[nodiscard]] ssize_t read_some(int fd, void* buf, std::size_t n);

/// One write(2)/send(2), retried on EINTR. Sockets are written with
/// send(MSG_NOSIGNAL) so a peer hangup surfaces as EPIPE, never as a
/// process-killing SIGPIPE; non-sockets (pipes in tests) fall back to
/// write(2) under the ignore_sigpipe() disposition. Returns the byte
/// count or -1 with errno set.
[[nodiscard]] ssize_t write_some(int fd, const void* buf, std::size_t n);

/// Blocking loop until all `n` bytes are written. False on failure with
/// errno latched in *err (when non-null).
[[nodiscard]] bool write_all(int fd, const void* buf, std::size_t n, int* err = nullptr);

/// Blocking loop until all `n` bytes are read. False on EOF-before-n
/// (errno latched as 0) or on failure (errno latched).
[[nodiscard]] bool read_exact(int fd, void* buf, std::size_t n, int* err = nullptr);

}  // namespace locpriv::net
