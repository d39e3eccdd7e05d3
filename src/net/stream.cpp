#include "net/stream.h"

#include <cerrno>
#include <sys/socket.h>
#include <unistd.h>

namespace locpriv::net {

ssize_t read_some(int fd, void* buf, std::size_t n) {
  while (true) {
    const ssize_t got = ::read(fd, buf, n);
    if (got >= 0 || errno != EINTR) return got;
  }
}

ssize_t write_some(int fd, const void* buf, std::size_t n) {
  while (true) {
    // send() only works on sockets; ENOTSOCK falls back to write(2).
    ssize_t put = ::send(fd, buf, n, MSG_NOSIGNAL);
    if (put < 0 && errno == ENOTSOCK) put = ::write(fd, buf, n);
    if (put >= 0 || errno != EINTR) return put;
  }
}

bool write_all(int fd, const void* buf, std::size_t n, int* err) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = write_some(fd, p, n);
    if (put < 0) {
      if (err != nullptr) *err = errno;
      return false;
    }
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

bool read_exact(int fd, void* buf, std::size_t n, int* err) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = read_some(fd, p, n);
    if (got <= 0) {
      if (err != nullptr) *err = got == 0 ? 0 : errno;
      return false;
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

}  // namespace locpriv::net
