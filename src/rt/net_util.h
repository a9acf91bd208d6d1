#ifndef GRAPE_RT_NET_UTIL_H_
#define GRAPE_RT_NET_UTIL_H_

// Raw-fd I/O helpers shared by the multi-process transport backend
// (rt/tcp_transport.cc) and the serve listener and client (serve/).
// Everything here is async-signal-safe — plain syscalls over
// caller-provided memory, no malloc, no stdio, no locks — because the tcp
// endpoint children are forked from a multi-threaded parent and may only
// run code of this kind. EINTR is always retried; a dead peer surfaces as a return code
// (via MSG_NOSIGNAL), never as SIGPIPE.

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>

namespace grape {
namespace net {

/// Reads exactly `n` bytes. Returns 1 on success, 0 on clean EOF before
/// the first byte, -1 on error or EOF mid-record.
inline int ReadFullFd(int fd, uint8_t* p, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t k = read(fd, p + got, n - got);
    if (k == 0) return got == 0 ? 0 : -1;
    if (k < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return -1;
    }
    got += static_cast<size_t>(k);
  }
  return 1;
}

/// Writes exactly `n` bytes, looping over short writes. MSG_NOSIGNAL so a
/// dead peer surfaces as EPIPE, not SIGPIPE.
inline bool WriteFullFd(int fd, const uint8_t* p, size_t n) {
  size_t put = 0;
  while (put < n) {
    ssize_t k = send(fd, p + put, n - put, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    put += static_cast<size_t>(k);
  }
  return true;
}

/// Writes every byte of an iovec array, looping over short writes that
/// can land mid-element (sendmsg so MSG_NOSIGNAL applies). Used to gather
/// a frame header with its payload into one segment.
inline bool WritevFullFd(int fd, struct iovec* iov, size_t iovcnt) {
  struct msghdr msg {};
  msg.msg_iov = iov;
  msg.msg_iovlen = iovcnt;
  for (;;) {
    ssize_t k = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    size_t adv = static_cast<size_t>(k);
    while (msg.msg_iovlen > 0 && adv >= msg.msg_iov[0].iov_len) {
      adv -= msg.msg_iov[0].iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen == 0) return true;
    msg.msg_iov[0].iov_base =
        static_cast<uint8_t*>(msg.msg_iov[0].iov_base) + adv;
    msg.msg_iov[0].iov_len -= adv;
  }
}

/// Streams `n` payload bytes from `in` to `out` through `buf` without
/// buffering the whole frame. EOF mid-payload is a protocol violation.
inline bool RelayPayload(int in, int out, uint8_t* buf, size_t buf_size,
                         size_t n) {
  while (n > 0) {
    size_t want = n < buf_size ? n : buf_size;
    ssize_t k = read(in, buf, want);
    if (k <= 0) {
      if (k < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      return false;
    }
    if (!WriteFullFd(out, buf, static_cast<size_t>(k))) return false;
    n -= static_cast<size_t>(k);
  }
  return true;
}

}  // namespace net
}  // namespace grape

#endif  // GRAPE_RT_NET_UTIL_H_
