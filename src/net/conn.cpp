#include "net/conn.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "net/socket_util.hpp"

namespace randla::net {

namespace {

void shrink_if_drained(std::vector<std::uint8_t>& buf) {
  if (buf.empty() && buf.capacity() > kBufShrinkBytes) buf.shrink_to_fit();
}

}  // namespace

IoResult FramedConn::read(std::size_t max_frame_bytes) {
  IoResult r;
  std::uint8_t buf[65536];
  while (rbuf.size() - roff <= max_frame_bytes + kHeaderBytes) {
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      rbuf.insert(rbuf.end(), buf, buf + n);
      r.bytes += static_cast<std::size_t>(n);
      continue;
    }
    // EOF or a hard error. The caller still parses what already arrived:
    // a frame followed by an immediate close (a fire-and-forget Shutdown)
    // must take effect.
    r.peer_gone = !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    break;
  }
  return r;
}

HeaderStatus FramedConn::next_frame(std::size_t max_frame_bytes, Frame* out) {
  HeaderStatus hs = HeaderStatus::NeedMore;
  if (!close_after_flush) {
    hs = peek_header(rbuf.data() + roff, rbuf.size() - roff, &out->hdr,
                     max_frame_bytes);
    if (hs == HeaderStatus::Ok &&
        rbuf.size() - roff - kHeaderBytes < out->hdr.payload_len)
      hs = HeaderStatus::NeedMore;
  }
  if (hs == HeaderStatus::Ok) {
    out->data = rbuf.data() + roff;
    out->size = kHeaderBytes + out->hdr.payload_len;
    roff += out->size;
    return hs;
  }
  if (hs != HeaderStatus::NeedMore) {
    close_after_flush = true;
    roff = rbuf.size();  // the stream is desynced: discard the rest
  }
  rbuf.erase(rbuf.begin(), rbuf.begin() + static_cast<std::ptrdiff_t>(roff));
  roff = 0;
  shrink_if_drained(rbuf);
  return hs;
}

void FramedConn::queue(const std::uint8_t* data, std::size_t size) {
  if (woff > 0) {
    wbuf.erase(wbuf.begin(), wbuf.begin() + static_cast<std::ptrdiff_t>(woff));
    woff = 0;
    shrink_if_drained(wbuf);
  }
  wbuf.insert(wbuf.end(), data, data + size);
}

IoResult FramedConn::flush() {
  IoResult r;
  while (woff < wbuf.size()) {
    const ssize_t n =
        send(fd, wbuf.data() + woff, wbuf.size() - woff, MSG_NOSIGNAL);
    if (n > 0) {
      woff += static_cast<std::size_t>(n);
      r.bytes += static_cast<std::size_t>(n);
      continue;
    }
    r.peer_gone = !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    return r;
  }
  // Fully flushed: an idle connection must not pin the capacity of its
  // largest-ever reply between requests.
  wbuf.clear();
  woff = 0;
  shrink_if_drained(wbuf);
  return r;
}

std::vector<std::uint8_t> malformed_frame_error(HeaderStatus hs) {
  const ErrorCode code =
      hs == HeaderStatus::TooLarge ? ErrorCode::TooLarge : ErrorCode::BadFrame;
  return encode_error(ErrorReply{0, code, "malformed frame"});
}

std::uint64_t accept_pending(int listen_fd, int cap, std::size_t open,
                             const std::function<void(int fd)>& admit) {
  std::uint64_t refused = 0;
  for (;;) {
    const int fd = accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return refused;
    if (static_cast<long long>(open) >= cap) {
      // Best-effort typed refusal on the fresh (empty-buffer) socket.
      const auto frame = encode_error(
          ErrorReply{0, ErrorCode::ServerFull, "connection cap reached"});
      ssize_t ignored = send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      (void)ignored;
      close(fd);
      ++refused;
      continue;
    }
    set_tcp_nodelay(fd);
    admit(fd);
    ++open;
  }
}

void Wake::signal() {
  if (pending.exchange(true)) return;
  std::lock_guard<std::mutex> lk(mu);
  if (fd >= 0) {
    const char b = 1;
    ssize_t ignored = write(fd, &b, 1);
    (void)ignored;
  }
}

bool LoopThread::start(const std::string& bind_addr, std::uint16_t listen_port,
                       const char* who, std::function<void()> body) {
  if (started.load()) return true;
  std::string err;
  listen_fd = listen_tcp(bind_addr, listen_port, /*backlog=*/64, &port, &err);
  if (listen_fd < 0) {
    std::fprintf(stderr, "%s: %s\n", who, err.c_str());
    return false;
  }
  int pipefd[2];
  if (pipe(pipefd) != 0) {
    close_listener();
    return false;
  }
  wake_r = pipefd[0];
  wake->fd = pipefd[1];
  set_nonblocking(wake_r);
  started.store(true);
  alive.store(true);
  thread_ = std::thread([this, body = std::move(body)] {
    body();
    close_listener();
    // The wake pipe stays open: another thread may be writing a wake
    // byte right now. wait() closes it after the join.
    alive.store(false);
  });
  return true;
}

void LoopThread::stop() {
  if (!started.load()) return;
  stop_requested.store(true);
  wake->signal();
  wait();
}

void LoopThread::wait() {
  std::lock_guard<std::mutex> lk(join_mu_);
  if (thread_.joinable()) thread_.join();
  // The loop is gone; retire the write end under the lock every wake
  // write takes, so late signals see fd = -1 and skip.
  {
    std::lock_guard<std::mutex> wk(wake->mu);
    if (wake->fd >= 0) close(wake->fd);
    wake->fd = -1;
  }
  if (wake_r >= 0) close(wake_r);
  wake_r = -1;
}

bool LoopThread::poll(std::vector<pollfd>& fds, int timeout_ms,
                      const std::function<void()>& accept) {
  std::vector<pollfd> all{pollfd{wake_r, POLLIN, 0}};
  if (listen_fd >= 0) all.push_back(pollfd{listen_fd, POLLIN, 0});
  const std::size_t own = all.size();
  all.insert(all.end(), fds.begin(), fds.end());
  if (::poll(all.data(), all.size(), timeout_ms) < 0) return errno == EINTR;
  for (std::size_t i = 0; i < fds.size(); ++i)
    fds[i].revents = all[own + i].revents;
  if (all[0].revents != 0) {
    char buf[64];
    while (read(wake_r, buf, sizeof buf) > 0) {
    }
    // Clear after the drain, never before: a signal between a clear and
    // the drain would have its byte eaten with the flag left set, and
    // every later wake would wait for the tick.
    wake->pending.store(false);
  }
  if (own == 2 && all[1].revents != 0) accept();
  return true;
}

void LoopThread::close_listener() {
  if (listen_fd >= 0) close(listen_fd);
  listen_fd = -1;
}

}  // namespace randla::net
