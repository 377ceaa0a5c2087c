// conn.hpp — the connection layer shared by net::Server and
// cluster::Router (DESIGN.md §8).
//
// Both event loops handle non-blocking framed connections the same way,
// and this header is the one implementation of it:
//  - accept_pending(): accept with a connection cap, refusing the excess
//    with a typed Error(ServerFull);
//  - FramedConn::read(): non-blocking read with backpressure at one
//    max-size frame;
//  - FramedConn::next_frame(): split complete frames out with
//    peek_header and report a bad header;
//  - FramedConn::queue() / flush(): compact, append and send the write
//    buffer. A buffer past kBufShrinkBytes gives its capacity back once
//    it drains;
//  - LoopThread: the loop thread's listener, self-pipe wake and
//    start / stop / wait, with the wake's write end retired after join.
// Policy stays with the callers: what a frame means, when a connection
// is idle, which counters move and where faults are injected.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"

namespace randla::net {

/// A buffer grows by doubling to the largest frame ever seen on its
/// connection; once it fully drains, capacity above this goes back to
/// the allocator, so one big upload does not pin ~64 MiB per connection.
inline constexpr std::size_t kBufShrinkBytes = 64 * 1024;

/// Bytes moved by one read() or flush(), and whether the peer is gone
/// (EOF or a hard socket error).
struct IoResult {
  std::size_t bytes = 0;
  bool peer_gone = false;
};

/// One complete frame split out of a FramedConn's read buffer. `data`
/// points into that buffer: valid until the next read() or NeedMore.
struct Frame {
  FrameHeader hdr;
  const std::uint8_t* data = nullptr;  ///< header + payload
  std::size_t size = 0;                ///< kHeaderBytes + payload_len
  const std::uint8_t* payload() const { return data + kHeaderBytes; }
};

/// The buffers and framing of one non-blocking socket. The owner closes
/// `fd`.
struct FramedConn {
  int fd = -1;
  std::vector<std::uint8_t> rbuf;
  std::size_t roff = 0;  ///< parsed prefix of rbuf
  std::vector<std::uint8_t> wbuf;
  std::size_t woff = 0;  ///< flushed prefix of wbuf
  double last_active = 0;
  /// Poisoned (a bad frame was answered): no further frames are split
  /// out, and the owner closes the connection once wbuf drains.
  bool close_after_flush = false;

  /// Read until EAGAIN, EOF or error. Stops early while more than one
  /// max-size frame is buffered: next_frame() must drain it first.
  IoResult read(std::size_t max_frame_bytes);

  /// The next complete frame, advancing past it (Ok). NeedMore when none
  /// is complete or the connection is poisoned; the parsed prefix is
  /// then compacted away. Any other status is a bad header: the read
  /// buffer is discarded and the connection poisoned.
  HeaderStatus next_frame(std::size_t max_frame_bytes, Frame* out);

  /// Append bytes to the write buffer, compacting the flushed prefix.
  void queue(const std::uint8_t* data, std::size_t size);
  void queue(const std::vector<std::uint8_t>& frame) {
    queue(frame.data(), frame.size());
  }
  bool has_output() const { return woff < wbuf.size(); }
  /// This connection's entry in the loop's poll set.
  pollfd poll_entry() const {
    return pollfd{fd, static_cast<short>(has_output() ? POLLIN | POLLOUT
                                                      : POLLIN), 0};
  }
  /// Send until wbuf drains or the socket would block.
  IoResult flush();
};

/// The typed reply to a header next_frame() rejected: Error(TooLarge)
/// for an oversized payload_len, Error(BadFrame) otherwise.
std::vector<std::uint8_t> malformed_frame_error(HeaderStatus hs);

/// Accept every queued connection on `listen_fd`. While fewer than `cap`
/// are `open`, each new socket (non-blocking, TCP_NODELAY) goes to
/// `admit`; past the cap it gets a best-effort Error(ServerFull) and is
/// closed. Returns the number refused.
std::uint64_t accept_pending(int listen_fd, int cap, std::size_t open,
                             const std::function<void(int fd)>& admit);

/// The loop's self-pipe write end. Other threads (stop(), job callbacks,
/// Router::drain) may signal after the loop exited, so the fd lives in
/// shared state and LoopThread::wait() retires it (fd = -1) under `mu`
/// before closing the pipe: nobody ever writes to a wake fd that may be
/// closed, or reused by a later descriptor.
struct Wake {
  std::mutex mu;
  int fd = -1;
  /// A wake byte is on its way; the loop clears this only *after*
  /// draining the pipe, so a signal that finds it set is never lost.
  std::atomic<bool> pending{false};

  void signal();
};

/// The event-loop thread: listener, self-pipe and lifecycle. Destroying
/// it stops the loop, so the owner declares it after every member the
/// loop body uses.
struct LoopThread {
  LoopThread() = default;
  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;
  ~LoopThread() { stop(); }

  int listen_fd = -1;
  std::uint16_t port = 0;  ///< bound port, valid after start()
  int wake_r = -1;
  std::shared_ptr<Wake> wake = std::make_shared<Wake>();
  std::atomic<bool> started{false};
  std::atomic<bool> alive{false};
  std::atomic<bool> stop_requested{false};

  /// Bind + listen + open the self-pipe + run `body` on the loop thread.
  /// False (with stderr detail prefixed by `who`) on failure. Idempotent
  /// once started.
  bool start(const std::string& bind_addr, std::uint16_t listen_port,
             const char* who, std::function<void()> body);
  /// Ask the loop to drain and exit, then wait().
  void stop();
  /// Join the loop thread, then retire and close the self-pipe.
  void wait();
  /// One poll(2) round of at most `timeout_ms` over the listener (while
  /// open), the self-pipe and the caller's `fds`, whose revents it
  /// fills. Empties the self-pipe and calls `accept` when the listener
  /// is readable. False on a poll error other than EINTR.
  bool poll(std::vector<pollfd>& fds, int timeout_ms,
            const std::function<void()>& accept);
  void close_listener();

 private:
  std::thread thread_;
  std::mutex join_mu_;
};

}  // namespace randla::net
