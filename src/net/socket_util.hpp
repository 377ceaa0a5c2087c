// socket_util.hpp — the nonblocking-socket / connect / sockaddr setup
// shared by net::Server, net::Client, and cluster::Router.
//
// Every TCP endpoint in the tree needs the same four moves: parse a
// dotted-quad into a sockaddr_in, bind+listen a nonblocking listener,
// connect a TCP_NODELAY client socket, and flip O_NONBLOCK / SO_RCVTIMEO
// on an fd. They used to be copy-pasted per call site; this header is
// the single implementation. All helpers are errno-preserving and report
// failure detail through an optional out-string instead of stderr so
// callers decide how loud to be. The framed-connection layer built on
// top of these (accept, buffers, framing, the loop's wake pipe) is
// net/conn.hpp.
#pragma once

#include <cstdint>
#include <string>

struct sockaddr_in;

namespace randla::net {

/// Set O_NONBLOCK on `fd` (best-effort; a failed fcntl is ignored, the
/// caller's poll loop degrades to blocking I/O rather than erroring).
void set_nonblocking(int fd);

/// Disable Nagle on `fd` (request/reply frames must not coalesce).
void set_tcp_nodelay(int fd);

/// Arm SO_RCVTIMEO with fractional seconds; `seconds` ≤ 0 leaves the
/// socket blocking forever. Returns false if setsockopt failed.
bool set_recv_timeout(int fd, double seconds);

/// Fill `out` from a dotted-quad IPv4 address + port. False (without
/// touching errno) on a malformed address.
bool make_sockaddr_in(const std::string& host, std::uint16_t port,
                      sockaddr_in* out);

/// Create + SO_REUSEADDR + bind + listen a nonblocking IPv4 listener.
/// `port` 0 picks an ephemeral port; the port actually bound is written
/// to `bound_port` when non-null. Returns the listening fd, or -1 with
/// a diagnostic in `err` (when non-null).
int listen_tcp(const std::string& bind_addr, std::uint16_t port, int backlog,
               std::uint16_t* bound_port, std::string* err);

/// Blocking IPv4 connect with TCP_NODELAY set. Returns the connected
/// fd, or -1 with a diagnostic in `err` (when non-null). The fd is left
/// blocking; callers that poll it call set_nonblocking() themselves.
int connect_tcp(const std::string& host, std::uint16_t port, std::string* err);

}  // namespace randla::net
