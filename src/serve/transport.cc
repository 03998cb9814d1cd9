#include "serve/transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"

namespace autobi {

Status RunStdioServer(ServeEngine* engine) {
  // The daemon's only stdio traffic is this loop (diagnostics go to stderr
  // through fprintf), so the C stdio sync and the cin->cout tie are pure
  // per-character overhead.
  std::ios::sync_with_stdio(false);
  std::cin.tie(nullptr);
  std::string line;
  while (!engine->shutdown_requested() && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::cout << engine->HandleLine(line) << "\n" << std::flush;
  }
  return Status::Ok();
}

namespace {

// Reads buffered lines from `fd`, dispatching each through the engine.
// Returns on EOF, error, or engine shutdown. `wake_fd` is the read end of
// the transport's self-pipe: the engine's shutdown callback writes one byte
// there (which is never drained, so the pipe stays level-triggered
// readable), waking every blocked poller at once — shutdown accepted on one
// connection unblocks all others immediately, with no polling interval.
void ServeConnection(ServeEngine* engine, int fd, int wake_fd) {
  std::string pending;
  // pending[0, scanned) is known to hold no '\n': each read scans only the
  // new bytes, so framing a long line stays linear in its length.
  size_t scanned = 0;
  char buf[64 * 1024];
  while (true) {
    struct pollfd pfds[2];
    pfds[0].fd = fd;
    pfds[0].events = POLLIN;
    pfds[1].fd = wake_fd;
    pfds[1].events = POLLIN;
    int ready = ::poll(pfds, 2, -1);
    if (engine->shutdown_requested()) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents != 0) break;  // Shutdown wakeup.
    if ((pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;  // EOF or error.
    pending.append(buf, size_t(n));
    size_t start = 0;
    for (size_t nl = pending.find('\n', scanned); nl != std::string::npos;
         nl = pending.find('\n', start)) {
      std::string_view line(pending.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) {
        std::string response = engine->HandleLine(line);
        response.push_back('\n');
        size_t off = 0;
        while (off < response.size()) {
          ssize_t w =
              ::write(fd, response.data() + off, response.size() - off);
          if (w <= 0) {
            ::close(fd);
            return;
          }
          off += size_t(w);
        }
      }
      start = nl + 1;
      if (engine->shutdown_requested()) {
        ::close(fd);
        return;
      }
    }
    pending.erase(0, start);
    scanned = pending.size();
  }
  ::close(fd);
}

}  // namespace

Status RunUnixSocketServer(ServeEngine* engine, const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidInput(
        StrFormat("socket path too long (%zu bytes)", path.size()));
  }
  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return Status::Internal(
        StrFormat("socket() failed: %s", std::strerror(errno)));
  }
  ::unlink(path.c_str());  // Replace a stale socket from a previous run.
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::Internal(
        StrFormat("bind(%s) failed: %s", path.c_str(), std::strerror(errno)));
    ::close(listen_fd);
    return status;
  }
  if (::listen(listen_fd, 16) < 0) {
    Status status = Status::Internal(
        StrFormat("listen failed: %s", std::strerror(errno)));
    ::close(listen_fd);
    ::unlink(path.c_str());
    return status;
  }

  // Self-pipe shutdown wakeup: the engine's shutdown callback writes one
  // byte to the pipe, which is never read back — it stays level-triggered
  // readable, so the accept loop and every connection poller unblock at
  // once instead of timing out on a polling interval.
  int wake[2];
  if (::pipe(wake) != 0) {
    Status status = Status::Internal(
        StrFormat("pipe failed: %s", std::strerror(errno)));
    ::close(listen_fd);
    ::unlink(path.c_str());
    return status;
  }
  const int wake_write = wake[1];
  engine->SetShutdownCallback([wake_write] {
    char byte = 1;
    ssize_t ignored = ::write(wake_write, &byte, 1);
    (void)ignored;
  });

  std::vector<std::thread> connections;
  while (!engine->shutdown_requested()) {
    struct pollfd pfds[2];
    pfds[0].fd = listen_fd;
    pfds[0].events = POLLIN;
    pfds[1].fd = wake[0];
    pfds[1].events = POLLIN;
    int ready = ::poll(pfds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents != 0) break;  // Shutdown wakeup.
    if ((pfds[0].revents & POLLIN) == 0) continue;
    int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) continue;
    connections.emplace_back(ServeConnection, engine, conn_fd, wake[0]);
  }
  for (std::thread& t : connections) t.join();
  engine->SetShutdownCallback(nullptr);
  ::close(wake[0]);
  ::close(wake[1]);
  ::close(listen_fd);
  ::unlink(path.c_str());
  return Status::Ok();
}

}  // namespace autobi
