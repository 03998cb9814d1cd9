#include "serve/transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/strings.h"

namespace autobi {

namespace {

// Longest request line a transport buffers. An upload's CSV may grow 6x
// when JSON-escaped (every byte as \u00XX), plus 1 MiB for the rest of the
// envelope. A max_csv_bytes of 0 (no CSV cap) leaves lines unbounded too.
size_t MaxLineBytes(const ServeOptions& options) {
  constexpr size_t kEnvelopeBytes = size_t{1} << 20;
  constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();
  if (options.max_csv_bytes == 0 ||
      options.max_csv_bytes > (kUnbounded - kEnvelopeBytes) / 6) {
    return kUnbounded;
  }
  return options.max_csv_bytes * 6 + kEnvelopeBytes;
}

// Splits a byte stream into request lines and answers each through the
// engine. A line longer than MaxLineBytes is never buffered whole: it gets
// one error response as soon as it crosses the cap, and its remaining bytes
// are dropped up to its newline, after which serving continues.
class LineFramer {
 public:
  explicit LineFramer(ServeEngine* engine)
      : engine_(engine), max_line_(MaxLineBytes(engine->options())) {}

  // Consumes `n` bytes and passes each response line (without its '\n') to
  // `emit`, which returns false if the response could not be delivered.
  // Returns false once `emit` fails or the engine accepts a shutdown.
  template <typename Emit>
  bool Feed(const char* data, size_t n, const Emit& emit) {
    pending_.append(data, n);
    size_t start = 0;
    // pending_[0, scanned_) is known to hold no '\n': each call scans only
    // the new bytes, so framing a long line stays linear in its length.
    for (size_t nl = pending_.find('\n', scanned_); nl != std::string::npos;
         nl = pending_.find('\n', start)) {
      std::string_view line(pending_.data() + start, nl - start);
      start = nl + 1;
      if (discarding_) {
        discarding_ = false;  // The rest of an over-cap line ends here.
        continue;
      }
      if (!Answer(line, emit)) return false;
    }
    pending_.erase(0, start);
    if (discarding_) {
      pending_.clear();
    } else if (pending_.size() > max_line_) {
      pending_.clear();
      discarding_ = true;
      if (!emit(OverCapResponse())) return false;
    }
    scanned_ = pending_.size();
    return true;
  }

  // End of input: answers a final line that had no trailing newline.
  template <typename Emit>
  void Finish(const Emit& emit) {
    if (!discarding_) Answer(pending_, emit);
  }

 private:
  template <typename Emit>
  bool Answer(std::string_view line, const Emit& emit) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) {
      bool delivered = line.size() > max_line_
                           ? emit(OverCapResponse())
                           : emit(engine_->HandleLine(line));
      if (!delivered) return false;
    }
    return !engine_->shutdown_requested();
  }

  std::string OverCapResponse() const {
    return MakeErrorResponse(
               nullptr, Status::ResourceExhausted(StrFormat(
                            "request line over the %zu-byte cap", max_line_)))
        .Write();
  }

  ServeEngine* engine_;
  const size_t max_line_;
  std::string pending_;
  size_t scanned_ = 0;
  bool discarding_ = false;  // Dropping the tail of an over-cap line.
};

// Reads buffered lines from `fd`, dispatching each through the engine.
// Returns on EOF, error, or engine shutdown. `wake_fd` is the read end of
// the transport's self-pipe: the engine's shutdown callback writes one byte
// there (which is never drained, so the pipe stays level-triggered
// readable), waking every blocked poller at once — shutdown accepted on one
// connection unblocks all others immediately, with no polling interval.
void ServeConnection(ServeEngine* engine, int fd, int wake_fd) {
  auto emit = [fd](std::string response) {
    response.push_back('\n');
    size_t off = 0;
    while (off < response.size()) {
      ssize_t w = ::write(fd, response.data() + off, response.size() - off);
      if (w <= 0) return false;
      off += size_t(w);
    }
    return true;
  };
  LineFramer framer(engine);
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
    if (!framer.Feed(buf, size_t(n), emit)) break;
  }
  ::close(fd);
}

}  // namespace

Status RunStdioServer(ServeEngine* engine) {
  // The daemon's only stdout traffic is this loop (diagnostics go to stderr
  // through fprintf), so the C stdio sync is pure per-character overhead.
  std::ios::sync_with_stdio(false);
  auto emit = [](const std::string& response) {
    std::cout << response << "\n" << std::flush;
    return bool(std::cout);
  };
  LineFramer framer(engine);
  char buf[64 * 1024];
  while (!engine->shutdown_requested()) {
    ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      framer.Finish(emit);
      break;
    }
    if (!framer.Feed(buf, size_t(n), emit)) break;
  }
  return Status::Ok();
}

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
