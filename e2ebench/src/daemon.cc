#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

namespace e2ebench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int ConnectSocket(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Connection::Connection(int fd) : fd_(fd) {}

Connection::~Connection() { ::close(fd_); }

bool Connection::Call(std::initializer_list<std::string_view> parts,
                      std::string* response) {
  std::vector<iovec> iov;
  for (std::string_view p : parts) {
    if (!p.empty()) iov.push_back({const_cast<char*>(p.data()), p.size()});
  }
  static const char kNewline = '\n';
  iov.push_back({const_cast<char*>(&kNewline), 1});
  size_t first = 0;
  while (first < iov.size()) {
    ssize_t n = ::writev(fd_, iov.data() + first,
                         int(std::min<size_t>(iov.size() - first, IOV_MAX)));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    size_t left = size_t(n);
    while (first < iov.size() && left >= iov[first].iov_len) {
      left -= iov[first].iov_len;
      ++first;
    }
    if (left > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }
  size_t scanned = 0;
  char buf[1 << 16];
  while (true) {
    size_t nl = pending_.find('\n', scanned);
    if (nl != std::string::npos) {
      response->assign(pending_, 0, nl);
      pending_.erase(0, nl + 1);
      return true;
    }
    scanned = pending_.size();
    ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    pending_.append(buf, size_t(n));
  }
}

std::unique_ptr<Daemon> Daemon::Start(const DaemonOptions& options,
                                      double* setup_seconds,
                                      std::string* error) {
  std::vector<std::string> args = {options.binary, "--model", options.model};
  if (options.threads > 0) {
    args.push_back("--threads");
    args.push_back(std::to_string(options.threads));
  }
  args.push_back("--socket");
  args.push_back(options.socket_path);
  ::unlink(options.socket_path.c_str());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int log_fd = ::open(options.log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const pid_t parent = ::getpid();
  const Clock::time_point t0 = Clock::now();
  // vfork, not fork: fork copies the client's page tables, so its cost
  // would grow with the client's memory and set-up time would depend on
  // when in the run the daemon is booted. The child only makes system
  // calls before it execs.
  const pid_t pid = ::vfork();
  if (pid < 0) {
    *error = std::string("vfork: ") + std::strerror(errno);
    return nullptr;
  }
  if (pid == 0) {
    // The daemon must not outlive the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (log_fd >= 0) ::close(log_fd);

  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->pid_ = pid;
  // Poll for the listening socket; the daemon binds it after loading the
  // model.
  while (true) {
    int fd = ConnectSocket(options.socket_path);
    if (fd >= 0) {
      daemon->control_ = std::make_unique<Connection>(fd);
      break;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      daemon->pid_ = -1;
      *error = "daemon exited before listening (see " + options.log_path + ")";
      return nullptr;
    }
    if (SecondsSince(t0) > 120.0) {
      *error = "daemon did not listen within 120 s";
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::string pong;
  if (!daemon->control_->Call({R"({"verb":"ping","id":"setup"})"}, &pong) ||
      pong.find("\"pong\":true") == std::string::npos) {
    *error = "no ping reply from daemon (see " + options.log_path + ")";
    return nullptr;
  }
  *setup_seconds = SecondsSince(t0);
  return daemon;
}

double Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) {
      return double(kb) / 1024.0;
    }
  }
  return 0.0;
}

bool Daemon::WaitExit(double timeout_seconds, int* status) {
  const Clock::time_point t0 = Clock::now();
  while (SecondsSince(t0) < timeout_seconds) {
    pid_t r = ::waitpid(pid_, status, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      pid_ = -1;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

bool Daemon::Shutdown(std::string* error) {
  if (pid_ < 0) return true;
  std::string reply;
  const bool acked =
      control_->Call({R"({"verb":"shutdown","id":"shutdown"})"}, &reply) &&
      reply.find("\"ok\":true") != std::string::npos;
  control_.reset();
  int status = 0;
  if (!WaitExit(60.0, &status)) {
    ::kill(pid_, SIGKILL);
    WaitExit(60.0, &status);
    *error = "daemon did not exit after shutdown; killed";
    return false;
  }
  if (!acked || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "daemon shutdown was not clean";
    return false;
  }
  return true;
}

Daemon::~Daemon() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

}  // namespace e2ebench
