// Drives a real autobi_serve process: spawn it, talk newline-delimited JSON
// to it over its unix socket, read its peak RSS, stop it.
#ifndef E2EBENCH_DAEMON_H_
#define E2EBENCH_DAEMON_H_

#include <sys/types.h>

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

namespace e2ebench {

// One client connection. Owns its socket.
class Connection {
 public:
  explicit Connection(int fd);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Writes the concatenation of `parts` plus '\n' and reads one response
  // line (without its newline) into `response`. False on any I/O failure or
  // end of stream.
  bool Call(std::initializer_list<std::string_view> parts,
            std::string* response);

 private:
  int fd_;
  std::string pending_;  // Bytes read past the last returned line.
};

struct DaemonOptions {
  std::string binary;       // autobi_serve
  std::string model;        // --model file
  std::string socket_path;  // --socket
  std::string log_path;     // the daemon's stderr
  int threads = 0;          // --threads; 0 = the daemon's default
};

class Daemon {
 public:
  // Spawns the daemon and waits for its reply to a first `ping`;
  // `setup_seconds` receives the time from spawn to that reply. Returns
  // null and sets `error` on failure (the process is reaped).
  static std::unique_ptr<Daemon> Start(const DaemonOptions& options,
                                       double* setup_seconds,
                                       std::string* error);
  ~Daemon();  // Kills and reaps a daemon that was not shut down.
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // The connection the ping went over, which the workload uses too.
  Connection& control() { return *control_; }

  // VmHWM of the daemon process in MiB (0 if unreadable).
  double PeakRssMb() const;

  // Sends `shutdown` and waits for a clean exit. False if the daemon had
  // to be killed or exited non-zero.
  bool Shutdown(std::string* error);

 private:
  Daemon() = default;
  bool WaitExit(double timeout_seconds, int* status);

  pid_t pid_ = -1;
  std::unique_ptr<Connection> control_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_DAEMON_H_
