// Unix-socket transport framing (serve/transport.h): the server is run
// in-process on a temporary socket path and driven by a raw client that
// splits one multi-megabyte request line into many small writes, packs
// several requests into one write, and mixes "\r\n" and empty lines. Every
// request gets exactly one response, in order, with its id echoed, and an
// accepted shutdown makes RunUnixSocketServer return. A line over the
// transport's length cap gets one error and does not end the connection.

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/local_model.h"
#include "serve/engine.h"
#include "serve/json.h"
#include "serve/transport.h"

namespace autobi {
namespace {

int ConnectWithRetry(const std::string& path) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

bool WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t w = ::write(fd, data, size);
    if (w <= 0) return false;
    data += w;
    size -= size_t(w);
  }
  return true;
}

// Reads one '\n'-terminated response line (without the newline).
bool ReadLine(int fd, std::string* buffer, std::string* line) {
  while (true) {
    size_t nl = buffer->find('\n');
    if (nl != std::string::npos) {
      line->assign(*buffer, 0, nl);
      buffer->erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer->append(chunk, size_t(n));
  }
}

Json ParseResponse(const std::string& line) {
  StatusOr<Json> parsed = ParseJson(line);
  EXPECT_TRUE(parsed.ok()) << line.substr(0, 200);
  return parsed.ok() ? *parsed : Json();
}

int64_t IdOf(const Json& response) {
  const Json* id = response.Find("id");
  return id != nullptr && id->is_number() ? id->AsInt() : -1;
}

bool IsOk(const Json& response) {
  const Json* ok = response.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->AsBool();
}

TEST(UnixSocketTransportTest, FramesSplitPackedAndCrlfLinesInOrder) {
  const std::string path = ::testing::TempDir() + "autobi_transport_" +
                           std::to_string(::getpid()) + ".sock";
  LocalModel model;  // Untrained: no request here predicts.
  ServeEngine engine(&model, ServeOptions{});
  Status served = Status::Internal("server did not return");
  std::thread server([&] { served = RunUnixSocketServer(&engine, path); });
  // If an assertion returns early, stop the server before the thread dies.
  struct StopOnExit {
    ServeEngine* engine;
    std::thread* server;
    ~StopOnExit() {
      if (!server->joinable()) return;
      engine->HandleLine(R"({"verb":"shutdown"})");
      server->join();
    }
  } stop_on_exit{&engine, &server};

  int fd = ConnectWithRetry(path);
  ASSERT_GE(fd, 0) << "could not connect to " << path;
  std::string buffer;
  std::string line;

  const std::string create = R"({"verb":"create_session","id":1})" "\n";
  ASSERT_TRUE(WriteAll(fd, create.data(), create.size()));
  ASSERT_TRUE(ReadLine(fd, &buffer, &line));
  Json created = ParseResponse(line);
  ASSERT_TRUE(IsOk(created)) << line;
  EXPECT_EQ(IdOf(created), 1);
  const std::string session = created.Find("session")->AsString();

  // A >= 4 MiB upload line, written in pieces of 1 B to 4 KiB.
  std::string csv = "id,payload\n";
  for (int r = 0; csv.size() < (size_t{4} << 20); ++r) {
    csv += std::to_string(r) + ",row-" + std::to_string(r) +
           "-abcdefghijklmnopqrstuvwxyz0123456789\n";
  }
  Json upload = Json::MakeObject();
  upload.Set("verb", Json::MakeString("upload_table"));
  upload.Set("session", Json::MakeString(session));
  upload.Set("name", Json::MakeString("big"));
  upload.Set("csv", Json::MakeString(csv));
  upload.Set("id", Json::MakeInt(2));
  const std::string upload_line = upload.Write() + "\n";
  ASSERT_GE(upload_line.size(), size_t{4} << 20);
  Rng rng(17);
  for (size_t off = 0; off < upload_line.size();) {
    size_t piece = std::min<size_t>(1 + rng.NextBelow(4096),
                                    upload_line.size() - off);
    ASSERT_TRUE(WriteAll(fd, upload_line.data() + off, piece));
    off += piece;
  }

  // Two requests in one write, then a "\r\n" line, an empty line, and the
  // shutdown.
  const std::string tail =
      R"({"verb":"ping","id":3})" "\n"
      R"({"verb":"ping","id":4})" "\n"
      R"({"verb":"ping","id":5})" "\r\n"
      "\n"
      R"({"verb":"shutdown","id":6})" "\n";
  ASSERT_TRUE(WriteAll(fd, tail.data(), tail.size()));

  std::vector<int64_t> ids;
  while (ReadLine(fd, &buffer, &line)) {
    Json response = ParseResponse(line);
    EXPECT_TRUE(IsOk(response)) << line.substr(0, 200);
    ids.push_back(IdOf(response));
  }
  EXPECT_EQ(ids, (std::vector<int64_t>{2, 3, 4, 5, 6}));
  ::close(fd);
  server.join();
  EXPECT_TRUE(served.ok()) << served.ToString();
  EXPECT_TRUE(engine.shutdown_requested());
}

// A request line over the transport's cap (6 * max_csv_bytes + 1 MiB) is
// answered with one error as soon as it crosses the cap — before its newline
// has been sent — and the rest of it is dropped; the connection then keeps
// serving requests.
TEST(UnixSocketTransportTest, OverCapLineGetsOneErrorAndConnectionContinues) {
  const std::string path = ::testing::TempDir() + "autobi_transport_cap_" +
                           std::to_string(::getpid()) + ".sock";
  LocalModel model;
  ServeOptions options;
  options.max_csv_bytes = 16;  // Line cap: 96 B + 1 MiB.
  const size_t cap = 16 * 6 + (size_t{1} << 20);
  ServeEngine engine(&model, options);
  Status served = Status::Internal("server did not return");
  std::thread server([&] { served = RunUnixSocketServer(&engine, path); });
  struct StopOnExit {
    ServeEngine* engine;
    std::thread* server;
    ~StopOnExit() {
      if (!server->joinable()) return;
      engine->HandleLine(R"({"verb":"shutdown"})");
      server->join();
    }
  } stop_on_exit{&engine, &server};

  int fd = ConnectWithRetry(path);
  ASSERT_GE(fd, 0) << "could not connect to " << path;
  // A server that waits for the newline would block the first read forever.
  timeval timeout{30, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  std::string buffer;
  std::string line;

  // An upload-shaped line, sent without its newline until the error is back.
  std::string over = R"({"verb":"upload_table","id":1,"csv":")";
  over.append(cap + 4096 - over.size(), 'x');
  ASSERT_TRUE(WriteAll(fd, over.data(), over.size()));
  ASSERT_TRUE(ReadLine(fd, &buffer, &line));
  Json error = ParseResponse(line);
  EXPECT_FALSE(IsOk(error)) << line;
  EXPECT_EQ(IdOf(error), -1) << line;  // The id was never parsed.
  const Json* err = error.Find("error");
  ASSERT_NE(err, nullptr) << line;
  const Json* code = err->Find("code");
  ASSERT_NE(code, nullptr) << line;
  EXPECT_EQ(code->AsString(), "RESOURCE_EXHAUSTED") << line;

  // The rest of the over-cap line, then more requests in the same write.
  std::string rest(size_t{1} << 20, 'y');
  rest += "\"}\n";
  rest += R"({"verb":"ping","id":2})" "\n";
  rest += R"({"verb":"shutdown","id":3})" "\n";
  ASSERT_TRUE(WriteAll(fd, rest.data(), rest.size()));

  std::vector<int64_t> ids;
  while (ReadLine(fd, &buffer, &line)) {
    Json response = ParseResponse(line);
    EXPECT_TRUE(IsOk(response)) << line.substr(0, 200);
    ids.push_back(IdOf(response));
  }
  EXPECT_EQ(ids, (std::vector<int64_t>{2, 3}));
  ::close(fd);
  server.join();
  EXPECT_TRUE(served.ok()) << served.ToString();
}

}  // namespace
}  // namespace autobi
