// Shared serve-daemon test harness: one live ReclaimServer connection over
// a socketpair, used by the net suite and the cross-entry-point suite.
#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <optional>
#include <thread>

#include "net/client.hpp"
#include "net/server.hpp"

namespace reclaim::testing {

/// One live connection to `server` over a socketpair, with the server's
/// reader on its own thread. The destructor closes the client side
/// (EOF), joins, and closes the server side.
struct TestConnection {
  explicit TestConnection(net::ReclaimServer& server) {
    int pair[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
    server_fd = pair[0];
    client_fd = pair[1];
    reader = std::thread(
        [&server, fd = server_fd] { server.serve_stream(fd, fd); });
    client.emplace(net::ServeClient::from_fds(client_fd, client_fd));
  }
  /// For tests where the *server* ends the connection: joins its reader
  /// (serve_stream has returned) and closes the server-side fd so the
  /// client observes EOF. Without this the fd would stay open in this
  /// process and the client's next read would block forever.
  void await_server_close() {
    reader.join();
    ::close(server_fd);
    server_fd = -1;
  }
  ~TestConnection() {
    if (reader.joinable()) {
      ::shutdown(client_fd, SHUT_RDWR);
      reader.join();
    }
    if (server_fd >= 0) ::close(server_fd);
    ::close(client_fd);
  }

  int server_fd = -1;
  int client_fd = -1;
  std::thread reader;
  std::optional<net::ServeClient> client;
};

}  // namespace reclaim::testing
