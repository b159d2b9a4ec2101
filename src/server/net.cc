#include "server/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "server/daemon.h"

namespace tpcp {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// Waits for `events` on `fd` for up to `timeout_ms` (< 0 blocks forever).
/// OK when ready; IOError on poll failure or deadline expiry.
Status PollFor(int fd, short events, int timeout_ms, const char* what) {
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (ready == 0) return Status::IOError(std::string(what) + " timed out");
    return Status::OK();
  }
}

/// Turns Nagle off on a connected socket (net.h says why), or closes it.
Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    const Status error = Errno("setsockopt TCP_NODELAY");
    ::close(fd);
    return error;
  }
  return Status::OK();
}

sockaddr_in LoopbackAddress(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  return addr;
}

/// Recognizes the connection hello (see net.h) and builds its reply.
/// Returns true when `payload` was a hello — the caller answers with
/// `*response`. A hello naming a tenant authenticates the connection: on
/// success `*auth_tenant` is bound; on rejection the reply is
/// {"ok":false,...} and the binding is untouched.
bool MaybeHandleHello(Tpcpd* daemon, const std::string& payload,
                      std::string* response, std::string* auth_tenant) {
  const Result<JsonValue> request = JsonValue::Parse(payload);
  if (!request.ok() || !request->is_object()) return false;
  const JsonValue* cmd = request->Find("cmd");
  if (cmd == nullptr || !cmd->is_string() ||
      cmd->string_value() != "hello") {
    return false;
  }
  JsonValue reply = JsonValue::Object();
  if (const JsonValue* tenant = request->Find("tenant")) {
    std::string token;
    const JsonValue* tok = request->Find("token");
    if (tok != nullptr && tok->is_string()) token = tok->string_value();
    const Result<std::string> authed =
        tenant->is_string() ? daemon->Authenticate(tenant->string_value(),
                                                   token)
                            : Result<std::string>(Status::InvalidArgument(
                                  "hello field 'tenant' must be a string"));
    if (!authed.ok()) {
      reply.Set("ok", false);
      reply.Set("error", authed.status().ToString());
      *response = reply.Serialize();
      return true;
    }
    *auth_tenant = *authed;
    reply.Set("tenant", *authed);
  }
  reply.Set("ok", true);
  *response = reply.Serialize();
  return true;
}

}  // namespace

// ---- channel ---------------------------------------------------------------

Status FrameChannel::Send(const JsonValue& message) {
  return SendRaw(message);
}

Status FrameChannel::Recv(JsonValue* message) { return RecvRaw(message); }

Status FrameChannel::SendRaw(const JsonValue& message) {
  return SendPayload(message.Serialize());
}

Status FrameChannel::RecvRaw(JsonValue* message) {
  std::string payload;
  TPCP_RETURN_IF_ERROR(RecvPayload(&payload));
  TPCP_ASSIGN_OR_RETURN(*message, JsonValue::Parse(payload));
  return Status::OK();
}

Status FrameChannel::SendPayload(const std::string& payload) {
  TPCP_ASSIGN_OR_RETURN(const std::string frame, EncodeFrame(payload));
  return SendBytes(frame.data(), frame.size());
}

Status FrameChannel::SendBytes(const char* data, size_t size) {
  // Serialize senders: a dist worker's heartbeat thread shares the channel
  // with its protocol loop, and interleaved partial frames would corrupt
  // the stream.
  std::lock_guard<std::mutex> lock(send_mu_);
  const int fd = fd_;
  if (fd < 0) return Status::FailedPrecondition("channel closed");
  size_t sent = 0;
  while (sent < size) {
    if (io_timeout_ms_ >= 0) {
      TPCP_RETURN_IF_ERROR(PollFor(fd, POLLOUT, io_timeout_ms_, "send"));
    }
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FrameChannel::RecvPayload(std::string* payload) {
  // Open until the destructor: a Close() on another thread ends this loop
  // with EOF.
  const int fd = fd_;
  if (fd < 0) return Status::FailedPrecondition("channel closed");
  while (!decoder_.Next(payload)) {
    TPCP_RETURN_IF_ERROR(decoder_.error());
    if (io_timeout_ms_ >= 0) {
      // Quiet-period deadline: each arriving byte restarts the clock, so a
      // slow-but-alive peer is fine and a silent one fails in bounded time.
      TPCP_RETURN_IF_ERROR(PollFor(fd, POLLIN, io_timeout_ms_, "recv"));
    }
    char buf[16384];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    // A trailing partial frame is simply dropped.
    if (n == 0) return Status::IOError("peer closed connection");
    TPCP_RETURN_IF_ERROR(decoder_.Feed(buf, static_cast<size_t>(n)));
  }
  return Status::OK();
}

int FrameChannel::ReleaseFd() {
  std::lock_guard<std::mutex> lock(send_mu_);
  return fd_.exchange(-1);
}

void FrameChannel::Close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // A close() alone does not interrupt a recv() blocked on another
    // thread; shutdown() wakes it with EOF.
    ::shutdown(fd, SHUT_RDWR);
    closed_fd_ = fd;
  }
}

FrameChannel::~FrameChannel() {
  Close();
  if (closed_fd_ >= 0) ::close(closed_fd_);
}

Result<int> Listen(int* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddress(*port);
  socklen_t len = sizeof(addr);
  Status status;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    status = Errno("bind 127.0.0.1:" + std::to_string(*port));
  } else if (::listen(fd, 64) != 0) {
    status = Errno("listen");
  } else if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
             0) {
    status = Errno("getsockname");
  }
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

Result<std::unique_ptr<FrameChannel>> Accept(int listen_fd, int timeout_ms) {
  if (timeout_ms >= 0) {
    TPCP_RETURN_IF_ERROR(PollFor(listen_fd, POLLIN, timeout_ms, "accept"));
  }
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      TPCP_RETURN_IF_ERROR(SetNoDelay(fd));
      return std::make_unique<FrameChannel>(fd);
    }
    if (errno != EINTR) return Errno("accept");
  }
}

Result<std::unique_ptr<FrameChannel>> Connect(const std::string& host,
                                              int port,
                                              const RetryPolicy& retry) {
  sockaddr_in addr = LoopbackAddress(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Permanent: no retry will make the address parse.
    return Status::InvalidArgument("bad address '" + host + "'");
  }
  const std::string what = "connect " + host + ":" + std::to_string(port);
  int connected_fd = -1;
  TPCP_RETURN_IF_ERROR(
      RetryWithBackoff(retry, what, [&addr, &what, &connected_fd] {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return Errno("socket");
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
          const Status error = Errno(what);
          ::close(fd);
          return error;  // IOError: transient, retried
        }
        TPCP_RETURN_IF_ERROR(SetNoDelay(fd));
        connected_fd = fd;
        return Status::OK();
      }));
  return std::make_unique<FrameChannel>(connected_fd);
}

// ---- server ----------------------------------------------------------------

Result<std::unique_ptr<TpcpdServer>> TpcpdServer::Listen(Tpcpd* daemon,
                                                         int port) {
  TPCP_ASSIGN_OR_RETURN(const int fd, tpcp::Listen(&port));
  std::unique_ptr<TpcpdServer> server(new TpcpdServer());
  server->daemon_ = daemon;
  server->listen_fd_ = fd;
  server->bound_port_ = port;
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

TpcpdServer::~TpcpdServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Unblock the accept loop and every connection's read or write.
    ::shutdown(listen_fd_, SHUT_RDWR);
    for (const auto& channel : connections_) channel->Close();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(connection_threads_);
  }
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
  ::close(listen_fd_);
}

void TpcpdServer::AcceptLoop() {
  for (;;) {
    Result<std::unique_ptr<FrameChannel>> accepted = Accept(listen_fd_);
    if (!accepted.ok()) return;  // listen socket shut down
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    FrameChannel* channel = accepted->get();
    connections_.push_back(std::move(*accepted));
    connection_threads_.emplace_back(
        [this, channel] { ServeConnection(channel); });
  }
}

void TpcpdServer::ServeConnection(FrameChannel* channel) {
  std::string auth_tenant;  // set by an authenticated hello, sticky
  std::string payload;
  for (;;) {
    const Status received = channel->RecvPayload(&payload);
    if (!received.ok()) {
      // EOF and socket errors just end the connection. A malformed frame
      // cannot be resynced: answer once, then hang up.
      if (received.code() == StatusCode::kInvalidArgument) {
        JsonValue error = JsonValue::Object();
        error.Set("ok", false);
        error.Set("error", received.ToString());
        channel->Send(error);
      }
      break;
    }
    std::string response;
    if (!MaybeHandleHello(daemon_, payload, &response, &auth_tenant)) {
      response = daemon_->HandleRequest(payload, auth_tenant);
    }
    if (!channel->SendPayload(response).ok()) break;
  }
  // Under mu_, so the destructor never closes a channel being destroyed.
  std::lock_guard<std::mutex> lock(mu_);
  connections_.erase(std::find_if(
      connections_.begin(), connections_.end(),
      [channel](const auto& open) { return open.get() == channel; }));
}

// ---- client ----------------------------------------------------------------

Result<std::unique_ptr<TpcpdClient>> TpcpdClient::Connect(
    const std::string& host, int port, const RetryPolicy& retry) {
  TPCP_ASSIGN_OR_RETURN(std::unique_ptr<FrameChannel> channel,
                        tpcp::Connect(host, port, retry));
  return std::unique_ptr<TpcpdClient>(new TpcpdClient(std::move(channel)));
}

Result<JsonValue> TpcpdClient::Call(const JsonValue& request) {
  TPCP_RETURN_IF_ERROR(channel_->Send(request));
  JsonValue response;
  TPCP_RETURN_IF_ERROR(channel_->Recv(&response));
  return response;
}

Status TpcpdClient::Authenticate(const std::string& tenant,
                                 const std::string& token) {
  JsonValue hello = JsonValue::Object();
  hello.Set("cmd", "hello");
  hello.Set("tenant", tenant);
  hello.Set("token", token);
  TPCP_ASSIGN_OR_RETURN(const JsonValue reply, Call(hello));
  const JsonValue* ok = reply.Find("ok");
  if (ok != nullptr && ok->is_bool() && ok->bool_value()) {
    return Status::OK();
  }
  const JsonValue* error = reply.Find("error");
  return Status::InvalidArgument(
      error != nullptr && error->is_string()
          ? error->string_value()
          : "authentication rejected for tenant '" + tenant + "'");
}

}  // namespace tpcp
