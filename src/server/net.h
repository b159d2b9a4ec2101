// The one framed-JSON socket transport, shared by the tpcpd front door and
// distributed Phase 2 (dist/).
//
// FrameChannel moves server/wire frames over one connected TCP socket
// (Listen binds 127.0.0.1). Sends use MSG_NOSIGNAL, so a peer that hangs
// up early surfaces as an IOError and never kills the process with
// SIGPIPE. An optional quiet-period deadline bounds both directions, so a
// silent peer fails in bounded time instead of wedging its reader. Status codes are part of the
// contract, because supervisor recovery and RetryWithBackoff key on
// IsTransientStatus (util/retry.h):
//
//  - EOF, deadline expiry and socket errors are IOError (transient);
//  - a closed channel is FailedPrecondition;
//  - a malformed frame is the decoder's latched InvalidArgument;
//  - a host that is not an IPv4 address is InvalidArgument, never retried.
//
// On top of the channel sit TpcpdServer and TpcpdClient. TpcpdServer owns
// a listening socket and a thread-per-connection accept loop; each
// connection hands every payload to Tpcpd::HandleRequest. All protocol
// logic lives in the daemon — this layer only moves frames, which is why
// the protocol tests don't need it.
//
// A malformed frame (bad length prefix) poisons the connection: the
// server sends one final error frame and closes. A malformed *payload*
// (bad JSON, unknown command) is an ordinary error response and the
// connection stays usable.
//
// The connection layer answers a hello itself (it never reaches the
// daemon). The hello carries tenant authentication:
//   {"cmd":"hello","tenant":"acme","token":"s3cret"}
// On success ({"ok":true,"tenant":"acme"}) the connection is bound to
// that tenant: every later request on it reaches the daemon with the
// authenticated identity, which token-protected tenants require. A bad
// token or unknown tenant gets a clean {"ok":false,...} and the
// connection stays open but unauthenticated. Tenants configured without
// a token remain open to every connection.

#ifndef TPCP_SERVER_NET_H_
#define TPCP_SERVER_NET_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/json.h"
#include "server/wire.h"
#include "util/retry.h"
#include "util/status.h"

namespace tpcp {

class Tpcpd;

/// Blocking framed-JSON channel over a connected socket. Sends are
/// mutex-serialized, so a heartbeat thread can share the channel with the
/// protocol loop; Recv stays single-consumer.
class FrameChannel {
 public:
  explicit FrameChannel(int fd) : fd_(fd) {}
  virtual ~FrameChannel();
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  /// One JSON message per frame. Virtual so the chaos harness
  /// (dist/faulty_channel.h) can interpose scripted faults on the exact
  /// same code path.
  virtual Status Send(const JsonValue& message);
  /// Blocks for the next frame. IOError on EOF, on a socket error, or when
  /// an I/O deadline is set and the peer stays silent past it;
  /// InvalidArgument when the frame or its JSON is malformed.
  virtual Status Recv(JsonValue* message);

  /// Send/Recv of the raw payload, unparsed: tpcpd answers bad JSON with
  /// an error response on a live connection.
  Status SendPayload(const std::string& payload);
  Status RecvPayload(std::string* payload);

  /// Shuts the socket down, which wakes a Send or Recv blocked on another
  /// thread with EOF; later calls fail with FailedPrecondition. Takes no
  /// lock, so it is safe while another thread is blocked sending. The
  /// descriptor itself is closed by the destructor, so a call still
  /// returning on another thread never touches a reused one.
  void Close();

  /// Quiet-period deadline for both directions: Recv fails when no bytes
  /// arrive for `ms`, Send fails when the socket stays unwritable for `ms`
  /// (peer dead with a full buffer). Negative = block forever (default).
  void set_io_timeout_ms(int ms) { io_timeout_ms_ = ms; }

  /// Detaches and returns the socket without closing it; the channel
  /// becomes unusable. For re-wrapping a connection (chaos harness).
  int ReleaseFd();

 protected:
  /// Send/Recv over the raw socket, bypassing any chaos interposition —
  /// the base implementations subclasses delegate to.
  Status SendRaw(const JsonValue& message);
  Status RecvRaw(JsonValue* message);
  /// Writes raw bytes (not necessarily a valid frame) to the socket.
  /// Exposed for the chaos harness's garbage injection.
  Status SendBytes(const char* data, size_t size);

 private:
  /// Atomic: a dist worker's compute thread calls Close() to abort a Recv
  /// blocked on the protocol thread, so the fd is read and invalidated
  /// concurrently.
  std::atomic<int> fd_;
  /// The descriptor Close() shut down, for the destructor to close.
  int closed_fd_ = -1;
  int io_timeout_ms_ = -1;
  std::mutex send_mu_;
  FrameDecoder decoder_;
};

/// Listening socket on 127.0.0.1:`*port` (0 = ephemeral; *port is updated
/// to the bound port).
Result<int> Listen(int* port);
/// Blocks for one inbound connection on `listen_fd`. With a non-negative
/// `timeout_ms`, IOError("accept timed out") when nobody connects in time.
Result<std::unique_ptr<FrameChannel>> Accept(int listen_fd,
                                             int timeout_ms = -1);
/// Connects to `host:port` (an IPv4 address), retrying refused/transient
/// connects under `retry` — a peer still binding its socket looks exactly
/// like a transient fault. `retry.max_attempts = 1` connects once.
Result<std::unique_ptr<FrameChannel>> Connect(
    const std::string& host, int port, const RetryPolicy& retry = {});

class TpcpdServer {
 public:
  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port — see
  /// bound_port()) and starts accepting. `daemon` must outlive the
  /// server.
  static Result<std::unique_ptr<TpcpdServer>> Listen(Tpcpd* daemon,
                                                     int port);

  /// Stops accepting, closes every connection and joins all threads.
  ~TpcpdServer();

  TpcpdServer(const TpcpdServer&) = delete;
  TpcpdServer& operator=(const TpcpdServer&) = delete;

  int bound_port() const { return bound_port_; }

 private:
  TpcpdServer() = default;

  void AcceptLoop();
  void ServeConnection(FrameChannel* channel);

  Tpcpd* daemon_ = nullptr;
  int listen_fd_ = -1;
  int bound_port_ = 0;

  std::mutex mu_;
  bool stopping_ = false;
  /// Open connections; each is erased (and closed) by its own thread.
  std::vector<std::unique_ptr<FrameChannel>> connections_;
  std::vector<std::thread> connection_threads_;
  std::thread accept_thread_;
};

/// Blocking client: one Call is one request frame out, one response
/// frame back. Not thread-safe; use one client per thread.
class TpcpdClient {
 public:
  /// Connects to `host:port` (see Connect above); the shared backoff
  /// policy covers a daemon that is still binding its socket.
  static Result<std::unique_ptr<TpcpdClient>> Connect(
      const std::string& host, int port, const RetryPolicy& retry = {});

  TpcpdClient(const TpcpdClient&) = delete;
  TpcpdClient& operator=(const TpcpdClient&) = delete;

  /// Sends `request` and returns the parsed response object. IOError when
  /// the connection drops; InvalidArgument when the server's response is
  /// not valid protocol (never expected).
  Result<JsonValue> Call(const JsonValue& request);

  /// Authenticates this connection as `tenant` (hello with token).
  /// InvalidArgument when the server rejects the credentials — the
  /// connection stays usable, unauthenticated.
  Status Authenticate(const std::string& tenant, const std::string& token);

 private:
  explicit TpcpdClient(std::unique_ptr<FrameChannel> channel)
      : channel_(std::move(channel)) {}

  /// Persistent across Calls: response bytes buffered past one frame
  /// boundary must not be dropped between calls.
  std::unique_ptr<FrameChannel> channel_;
};

}  // namespace tpcp

#endif  // TPCP_SERVER_NET_H_
