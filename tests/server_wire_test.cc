// The tpcpd wire protocol: JSON value model, frame codec, and the
// daemon's protocol dispatch. The invariant under test everywhere:
// malformed input of any shape — truncated length prefix, oversized
// frame, invalid JSON, unknown command, wrong-type fields — produces a
// clean protocol error, never a crash, hang, or half-applied request.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include "server/daemon.h"
#include "server/json.h"
#include "server/net.h"
#include "server/wire.h"

namespace tpcp {
namespace {

// ---- JSON ------------------------------------------------------------------

TEST(JsonTest, ParseSerializeRoundTrip) {
  const std::string text =
      "{\"a\":[1,2.5,true,null,\"s\"],\"b\":{\"c\":-7},\"d\":\"q\\\"e\\n\"}";
  auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Compact + sorted keys makes serialization canonical.
  EXPECT_EQ(parsed->Serialize(), text);
  auto reparsed = JsonValue::Parse(parsed->Serialize());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Serialize(), text);
}

TEST(JsonTest, IntegersKeepTheirIdentity) {
  auto parsed = JsonValue::Parse("{\"seed\":9007199254740993,\"x\":1.5}");
  ASSERT_TRUE(parsed.ok());
  const JsonValue* seed = parsed->Find("seed");
  ASSERT_NE(seed, nullptr);
  ASSERT_TRUE(seed->is_int());
  // 2^53 + 1 survives exactly — a double would have rounded it.
  EXPECT_EQ(seed->int_value(), 9007199254740993ll);
  const JsonValue* x = parsed->Find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_FALSE(x->is_int());
  EXPECT_TRUE(x->is_number());
}

TEST(JsonTest, StrictParserRejectsMalformedInput) {
  const char* bad[] = {
      "",
      "   ",
      "{",
      "[1,2",
      "{\"a\":}",
      "{\"a\":1,}",
      "{\"a\" 1}",
      "{'a':1}",
      "\"unterminated",
      "\"bad \\q escape\"",
      "\"trunc \\u12",
      "1 2",            // trailing bytes
      "{\"a\":1} x",    // trailing bytes
      "nul",
      "-",
      "+1",
      "1e",
      "99999999999999999999",  // integer out of range
  };
  for (const char* text : bad) {
    const auto parsed = JsonValue::Parse(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: '" << text << "'";
  }
  // Nesting deeper than the limit is rejected rather than recursed into.
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, TypedAccessorsNameTheField) {
  auto object = JsonValue::Parse("{\"n\":3,\"s\":\"x\",\"f\":1.5}");
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(*GetInt(*object, "n"), 3);
  EXPECT_EQ(*GetString(*object, "s"), "x");
  EXPECT_EQ(*GetIntOr(*object, "missing", 7), 7);
  EXPECT_EQ(*GetStringOr(*object, "missing", "d"), "d");
  EXPECT_EQ(*GetDoubleOr(*object, "f", 0.0), 1.5);
  EXPECT_EQ(*GetDoubleOr(*object, "n", 0.0), 3.0);  // ints widen

  const auto missing = GetString(*object, "nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().ToString().find("nope"), std::string::npos);
  const auto wrong_type = GetInt(*object, "s");
  ASSERT_FALSE(wrong_type.ok());
  EXPECT_NE(wrong_type.status().ToString().find("'s'"), std::string::npos);
  // A 1.5 is not silently truncated to 1.
  EXPECT_FALSE(GetInt(*object, "f").ok());
}

// ---- frame codec -----------------------------------------------------------

TEST(WireTest, EncodeDecodeRoundTrip) {
  const auto frame = EncodeFrame("{\"cmd\":\"list\"}");
  ASSERT_TRUE(frame.ok());
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(*frame).ok());
  std::string payload;
  ASSERT_TRUE(decoder.Next(&payload));
  EXPECT_EQ(payload, "{\"cmd\":\"list\"}");
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_FALSE(decoder.has_partial());
}

TEST(WireTest, DecoderHandlesArbitrarySplitsAndBackToBackFrames) {
  const auto a = EncodeFrame("first");
  const auto b = EncodeFrame("second payload");
  ASSERT_TRUE(a.ok() && b.ok());
  const std::string stream = *a + *b;
  // Feed byte by byte: boundaries must not matter.
  FrameDecoder decoder;
  std::vector<std::string> out;
  for (const char c : stream) {
    ASSERT_TRUE(decoder.Feed(&c, 1).ok());
    std::string payload;
    while (decoder.Next(&payload)) out.push_back(payload);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "first");
  EXPECT_EQ(out[1], "second payload");
}

TEST(WireTest, TruncatedPrefixIsAPartialFrameNotAnError) {
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed("\x00\x00", 2).ok());
  std::string payload;
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_TRUE(decoder.has_partial());
  EXPECT_FALSE(decoder.failed());
}

TEST(WireTest, OversizedAndZeroLengthFramesLatchAnError) {
  {
    FrameDecoder decoder;
    // 0xFFFFFFFF length prefix: hostile allocation request.
    EXPECT_FALSE(decoder.Feed("\xff\xff\xff\xff", 4).ok());
    EXPECT_TRUE(decoder.failed());
    // The error latches: further feeds stay rejected.
    EXPECT_FALSE(decoder.Feed("more", 4).ok());
  }
  {
    // A length word with the top bit set is just an absurd length: it
    // fails the kMaxFrameBytes check however many bytes follow it.
    const std::string payload = "{\"cmd\":\"list\"}";
    const uint32_t word = 0x80000000u | static_cast<uint32_t>(payload.size());
    std::string frame;
    for (const int shift : {24, 16, 8, 0}) {
      frame.push_back(static_cast<char>((word >> shift) & 0xff));
    }
    frame += payload;
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.Feed(frame).ok());
    EXPECT_TRUE(decoder.failed());
    EXPECT_NE(decoder.error().ToString().find("exceeds"), std::string::npos)
        << decoder.error().ToString();
    std::string out;
    EXPECT_FALSE(decoder.Next(&out));
  }
  {
    FrameDecoder decoder;
    EXPECT_FALSE(decoder.Feed(std::string(4, '\0')).ok());
    EXPECT_TRUE(decoder.failed());
  }
  EXPECT_FALSE(EncodeFrame("").ok());
  EXPECT_FALSE(EncodeFrame(std::string(kMaxFrameBytes + 1, 'x')).ok());
  EXPECT_TRUE(EncodeFrame(std::string(kMaxFrameBytes, 'x')).ok());
}

// ---- channel ---------------------------------------------------------------

TEST(FrameChannelTest, DeadlineAndCloseOverLoopback) {
  int port = 0;
  auto listen_fd = Listen(&port);
  if (!listen_fd.ok()) {
    GTEST_SKIP() << "sockets unavailable: " << listen_fd.status().ToString();
  }
  auto client = Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server = Accept(*listen_fd, /*timeout_ms=*/5000);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ::close(*listen_fd);
  JsonValue message;

  // A peer that stays silent past the quiet-period deadline.
  (*server)->set_io_timeout_ms(50);
  const Status silent = (*server)->Recv(&message);
  EXPECT_TRUE(silent.IsIOError()) << silent.ToString();

  // A large payload round-trips after the timed-out Recv.
  JsonValue big = JsonValue::Object();
  big.Set("blob", std::string(64 * 1024, 'x'));
  ASSERT_TRUE((*client)->Send(big).ok());
  const Status received = (*server)->Recv(&message);
  ASSERT_TRUE(received.ok()) << received.ToString();
  EXPECT_EQ(message.Serialize(), big.Serialize());

  // Close() from another thread wakes a Recv blocked with no deadline.
  (*server)->set_io_timeout_ms(-1);
  std::thread closer([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    (*server)->Close();
  });
  const Status woken = (*server)->Recv(&message);
  closer.join();
  EXPECT_FALSE(woken.ok());
  EXPECT_EQ((*server)->Send(big).code(), StatusCode::kFailedPrecondition);
}

// ---- protocol dispatch -----------------------------------------------------

std::unique_ptr<Tpcpd> TestDaemon() {
  TpcpdOptions options;
  TenantConfig tenant;
  tenant.name = "alice";
  tenant.storage_uri = "mem://";
  options.tenants.push_back(tenant);
  options.total_buffer_bytes = 8ull << 20;
  options.total_threads = 2;
  options.max_running_jobs = 1;
  auto daemon = Tpcpd::Start(std::move(options));
  EXPECT_TRUE(daemon.ok()) << daemon.status().ToString();
  return daemon.ok() ? std::move(*daemon) : nullptr;
}

/// The response must always be a well-formed {"ok":false,...} object whose
/// error mentions `needle`.
void ExpectProtocolError(Tpcpd* daemon, const std::string& payload,
                         const std::string& needle) {
  const std::string response = daemon->HandleRequest(payload);
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok()) << "unparsable response: " << response;
  const JsonValue* ok = parsed->Find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->bool_value()) << response;
  const JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr) << response;
  EXPECT_NE(error->string_value().find(needle), std::string::npos)
      << "error '" << error->string_value() << "' does not mention '"
      << needle << "'";
}

TEST(ProtocolTest, MalformedPayloadsGetCleanErrors) {
  auto daemon = TestDaemon();
  ASSERT_NE(daemon, nullptr);
  ExpectProtocolError(daemon.get(), "not json at all", "JSON parse error");
  ExpectProtocolError(daemon.get(), "{\"cmd\":\"list\"", "JSON parse error");
  ExpectProtocolError(daemon.get(), "[1,2,3]", "must be a JSON object");
  ExpectProtocolError(daemon.get(), "{}", "cmd");
  ExpectProtocolError(daemon.get(), "{\"cmd\":\"frobnicate\"}",
                      "unknown command");
  ExpectProtocolError(daemon.get(), "{\"cmd\":7}", "'cmd'");
  // Wrong-type and unknown fields are named, and nothing is half-applied.
  ExpectProtocolError(daemon.get(), "{\"cmd\":\"submit\"}", "tenant");
  ExpectProtocolError(daemon.get(),
                      "{\"cmd\":\"submit\",\"tenant\":\"nobody\"}",
                      "unknown tenant");
  ExpectProtocolError(daemon.get(),
                      "{\"cmd\":\"submit\",\"tenant\":\"alice\","
                      "\"priority\":\"high\"}",
                      "priority");
  ExpectProtocolError(daemon.get(),
                      "{\"cmd\":\"submit\",\"tenant\":\"alice\","
                      "\"options\":{\"no_such_option\":1}}",
                      "no_such_option");
  ExpectProtocolError(daemon.get(),
                      "{\"cmd\":\"submit\",\"tenant\":\"alice\","
                      "\"options\":{\"rank\":\"lots\"}}",
                      "rank");
  ExpectProtocolError(daemon.get(),
                      "{\"cmd\":\"submit\",\"tenant\":\"alice\","
                      "\"options\":[1]}",
                      "options");
  ExpectProtocolError(daemon.get(), "{\"cmd\":\"poll\"}", "job");
  ExpectProtocolError(daemon.get(), "{\"cmd\":\"poll\",\"job\":1.5}",
                      "job");
  ExpectProtocolError(daemon.get(), "{\"cmd\":\"poll\",\"job\":42}",
                      "no job 42");
  ExpectProtocolError(daemon.get(), "{\"cmd\":\"cancel\",\"job\":42}",
                      "no job 42");
  ExpectProtocolError(daemon.get(),
                      "{\"cmd\":\"list\",\"state\":\"sideways\"}",
                      "unknown job state");
  ExpectProtocolError(daemon.get(),
                      "{\"cmd\":\"list\",\"tenant\":\"nobody\"}",
                      "unknown tenant");
  // After all that abuse the daemon still answers a good request.
  const std::string response =
      daemon->HandleRequest("{\"cmd\":\"tenant-stats\"}");
  auto parsed = JsonValue::Parse(response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Find("ok")->bool_value()) << response;
}

TEST(ProtocolTest, SocketFrontDoorSurvivesGarbageAndServesNextClient) {
  auto daemon = TestDaemon();
  ASSERT_NE(daemon, nullptr);
  auto server = TpcpdServer::Listen(daemon.get(), 0);
  if (!server.ok()) {
    GTEST_SKIP() << "sockets unavailable: " << server.status().ToString();
  }
  const int port = (*server)->bound_port();
  ASSERT_GT(port, 0);

  {
    // Baseline: a healthy round trip through the socket layer.
    auto client = TpcpdClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    JsonValue request = JsonValue::Object();
    request.Set("cmd", "tenant-stats");
    auto response = (*client)->Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->Find("ok")->bool_value());
  }
  {
    // Well-formed frame, malformed payload: connection stays usable.
    auto client = TpcpdClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
    JsonValue bad = JsonValue::Object();
    bad.Set("cmd", "frobnicate");
    auto response = (*client)->Call(bad);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->Find("ok")->bool_value());
    JsonValue good = JsonValue::Object();
    good.Set("cmd", "list");
    response = (*client)->Call(good);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->Find("ok")->bool_value());
  }
}

JsonValue ListRequest() {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", "list");
  return request;
}

TEST(ProtocolTest, PeerThatHangsUpUnreadDoesNotKillTheServer) {
  auto daemon = TestDaemon();
  ASSERT_NE(daemon, nullptr);
  auto server = TpcpdServer::Listen(daemon.get(), 0);
  if (!server.ok()) {
    GTEST_SKIP() << "sockets unavailable: " << server.status().ToString();
  }
  const int port = (*server)->bound_port();
  {
    // A raw client pipelines requests and leaves without reading a single
    // response: the server's replies hit a dead socket.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const auto frame = EncodeFrame(ListRequest().Serialize());
    ASSERT_TRUE(frame.ok());
    std::string burst;
    for (int i = 0; i < 64; ++i) burst += *frame;
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));
    ::close(fd);
  }
  // Give the server time to answer into the closed socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto client = TpcpdClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 3; ++i) {
    auto response = (*client)->Call(ListRequest());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->Find("ok")->bool_value());
  }
}

TEST(ProtocolTest, ClientOfAStoppedServerGetsIOErrorsNotSigpipe) {
  auto daemon = TestDaemon();
  ASSERT_NE(daemon, nullptr);
  auto server = TpcpdServer::Listen(daemon.get(), 0);
  if (!server.ok()) {
    GTEST_SKIP() << "sockets unavailable: " << server.status().ToString();
  }
  auto client = TpcpdClient::Connect("127.0.0.1", (*server)->bound_port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->Call(ListRequest()).ok());
  server->reset();
  for (int i = 0; i < 4; ++i) {
    auto response = (*client)->Call(ListRequest());
    ASSERT_FALSE(response.ok()) << "call " << i;
    EXPECT_TRUE(response.status().IsIOError())
        << "call " << i << ": " << response.status().ToString();
  }
}

TEST(ProtocolTest, HelloIgnoresCompressOfferAndFramesStayPlain) {
  auto daemon = TestDaemon();
  ASSERT_NE(daemon, nullptr);
  auto server = TpcpdServer::Listen(daemon.get(), 0);
  if (!server.ok()) {
    GTEST_SKIP() << "sockets unavailable: " << server.status().ToString();
  }
  auto channel = Connect("127.0.0.1", (*server)->bound_port());
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  // A compress offer is not part of the hello: the connection layer
  // answers it without forwarding it to the daemon, and grants nothing.
  JsonValue hello = JsonValue::Object();
  hello.Set("cmd", "hello");
  hello.Set("compress", "deflate");
  ASSERT_TRUE((*channel)->Send(hello).ok());
  JsonValue reply;
  ASSERT_TRUE((*channel)->Recv(&reply).ok());
  EXPECT_EQ(reply.Serialize(), "{\"ok\":true}");

  // A response of 4 KiB or more on that connection is a plain frame: the
  // unknown-command error echoes the long command name back.
  JsonValue request = JsonValue::Object();
  request.Set("cmd", std::string(5000, 'q'));
  ASSERT_TRUE((*channel)->Send(request).ok());
  const int fd = (*channel)->ReleaseFd();
  FrameDecoder decoder;
  std::string payload;
  while (!decoder.Next(&payload)) {
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection ended before a full frame";
    ASSERT_TRUE(decoder.Feed(buf, static_cast<size_t>(n)).ok())
        << decoder.error().ToString();
  }
  ::close(fd);
  EXPECT_GE(payload.size(), 4096u);
  auto response = JsonValue::Parse(payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->Find("ok")->bool_value());
  EXPECT_NE(response->Find("error")->string_value().find("unknown command"),
            std::string::npos);
}

TEST(ProtocolTest, HelloAuthenticatesTenantAndGuardsTheConnection) {
  TpcpdOptions options;
  TenantConfig open;
  open.name = "alice";
  TenantConfig locked;
  locked.name = "vault";
  locked.token = "s3cret";
  options.tenants = {open, locked};
  auto daemon = Tpcpd::Start(std::move(options));
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  auto server = TpcpdServer::Listen(daemon->get(), 0);
  if (!server.ok()) {
    GTEST_SKIP() << "sockets unavailable: " << server.status().ToString();
  }
  const int port = (*server)->bound_port();

  JsonValue submit_vault = JsonValue::Object();
  submit_vault.Set("cmd", "submit");
  submit_vault.Set("tenant", "vault");

  {
    // Unauthenticated connections bounce off the protected tenant with a
    // clean {"ok":false}, and wrong credentials don't bind anything.
    auto client = TpcpdClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto response = (*client)->Call(submit_vault);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->Find("ok")->bool_value());

    const Status bad = (*client)->Authenticate("vault", "wrong");
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.ToString().find("bad token"), std::string::npos)
        << bad.ToString();
    response = (*client)->Call(submit_vault);
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->Find("ok")->bool_value());

    // The rejected hello left the connection usable: open tenants and
    // read-only commands still work.
    JsonValue stats = JsonValue::Object();
    stats.Set("cmd", "tenant-stats");
    response = (*client)->Call(stats);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->Find("ok")->bool_value());
  }
  {
    // The real token binds the connection; every later frame acts as the
    // tenant.
    auto client = TpcpdClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE((*client)->Authenticate("vault", "s3cret").ok());
    auto response = (*client)->Call(submit_vault);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->Find("ok")->bool_value())
        << response->Serialize();
    JsonValue poll = JsonValue::Object();
    poll.Set("cmd", "poll");
    poll.Set("job", response->Find("job")->int_value());
    response = (*client)->Call(poll);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->Find("ok")->bool_value());
  }
}

}  // namespace
}  // namespace tpcp
