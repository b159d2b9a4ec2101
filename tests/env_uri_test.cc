#include "storage/env_uri.h"

#include <gtest/gtest.h>

#include "storage/compressed_env.h"
#include "storage/throttled_env.h"

namespace tpcp {
namespace {

TEST(ParseEnvUriTest, PlainScheme) {
  auto parsed = ParseEnvUri("mem://");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->scheme, "mem");
  EXPECT_TRUE(parsed->wrappers.empty());
  EXPECT_TRUE(parsed->path.empty());
  EXPECT_TRUE(parsed->query.empty());
}

TEST(ParseEnvUriTest, PathAndQuery) {
  auto parsed = ParseEnvUri("posix:///var/data/run1?a=1&b=two");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->scheme, "posix");
  EXPECT_EQ(parsed->path, "/var/data/run1");
  ASSERT_EQ(parsed->query.size(), 2u);
  EXPECT_EQ(parsed->query.at("a"), "1");
  EXPECT_EQ(parsed->query.at("b"), "two");
}

TEST(ParseEnvUriTest, WrapperChainOutermostFirst) {
  auto parsed = ParseEnvUri("faulty+compressed+posix:///d?fail_reads_after=3");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->scheme, "posix");
  ASSERT_EQ(parsed->wrappers.size(), 2u);
  EXPECT_EQ(parsed->wrappers[0], "faulty");
  EXPECT_EQ(parsed->wrappers[1], "compressed");
}

TEST(ParseEnvUriTest, MalformedUrisRejected) {
  for (const char* uri :
       {"mem", "no-scheme-separator", "://path", "+mem://", "mem++posix://",
        "mem://?", "mem://?novalue", "mem://?=3", "mem://?a=1&&b=2"}) {
    auto parsed = ParseEnvUri(uri);
    EXPECT_FALSE(parsed.ok()) << uri;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << uri;
    }
  }
}

TEST(OpenEnvTest, MemEnvRoundTrip) {
  auto env = OpenEnv("mem://");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  ASSERT_TRUE(env->get() != nullptr);
  ASSERT_TRUE((*env)->WriteFile("f", "hello").ok());
  std::string bytes;
  ASSERT_TRUE((*env)->ReadFile("f", &bytes).ok());
  EXPECT_EQ(bytes, "hello");
}

TEST(OpenEnvTest, MemWithPathRejected) {
  auto env = OpenEnv("mem://some/path");
  ASSERT_FALSE(env.ok());
  EXPECT_EQ(env.status().code(), StatusCode::kInvalidArgument);
}

TEST(OpenEnvTest, PosixRequiresPath) {
  auto env = OpenEnv("posix://");
  ASSERT_FALSE(env.ok());
  EXPECT_EQ(env.status().code(), StatusCode::kInvalidArgument);
}

TEST(OpenEnvTest, UnknownSchemeAndWrapperRejected) {
  auto unknown_scheme = OpenEnv("s3://bucket");
  ASSERT_FALSE(unknown_scheme.ok());
  EXPECT_EQ(unknown_scheme.status().code(), StatusCode::kInvalidArgument);

  auto unknown_wrapper = OpenEnv("encrypted+mem://");
  ASSERT_FALSE(unknown_wrapper.ok());
  EXPECT_EQ(unknown_wrapper.status().code(), StatusCode::kInvalidArgument);
}

TEST(OpenEnvTest, CompressedWrapperIsTransparent) {
  auto env = OpenEnv("compressed+mem://");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  const std::string payload(4096, 'x');
  ASSERT_TRUE((*env)->WriteFile("f", payload).ok());
  std::string bytes;
  ASSERT_TRUE((*env)->ReadFile("f", &bytes).ok());
  EXPECT_EQ(bytes, payload);
  // The outer layer really is the compression wrapper.
  EXPECT_NE(dynamic_cast<CompressedEnv*>(env->get()), nullptr);
  // The base layer stores the compressed representation.
  std::string stored;
  ASSERT_TRUE(env->base()->ReadFile("f", &stored).ok());
  EXPECT_NE(stored, payload);
}

TEST(OpenEnvTest, CompressedTakesNoLevel) {
  // The XOR codec has no levels, so `level` is an unknown parameter like
  // any other.
  auto env = OpenEnv("compressed+mem://?level=3");
  ASSERT_FALSE(env.ok());
  EXPECT_EQ(env.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(env.status().message().find("level"), std::string::npos)
      << env.status().ToString();
}

TEST(OpenEnvTest, ThrottledWrapperParams) {
  auto env = OpenEnv("throttled+mem://?mbps=50&latency_ms=0.5");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_NE(dynamic_cast<ThrottledEnv*>(env->get()), nullptr);

  EXPECT_FALSE(OpenEnv("throttled+mem://?mbps=0").ok());
  EXPECT_FALSE(OpenEnv("throttled+mem://?mbps=-3").ok());
  EXPECT_FALSE(OpenEnv("throttled+mem://?latency_ms=-1").ok());
  EXPECT_FALSE(OpenEnv("throttled+mem://?mbps=fast").ok());
}

TEST(OpenEnvTest, FaultyWrapperInjectsFailures) {
  auto env = OpenEnv("faulty+mem://?fail_writes_after=1");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_TRUE((*env)->WriteFile("a", "1").ok());
  EXPECT_TRUE((*env)->WriteFile("b", "2").IsIOError());
}

TEST(OpenEnvTest, FaultyTransientParamsInjectRecoverableFaults) {
  auto env = OpenEnv("faulty+mem://?transient_write_every=2");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_TRUE((*env)->WriteFile("a", "1").ok());
  EXPECT_TRUE((*env)->WriteFile("b", "2").IsIOError());  // every 2nd op
  EXPECT_TRUE((*env)->WriteFile("b", "2").ok());         // retry lands

  // every=1 would fail every attempt — a permanent fault in transient
  // clothing, so the factory refuses it.
  EXPECT_FALSE(OpenEnv("faulty+mem://?transient_write_every=1").ok());
  EXPECT_FALSE(OpenEnv("faulty+mem://?transient_read_every=1").ok());
}

TEST(OpenEnvTest, RetryWrapperAbsorbsTransientFaults) {
  // retry+ above faulty+: every 2nd write and 3rd read fails once, and the
  // retry layer makes the stack look healthy.
  auto env = OpenEnv(
      "retry+faulty+mem://?transient_write_every=2&transient_read_every=3"
      "&attempts=3&backoff_ms=0&max_backoff_ms=0");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  for (int i = 0; i < 8; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE((*env)->WriteFile(name, name).ok()) << name;
    std::string bytes;
    ASSERT_TRUE((*env)->ReadFile(name, &bytes).ok()) << name;
    EXPECT_EQ(bytes, name);
  }

  // Permanent failures pass through untouched (and unretried).
  std::string bytes;
  EXPECT_TRUE((*env)->ReadFile("missing", &bytes).IsNotFound());
}

TEST(OpenEnvTest, RetryWrapperParamsValidated) {
  EXPECT_FALSE(OpenEnv("retry+mem://?attempts=0").ok());
  EXPECT_FALSE(OpenEnv("retry+mem://?backoff_ms=-1").ok());
  EXPECT_FALSE(OpenEnv("retry+mem://?max_backoff_ms=-1").ok());
  EXPECT_TRUE(OpenEnv("retry+mem://?attempts=1").ok());
}

TEST(OpenEnvTest, UnknownParameterRejected) {
  auto env = OpenEnv("throttled+mem://?mbps=50&bogus=1");
  ASSERT_FALSE(env.ok());
  EXPECT_EQ(env.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(env.status().message().find("bogus"), std::string::npos);
}

TEST(OpenEnvTest, ChainedWrappersComposeLeftmostOutermost) {
  auto env = OpenEnv("throttled+compressed+mem://?mbps=1000");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_NE(dynamic_cast<ThrottledEnv*>(env->get()), nullptr);
  const std::string payload(1024, 'y');
  ASSERT_TRUE((*env)->WriteFile("f", payload).ok());
  std::string bytes;
  ASSERT_TRUE((*env)->ReadFile("f", &bytes).ok());
  EXPECT_EQ(bytes, payload);
}

TEST(EnvFactoryRegistryTest, CustomSchemeParticipatesInChains) {
  EnvFactoryRegistry::Global().RegisterScheme(
      "testmem",
      [](const std::string& path, UriParams*) -> Result<std::unique_ptr<Env>> {
        (void)path;
        return NewMemEnv();
      });
  auto env = OpenEnv("compressed+testmem://");
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  ASSERT_TRUE((*env)->WriteFile("f", "data").ok());
  std::string bytes;
  ASSERT_TRUE((*env)->ReadFile("f", &bytes).ok());
  EXPECT_EQ(bytes, "data");
}

}  // namespace
}  // namespace tpcp
