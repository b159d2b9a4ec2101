#include <gtest/gtest.h>

#include <set>

#include "core/names.h"
#include "util/format.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace tpcp {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  const Status io = Status::IOError("disk on fire");
  EXPECT_FALSE(io.ok());
  EXPECT_TRUE(io.IsIOError());
  EXPECT_EQ(io.message(), "disk on fire");
  EXPECT_EQ(io.ToString(), "IOError: disk on fire");

  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_EQ(Status::InvalidArgument("y").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::FailedPrecondition("y").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("y").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("y").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::IOError("a"), Status::IOError("a"));
  EXPECT_FALSE(Status::IOError("a") == Status::IOError("b"));
  EXPECT_FALSE(Status::IOError("a") == Status::NotFound("a"));
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCorruption), "Corruption");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status FailsThrough() {
  TPCP_RETURN_IF_ERROR(Status::IOError("inner"));
  return Status::OK();
}

Result<int> Doubles(Result<int> in) {
  TPCP_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(FailsThrough().IsIOError());
}

TEST(StatusMacrosTest, AssignOrReturn) {
  EXPECT_EQ(Doubles(21).value(), 42);
  EXPECT_TRUE(Doubles(Status::Corruption("bad")).status().IsCorruption());
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextUint64(10), 10u);
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextUint64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(FormatTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(12), "12 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(uint64_t{3} * 1024 * 1024 * 1024), "3.0 GiB");
}

TEST(FormatTest, HumanCount) {
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(2500000), "2.50M");
}

TEST(FormatTest, JoinAndDims) {
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
  EXPECT_EQ(DimsToString({500, 500, 500}), "500x500x500");
}

TEST(FormatTest, Fixed) {
  EXPECT_EQ(Fixed(3.14159, 2), "3.14");
  EXPECT_EQ(Fixed(-1.0, 1), "-1.0");
}

TEST(ParseTest, ParseInt64AcceptsWholeIntegers) {
  EXPECT_EQ(*ParseInt64("0"), 0);
  EXPECT_EQ(*ParseInt64("-17"), -17);
  EXPECT_EQ(*ParseInt64("9000000000"), 9000000000LL);
}

TEST(ParseTest, ParseInt64RejectsGarbage) {
  // atoll would silently return 0 for every one of these.
  for (const char* text :
       {"", "abc", "12abc", "1.5", " 7 ", "7 ", "0x10",
        "99999999999999999999999999"}) {
    auto r = ParseInt64(text);
    EXPECT_FALSE(r.ok()) << "'" << text << "'";
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

TEST(ParseTest, ParseUint64TakesTheWholeUnsignedRange) {
  EXPECT_EQ(*ParseUint64("0"), 0u);
  EXPECT_EQ(*ParseUint64("18446744073709551615"), UINT64_MAX);
  for (const char* text :
       {"", "-1", "+1", " 1", "1 ", "1.0", "18446744073709551616"}) {
    auto r = ParseUint64(text);
    EXPECT_FALSE(r.ok()) << "'" << text << "'";
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

TEST(ParseTest, ParseDoubleAcceptsNumbers) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2"), -2.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e-3"), 1e-3);
}

TEST(ParseTest, ParseDoubleRejectsGarbage) {
  // Non-finite spellings are rejected too: range guards like `x <= 0.0`
  // downstream are NaN-blind.
  for (const char* text : {"", "abc", "0.5x", "1..2", "--3", "1e", "3,5",
                           "nan", "inf", "-inf", "infinity", "1e999"}) {
    auto r = ParseDouble(text);
    EXPECT_FALSE(r.ok()) << "'" << text << "'";
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

TEST(NamesTest, RoundTripsEveryEnum) {
  for (ScheduleType type :
       {ScheduleType::kModeCentric, ScheduleType::kFiberOrder,
        ScheduleType::kZOrder, ScheduleType::kHilbertOrder,
        ScheduleType::kSnakeOrder, ScheduleType::kRandomOrder}) {
    auto parsed = ScheduleTypeFromName(ScheduleTypeName(type));
    ASSERT_TRUE(parsed.ok()) << ScheduleTypeName(type);
    EXPECT_EQ(*parsed, type);
  }
  for (PolicyType type :
       {PolicyType::kLru, PolicyType::kMru, PolicyType::kForward}) {
    auto parsed = PolicyTypeFromName(PolicyTypeName(type));
    ASSERT_TRUE(parsed.ok()) << PolicyTypeName(type);
    EXPECT_EQ(*parsed, type);
  }
  for (InitMethod method : {InitMethod::kRandom, InitMethod::kHosvd}) {
    auto parsed = InitMethodFromName(InitMethodName(method));
    ASSERT_TRUE(parsed.ok()) << InitMethodName(method);
    EXPECT_EQ(*parsed, method);
  }
}

TEST(NamesTest, UnknownNamesListChoices) {
  auto schedule = ScheduleTypeFromName("spiral");
  ASSERT_FALSE(schedule.ok());
  EXPECT_EQ(schedule.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(schedule.status().message().find("ho"), std::string::npos);
  EXPECT_FALSE(PolicyTypeFromName("belady").ok());
  EXPECT_FALSE(InitMethodFromName("zeros").ok());
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
  w.Restart();
  const double before = w.ElapsedSeconds();
  EXPECT_LT(before, 1.0);
  EXPECT_GE(w.ElapsedMillis(), before * 1e3);  // monotone
}

}  // namespace
}  // namespace tpcp
