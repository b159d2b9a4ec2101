// Minimal leveled logging and CHECK macros.
//
// CHECK-style macros are for programming errors (invariant violations); they
// abort with a message. Environmental failures use Status (util/status.h).

#ifndef TPCP_UTIL_LOGGING_H_
#define TPCP_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace tpcp {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal {

/// Accumulates one log line and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Like LogMessage but aborts the process on destruction.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

struct Voidify {
  // Lower precedence than << but higher than ?:.
  void operator&(std::ostream&) {}
};

}  // namespace internal

#define TPCP_LOG_INTERNAL(level) \
  ::tpcp::internal::LogMessage(level, __FILE__, __LINE__).stream()

#define TPCP_LOG(severity) TPCP_LOG_INTERNAL(::tpcp::LogLevel::k##severity)

/// Aborts with a message when `cond` is false.
#define TPCP_CHECK(cond)                                       \
  (cond) ? (void)0                                             \
         : ::tpcp::internal::Voidify() &                       \
               ::tpcp::internal::FatalLogMessage(__FILE__, __LINE__).stream() \
                   << "Check failed: " #cond " "

#define TPCP_CHECK_EQ(a, b) TPCP_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define TPCP_CHECK_NE(a, b) TPCP_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define TPCP_CHECK_LT(a, b) TPCP_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define TPCP_CHECK_LE(a, b) TPCP_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define TPCP_CHECK_GT(a, b) TPCP_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define TPCP_CHECK_GE(a, b) TPCP_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

#ifdef NDEBUG
#define TPCP_DCHECK(cond) TPCP_CHECK(true)
#else
#define TPCP_DCHECK(cond) TPCP_CHECK(cond)
#endif

}  // namespace tpcp

#endif  // TPCP_UTIL_LOGGING_H_
