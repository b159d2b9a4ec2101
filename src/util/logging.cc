#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace tpcp {
namespace {

/// Lines below this level are dropped.
constexpr LogLevel kMinLevel = LogLevel::kInfo;
std::mutex g_log_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* file) {
  const char* slash = std::strrchr(file, '/');
  return slash != nullptr ? slash + 1 : file;
}

void Emit(LogLevel level, const std::string& body) {
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), body.c_str());
  std::fflush(stderr);
}

}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << Basename(file) << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) >= static_cast<int>(kMinLevel)) {
    Emit(level_, stream_.str());
  }
}

FatalLogMessage::FatalLogMessage(const char* file, int line) {
  stream_ << Basename(file) << ":" << line << "] ";
}

FatalLogMessage::~FatalLogMessage() {
  Emit(LogLevel::kError, stream_.str());
  std::abort();
}

}  // namespace internal
}  // namespace tpcp
