// ScratchDir: a fresh directory for one test's posix stores, made with
// mkdtemp under ::testing::TempDir() and removed, with everything in it,
// when the object is destroyed. Declare it before anything that writes
// under it. Test processes running at once (a sanitizer build's ctest
// beside the normal one) never share state, and no run leaves
// directories behind.

#ifndef TPCP_TESTS_SCRATCH_DIR_H_
#define TPCP_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

namespace tpcp {

class ScratchDir {
 public:
  ScratchDir() : path_(::testing::TempDir() + "tpcp_test.XXXXXX") {
    if (mkdtemp(path_.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp " << path_ << ": " << std::strerror(errno);
    }
    path_ += '/';
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// The directory, ending in '/'.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace tpcp

#endif  // TPCP_TESTS_SCRATCH_DIR_H_
