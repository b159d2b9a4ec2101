// Env wrapper that absorbs transient I/O faults with the shared retry
// policy (util/retry.h). A flaky-but-recoverable disk (FaultyEnv's
// transient modes, a briefly saturated network mount) looks healthy to the
// code above it; permanent failures (NotFound, Corruption, a disk that
// stays broken past the attempt budget) still surface unchanged.

#ifndef TPCP_STORAGE_RETRY_ENV_H_
#define TPCP_STORAGE_RETRY_ENV_H_

#include "storage/env.h"
#include "util/retry.h"

namespace tpcp {

/// Retrying pass-through wrapper. Thread-safe when the delegate is; each
/// operation retries independently with its own backoff sequence.
class RetryEnv : public Env {
 public:
  RetryEnv(Env* delegate, RetryPolicy policy)
      : delegate_(delegate), policy_(policy) {}

  Status WriteFile(const std::string& name, const std::string& data) override;
  Status ReadFile(const std::string& name, std::string* out) override;
  bool FileExists(const std::string& name) override;
  Status DeleteFile(const std::string& name) override;
  Result<uint64_t> FileSize(const std::string& name) override;
  std::vector<std::string> ListFiles(const std::string& prefix) override;

 private:
  Env* delegate_;
  RetryPolicy policy_;
};

}  // namespace tpcp

#endif  // TPCP_STORAGE_RETRY_ENV_H_
