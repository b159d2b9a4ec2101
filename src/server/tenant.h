// Tenants of the tpcpd daemon.
//
// A tenant is a named principal with its own storage root and a resource
// quota. Every job a tenant submits is charged a budget (buffer bytes +
// worker threads) against that quota by the daemon's admission control:
// a submit whose budget can never fit its tenant's quota is rejected
// outright, and a job only starts running when its budget fits both the
// tenant's remaining quota and the daemon's global totals — so the sum of
// running budgets provably never exceeds either bound.

#ifndef TPCP_SERVER_TENANT_H_
#define TPCP_SERVER_TENANT_H_

#include <cstdint>
#include <string>

#include "core/config.h"
#include "util/status.h"

namespace tpcp {

/// Per-tenant resource ceiling.
struct TenantQuota {
  /// Aggregate Phase-2 buffer bytes across the tenant's running jobs.
  uint64_t buffer_bytes = 64ull << 20;
  /// Aggregate worker threads across the tenant's running jobs.
  int threads = 4;
  /// Running-job count ceiling.
  int max_concurrent_jobs = 2;
};

/// One registered tenant.
struct TenantConfig {
  std::string name;
  /// Storage root; each job's store lives at `<storage_uri>/<job dir>`
  /// (posix://) or in a daemon-held env (mem://).
  std::string storage_uri = "mem://";
  /// Shared-secret auth token. Empty: the tenant is open (any connection
  /// may act on it — the pre-token behavior). Non-empty: job-addressed
  /// commands for this tenant are rejected unless the connection
  /// authenticated with this exact token in its hello.
  std::string token;
  TenantQuota quota;
};

/// What one admitted job charges against its tenant's quota and the
/// daemon totals while running.
struct JobBudget {
  uint64_t buffer_bytes = 0;
  int threads = 0;
};

/// Aggregate usage of a tenant (or of the whole daemon).
struct ResourceUsage {
  uint64_t buffer_bytes = 0;
  int threads = 0;
  int running_jobs = 0;

  void Charge(const JobBudget& budget) {
    buffer_bytes += budget.buffer_bytes;
    threads += budget.threads;
    ++running_jobs;
  }
  void Release(const JobBudget& budget) {
    buffer_bytes -= budget.buffer_bytes;
    threads -= budget.threads;
    --running_jobs;
  }
};

/// The budget a job with these options is charged. Buffer: an explicit
/// buffer_bytes, else the full tenant buffer quota (a fraction resolves
/// only against a grid; Tpcpd::Submit resolves a generate-submit's
/// fraction before calling this, and persists the charged size as the
/// job's buffer_bytes, the pool the run then sizes). Threads: the larger
/// of the Phase-1 pool and the Phase-2 compute + prefetch-I/O pools.
JobBudget ComputeJobBudget(const TwoPhaseCpOptions& options,
                           const TenantQuota& quota);

/// True when `budget` fits inside `quota` on every axis (ignoring current
/// usage) — the submit-time sanity bound.
bool BudgetFitsQuota(const JobBudget& budget, const TenantQuota& quota);

/// True when `budget` can start now given the tenant's current usage.
bool CanStart(const JobBudget& budget, const ResourceUsage& usage,
              const TenantQuota& quota);

/// Parses a `name,storage_uri[,key=value...]` tenant spec (the tpcpd
/// --tenant flag). Keys: buffer_mb, threads, max_jobs, token.
Result<TenantConfig> ParseTenantSpec(const std::string& spec);

}  // namespace tpcp

#endif  // TPCP_SERVER_TENANT_H_
