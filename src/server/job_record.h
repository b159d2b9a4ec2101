// Persisted job records — the survivable half of the tpcpd queue.
//
// The daemon writes one manifest-style text record per job into its state
// Env (`jobs/<id>`) and rewrites it on every scheduler transition. A
// record carries everything needed to re-create the job after a daemon
// restart: identity (tenant, name, priority, admission sequence), the
// serialized solver options, and the storage URI of the job's factor
// store. Recovery re-admits every non-terminal record; because the
// *effective* options (with the resolved buffer budget) are what gets
// persisted, a re-created spec fingerprints identically to the original
// run and Phase-2 auto-resume continues from the store's checkpoint
// bit-identically.
//
// Record format (one field per line, values %-escaped):
//
//   tpcpd-job 1
//   id 7
//   tenant alice
//   ...
//   opt rank 16
//   param grid 4
//   end
//
// The `end` trailer makes a truncated write detectable: a record without
// it is rejected at recovery instead of resurrecting a half-written job.

#ifndef TPCP_SERVER_JOB_RECORD_H_
#define TPCP_SERVER_JOB_RECORD_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/config.h"
#include "util/status.h"

namespace tpcp {

/// Daemon-level lifecycle. Distinct from JobState: the daemon queues jobs
/// itself (admission control) and adds kPreempted — cancelled by the
/// scheduler to make room for higher priority, to be resumed, not a
/// terminal state.
enum class ServerJobState {
  kQueued = 0,
  kRunning = 1,
  kPreempted = 2,
  kSucceeded = 3,
  kFailed = 4,
  kCancelled = 5,
};

const char* ServerJobStateName(ServerJobState state);
Result<ServerJobState> ServerJobStateFromName(const std::string& name);

/// kSucceeded / kFailed / kCancelled.
inline bool IsTerminal(ServerJobState state) {
  return state == ServerJobState::kSucceeded ||
         state == ServerJobState::kFailed ||
         state == ServerJobState::kCancelled;
}

/// One persisted job.
struct ServerJobRecord {
  int64_t id = 0;
  std::string tenant;
  /// Client-chosen label (free text, for humans).
  std::string name;
  /// Larger runs first; ties broken by fair-share rotation then seq.
  int priority = 0;
  /// Admission sequence — preserved across preemption so a preempted job
  /// does not lose its place behind jobs admitted later.
  int64_t seq = 0;
  ServerJobState state = ServerJobState::kQueued;
  /// Times this job was preempted by the scheduler.
  int preemptions = 0;
  /// The last run engaged Phase-2 checkpoint resume.
  bool resumed = false;
  /// Terminal detail: failure/cancel message (empty otherwise).
  std::string detail;
  /// Final surrogate fit (meaningful in kSucceeded).
  double fit = 0.0;
  std::string solver = "2pcp";
  /// Storage URI of the job's own store (resolved, tenant-rooted).
  std::string session_uri;
  /// The admission-charged budget.
  uint64_t budget_buffer_bytes = 0;
  int budget_threads = 0;
  /// Serialized TwoPhaseCpOptions (OptionsToMap) and solver params.
  std::map<std::string, std::string> options;
  std::map<std::string, std::string> params;
};

std::string EncodeServerJobRecord(const ServerJobRecord& record);
Result<ServerJobRecord> DecodeServerJobRecord(const std::string& text);

}  // namespace tpcp

#endif  // TPCP_SERVER_JOB_RECORD_H_
