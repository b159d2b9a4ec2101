// Persisted job records — the survivable half of the tpcpd queue.
//
// The daemon writes one record per job into its state Env (`jobs/<id>`)
// and rewrites it on every scheduler transition. A record carries
// everything needed to re-create the job after a daemon restart: identity
// (tenant, name, priority, admission sequence), the serialized solver
// options, and the storage URI of the job's factor store. Recovery
// re-admits every non-terminal record; because the *effective* options
// (with the admission-resolved buffer_bytes) are what gets persisted, a
// re-created spec fingerprints identically to the original run and
// Phase-2 auto-resume continues from the store's checkpoint
// bit-identically.
//
// The record is one JSON object (server/json.h), and it is the same
// object the wire protocol's poll / await / list return under "job":
//
//   {"budget_buffer_bytes":1152,"budget_threads":1,"fit":0.98,"id":7,
//    "name":"","options":{"rank":"16",...},"params":{},"preemptions":0,
//    "priority":0,"resumed":false,"seq":7,"session_uri":"mem://#job-7",
//    "solver":"2pcp","state":"succeeded","tenant":"alice"}
//
// The strict whole-input parse makes a truncated write detectable: a
// record cut anywhere is not one complete JSON value, so it is rejected at
// recovery instead of resurrecting a half-written job.

#ifndef TPCP_SERVER_JOB_RECORD_H_
#define TPCP_SERVER_JOB_RECORD_H_

#include <cstdint>
#include <map>
#include <string>

#include "server/json.h"
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

/// The record as a JSON object: every field under its member name
/// (`budget_buffer_bytes`, `budget_threads`, ...), `state` by name, a
/// non-finite `fit` as null, `detail` only when non-empty, and `options` /
/// `params` as objects of strings.
JsonValue JobRecordToJson(const ServerJobRecord& record);

/// Parses a persisted record. Corruption unless `text` is exactly one JSON
/// object with `id > 0` and non-empty `tenant` and `solver` strings, a
/// known `state`, and every other present field of its encoded type.
/// Unknown keys are skipped; `"fit":null` reads as NaN.
Result<ServerJobRecord> DecodeServerJobRecord(const std::string& text);

}  // namespace tpcp

#endif  // TPCP_SERVER_JOB_RECORD_H_
