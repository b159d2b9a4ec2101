// Coordinator-side worker supervision policy: given a stream of
// worker-attributed faults, decide — respawn the fleet at the same size,
// degrade it (shed one worker and re-plan ownership), finish
// single-process, or give up.
//
// The mechanism lives in dist/coordinator.cc (it owns the channels and the
// checkpoint state); this class owns only the *policy* — respawn budgets,
// the degrade ladder, and the operator-visible log lines — so it is unit
// testable without sockets.
//
// Recovery model: state is committed only at virtual-iteration checkpoints
// and workers always initialize from the persisted store, so the recovery
// unit is "tear the fleet down, restart from the last checkpoint". Any
// fleet (same size, smaller, or the in-process engine) replays the
// remaining plan positions bit-identically; only the wire ledger is
// re-priced.

#ifndef TPCP_DIST_SUPERVISOR_H_
#define TPCP_DIST_SUPERVISOR_H_

#include <functional>
#include <string>

#include "util/status.h"

namespace tpcp {

/// What the coordinator may fall back to once the respawn budget is spent.
enum class DegradeMode {
  kOff,     // never degrade: exhausting the budget fails the run
  kShrink,  // shed one worker at a time, re-planning ownership; a
            // single-worker fleet that still faults finishes in-process
  kSingle,  // skip shrinking: finish in-process immediately
};

Result<DegradeMode> DegradeModeFromName(const std::string& name);

/// The supervisor's verdict after one recoverable worker fault.
struct RecoveryDecision {
  enum class Action {
    kRespawn,        // restart the fleet at the same size
    kShrink,         // restart with one worker fewer
    kSingleProcess,  // finish via the in-process Phase2Engine
    kFail,           // surface the fault as the run's error
  };
  Action action = Action::kFail;
  /// Fleet size the next attempt runs with (meaningful for kRespawn /
  /// kShrink).
  int fleet_size = 0;
};

/// Tracks the fleet across fault events. Not thread-safe; the coordinator
/// consults it from its single protocol thread.
class WorkerSupervisor {
 public:
  /// `log` (optional) receives one grep-able line per recovery event.
  WorkerSupervisor(int fleet_size, int max_respawns, DegradeMode mode,
                   std::function<void(const std::string&)> log = nullptr);

  /// Records a worker-attributed recoverable fault (`worker` < 0 when the
  /// fault cannot be pinned on one id, e.g. a fleet-formation timeout) and
  /// returns what to do next. The returned fleet size is already applied
  /// to fleet_size().
  RecoveryDecision OnWorkerFault(int worker, const Status& cause);

  /// Emits an operator line through the log hook (no-op when unset).
  void Log(const std::string& line) const;

  int fleet_size() const { return fleet_size_; }
  int respawns() const { return respawns_; }
  int degrades() const { return degrades_; }

 private:
  int fleet_size_;
  int max_respawns_;
  DegradeMode mode_;
  std::function<void(const std::string&)> log_;
  int respawns_ = 0;
  int degrades_ = 0;
};

}  // namespace tpcp

#endif  // TPCP_DIST_SUPERVISOR_H_
