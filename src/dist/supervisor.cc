#include "dist/supervisor.h"

#include <utility>

namespace tpcp {
namespace {

std::string WorkerName(int worker) {
  return worker >= 0 ? "worker " + std::to_string(worker) : "fleet";
}

}  // namespace

Result<DegradeMode> DegradeModeFromName(const std::string& name) {
  if (name == "off") return DegradeMode::kOff;
  if (name == "shrink") return DegradeMode::kShrink;
  if (name == "single") return DegradeMode::kSingle;
  return Status::InvalidArgument("unknown degrade mode '" + name +
                                 "' (choices: off, shrink, single)");
}

WorkerSupervisor::WorkerSupervisor(
    int fleet_size, int max_respawns, DegradeMode mode,
    std::function<void(const std::string&)> log)
    : fleet_size_(fleet_size),
      max_respawns_(max_respawns < 0 ? 0 : max_respawns),
      mode_(mode),
      log_(std::move(log)) {}

RecoveryDecision WorkerSupervisor::OnWorkerFault(int worker,
                                                 const Status& cause) {
  RecoveryDecision decision;
  if (respawns_ < max_respawns_) {
    ++respawns_;
    decision.action = RecoveryDecision::Action::kRespawn;
    decision.fleet_size = fleet_size_;
    Log("dist: " + WorkerName(worker) + " failed (" + cause.ToString() +
        "); respawning fleet of " + std::to_string(fleet_size_) +
        " from last checkpoint (respawn " + std::to_string(respawns_) + "/" +
        std::to_string(max_respawns_) + ")");
    return decision;
  }
  switch (mode_) {
    case DegradeMode::kOff:
      decision.action = RecoveryDecision::Action::kFail;
      decision.fleet_size = fleet_size_;
      Log("dist: " + WorkerName(worker) + " failed (" + cause.ToString() +
          "); respawn budget spent and degrade=off — failing the run");
      return decision;
    case DegradeMode::kShrink:
      if (fleet_size_ > 1) {
        ++degrades_;
        --fleet_size_;
        decision.action = RecoveryDecision::Action::kShrink;
        decision.fleet_size = fleet_size_;
        Log("dist: " + WorkerName(worker) + " failed (" + cause.ToString() +
            "); degrading to " + std::to_string(fleet_size_) +
            " worker(s), re-planned ownership, resuming from last "
            "checkpoint");
        return decision;
      }
      ++degrades_;
      fleet_size_ = 0;
      decision.action = RecoveryDecision::Action::kSingleProcess;
      decision.fleet_size = 0;
      Log("dist: " + WorkerName(worker) + " failed (" + cause.ToString() +
          "); degrading to single-process finish from last checkpoint");
      return decision;
    case DegradeMode::kSingle:
      ++degrades_;
      fleet_size_ = 0;
      decision.action = RecoveryDecision::Action::kSingleProcess;
      decision.fleet_size = 0;
      Log("dist: " + WorkerName(worker) + " failed (" + cause.ToString() +
          "); degrading to single-process finish from last checkpoint");
      return decision;
  }
  return decision;
}

void WorkerSupervisor::Log(const std::string& line) const {
  if (log_) log_(line);
}

}  // namespace tpcp
