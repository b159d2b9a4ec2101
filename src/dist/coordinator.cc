#include "dist/coordinator.h"

#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/names.h"
#include "core/refinement_state.h"
#include "dist/exchange.h"
#include "grid/manifest.h"
#include "server/net.h"
#include "storage/retry_env.h"
#include "util/logging.h"
#include "util/retry.h"
#include "util/stopwatch.h"

namespace tpcp {
namespace {

/// Fault attribution for one fleet attempt: which worker (if any) a
/// failure can be pinned on, which is what decides whether the supervisor
/// may recover from it.
constexpr int kFaultNone = -1;   // not worker-attributable (content error)
constexpr int kFaultFleet = -2;  // fleet-wide (formation/spawn), recoverable

/// Channel errors get the worker's name attached: a killed worker shows up
/// here as its socket closing (or its deadline expiring), and the
/// supervisor needs to know which one. IOError also marks the fault
/// transient, i.e. recoverable.
Status Annotate(int worker, const Status& s) {
  if (s.ok()) return s;
  return Status::IOError("dist worker " + std::to_string(worker) + ": " +
                         s.ToString());
}

/// Logical bytes of one xchg/absorb frame — matrix payload bytes
/// (rows*cols*8 per matrix), the same definition
/// DistributedPlan::StepExchangeBytes predicts with. Read from the chunk
/// headers, not by decoding payloads.
Status XchgFrameBytes(const JsonValue& msg, uint64_t* bytes, bool* last) {
  *bytes = 0;
  if (const JsonValue* g = msg.Find("g")) {
    TPCP_ASSIGN_OR_RETURN(const int64_t r, GetInt(*g, "r"));
    TPCP_ASSIGN_OR_RETURN(const int64_t c, GetInt(*g, "c"));
    *bytes += static_cast<uint64_t>(r * c) * sizeof(double);
  }
  const JsonValue* entries = msg.Find("m");
  if (entries == nullptr || !entries->is_array()) {
    return Status::InvalidArgument("xchg frame: missing m");
  }
  for (const JsonValue& entry : entries->array_items()) {
    if (!entry.is_array() || entry.array_items().size() != 2) {
      return Status::InvalidArgument("xchg frame: bad m entry");
    }
    const JsonValue& m = entry.array_items()[1];
    TPCP_ASSIGN_OR_RETURN(const int64_t r, GetInt(m, "r"));
    TPCP_ASSIGN_OR_RETURN(const int64_t c, GetInt(m, "c"));
    *bytes += static_cast<uint64_t>(r * c) * sizeof(double);
  }
  TPCP_ASSIGN_OR_RETURN(*last, GetBoolOr(msg, "last", true));
  return Status::OK();
}

/// One collected exchange chunk awaiting relay.
struct RelayFrame {
  int owner = 0;
  int64_t pos = 0;
  uint64_t bytes = 0;
  bool last = false;
  JsonValue msg;
};

struct ListenGuard {
  int fd;
  ~ListenGuard() {
    if (fd >= 0) ::close(fd);
  }
};

/// Everything committed at the last checkpoint cut, shared across fleet
/// attempts. A failed attempt rolls the run back to this state; the next
/// attempt (any fleet size) replays from here bit-identically.
struct RunState {
  Phase2Progress progress;
  /// Ledger snapshot at the last checkpoint (same shapes as the result's).
  std::vector<WorkerTraffic> measured;
  std::vector<WorkerTraffic> predicted;
  std::vector<uint64_t> measured_persist_bytes;
  std::vector<uint64_t> predicted_persist_bytes;
  /// Restarted when an attempt's fleet is ready (DistributedRunResult::
  /// fleet_phase2_seconds).
  Stopwatch fleet_ready;
};

uint64_t LedgerTotalBytes(const DistributedRunResult& result) {
  uint64_t total = 0;
  for (const WorkerTraffic& t : result.measured) {
    total += t.up_bytes + t.down_bytes;
  }
  for (const uint64_t b : result.measured_persist_bytes) total += b;
  return total;
}

void SnapshotLedger(const DistributedRunResult& result, RunState* state) {
  state->measured = result.measured;
  state->predicted = result.predicted;
  state->measured_persist_bytes = result.measured_persist_bytes;
  state->predicted_persist_bytes = result.predicted_persist_bytes;
}

void RollbackLedger(const RunState& state, DistributedRunResult* result) {
  const uint64_t before = LedgerTotalBytes(*result);
  result->measured = state.measured;
  result->predicted = state.predicted;
  result->measured_persist_bytes = state.measured_persist_bytes;
  result->predicted_persist_bytes = state.predicted_persist_bytes;
  result->wasted_bytes += before - LedgerTotalBytes(*result);
}

/// One fleet attempt: forms a fleet of `fleet_size` workers, replays the
/// plan from the committed cursor, and commits `state` at every checkpoint
/// cut. On failure `*fault_worker` says who to blame: a worker id for
/// channel faults, kFaultFleet for formation faults, kFaultNone for
/// content violations (which the supervisor must never retry).
Status RunFleetAttempt(BlockFactorStore* factors,
                       const TwoPhaseCpOptions& options,
                       const ExecutionPlan& plan,
                       const DistributedRunOptions& dopts, int listen_fd,
                       int port, int fleet_size, RunState* state,
                       DistributedRunResult* result, int* fault_worker) {
  *fault_worker = kFaultFleet;
  const UpdateSchedule& schedule = plan.schedule();
  const int64_t vi_len = schedule.virtual_iteration_length();
  const DistributedPlan dplan(&plan, options.rank, fleet_size);
  const int io_timeout_ms =
      dopts.heartbeat_ms > 0 ? 10 * dopts.heartbeat_ms : -1;

  // Drain connections a failed attempt may have left in the backlog so a
  // stale hello cannot be mistaken for a respawned worker's.
  for (;;) {
    auto stale = Accept(listen_fd, /*timeout_ms=*/0);
    if (!stale.ok()) break;
  }

  for (int w = 0; w < fleet_size; ++w) {
    TPCP_RETURN_IF_ERROR(dopts.spawn_worker(port, w));
  }

  // Fleet formation: collect one hello per worker id. Junk connections
  // (stale workers, malformed or duplicate hellos) are dropped rather than
  // fatal, but each costs one bounded accept attempt so a hello storm
  // cannot spin forever.
  std::vector<std::unique_ptr<FrameChannel>> channels(
      static_cast<size_t>(fleet_size));
  int accepted = 0;
  int accepts_left = 2 * fleet_size + 4;
  while (accepted < fleet_size) {
    if (accepts_left-- <= 0) {
      return Status::IOError("dist: fleet formation did not converge");
    }
    TPCP_ASSIGN_OR_RETURN(std::unique_ptr<FrameChannel> channel,
                          Accept(listen_fd, dopts.accept_timeout_ms));
    channel->set_io_timeout_ms(io_timeout_ms);
    JsonValue hello;
    if (!channel->Recv(&hello).ok()) continue;
    const JsonValue* tag = hello.Find("t");
    if (tag == nullptr || !tag->is_string() ||
        tag->string_value() != "hello") {
      continue;
    }
    auto w = GetInt(hello, "worker");
    if (!w.ok() || *w < 0 || *w >= fleet_size ||
        channels[static_cast<size_t>(*w)] != nullptr) {
      continue;
    }
    channels[static_cast<size_t>(*w)] = std::move(channel);
    ++accepted;
  }
  *fault_worker = kFaultNone;

  auto send = [&channels, fault_worker](int w,
                                        const JsonValue& msg) -> Status {
    const Status s = channels[static_cast<size_t>(w)]->Send(msg);
    if (!s.ok()) *fault_worker = w;
    return Annotate(w, s);
  };
  // Heartbeats keep the channel's quiet-period deadline from firing while
  // a worker computes; they carry no protocol state and never reach the
  // ledger, so the receive path silently skips them.
  auto recv = [&channels, fault_worker](int w, JsonValue* msg) -> Status {
    for (;;) {
      const Status s = channels[static_cast<size_t>(w)]->Recv(msg);
      if (!s.ok()) {
        *fault_worker = w;
        return Annotate(w, s);
      }
      const JsonValue* tag = msg->Find("t");
      if (tag != nullptr && tag->is_string() &&
          tag->string_value() == "hb") {
        continue;
      }
      return Status::OK();
    }
  };

  JsonValue init = JsonValue::Object();
  init.Set("t", "init");
  init.Set("workers", static_cast<int64_t>(fleet_size));
  init.Set("hb_ms", static_cast<int64_t>(dopts.heartbeat_ms));
  init.Set("grid", EncodeGrid(factors->grid()));
  JsonValue options_map = JsonValue::Object();
  for (const auto& [key, value] : OptionsToMap(options)) {
    options_map.Set(key, value);
  }
  init.Set("options", std::move(options_map));
  for (int w = 0; w < fleet_size; ++w) {
    TPCP_RETURN_IF_ERROR(send(w, init));
  }

  // Readiness: every worker must have built the coordinator's exact plan
  // and options, and every worker's initial surrogate fit must agree
  // bitwise — they initialized from the same persisted state.
  int64_t init_fit_bits = 0;
  for (int w = 0; w < fleet_size; ++w) {
    JsonValue ready;
    TPCP_RETURN_IF_ERROR(recv(w, &ready));
    TPCP_ASSIGN_OR_RETURN(const std::string tag, GetString(ready, "t"));
    if (tag != "ready") {
      return Status::Internal("dist worker " + std::to_string(w) +
                              ": expected ready, got '" + tag + "'");
    }
    TPCP_ASSIGN_OR_RETURN(const int64_t plan_fp, GetInt(ready, "plan_fp"));
    if (static_cast<uint64_t>(plan_fp) != plan.fingerprint()) {
      return Status::Internal("dist worker " + std::to_string(w) +
                              " built a different execution plan");
    }
    TPCP_ASSIGN_OR_RETURN(const int64_t opts_fp, GetInt(ready, "opts_fp"));
    if (static_cast<uint64_t>(opts_fp) != options.ResumeFingerprint()) {
      return Status::Internal("dist worker " + std::to_string(w) +
                              " decoded different math-shaping options");
    }
    TPCP_ASSIGN_OR_RETURN(const int64_t own_fp, GetInt(ready, "own_fp"));
    if (static_cast<uint64_t>(own_fp) != dplan.ownership_fingerprint()) {
      return Status::Internal("dist worker " + std::to_string(w) +
                              " built a different ownership map");
    }
    TPCP_ASSIGN_OR_RETURN(const int64_t fit_bits, GetInt(ready, "fit"));
    if (w == 0) {
      init_fit_bits = fit_bits;
    } else if (fit_bits != init_fit_bits) {
      return Status::Internal(
          "dist: initial surrogate fit diverges across workers");
    }
  }
  state->fleet_ready.Restart();

  // Channel integrity violations (lost or misordered frames) are
  // worker-attributed transient faults: unlike content violations they do
  // not mean the math went wrong — the fleet restarts from the checkpoint.
  auto worker_fault = [fault_worker](int w, const std::string& what) {
    *fault_worker = w;
    return Status::IOError("dist worker " + std::to_string(w) + ": " + what);
  };

  // Before its first iteration closes, a run compares against the fit of
  // the state the workers initialized from.
  if (state->progress.fit_trace.empty()) {
    state->progress.last_fit = BitsToDouble(init_fit_bits);
  }
  Phase2Progress progress = state->progress;
  progress.ownership_fingerprint = dplan.ownership_fingerprint();
  int64_t pos = progress.cursor;

  while (progress.iteration < options.max_virtual_iterations) {
    const int64_t vi_end =
        static_cast<int64_t>(progress.iteration + 1) * vi_len;
    const int64_t window_begin = pos;
    while (pos < vi_end) {
      // One plan wave (clipped to the virtual iteration), executed by all
      // owners concurrently — the steps commute exactly, so ownership
      // partitioning cannot change the math.
      const int64_t wave_end = std::min(plan.WaveEndAfter(pos), vi_end);
      JsonValue wave = JsonValue::Object();
      wave.Set("t", "wave");
      wave.Set("pos", pos);
      wave.Set("end", wave_end);
      for (int w = 0; w < fleet_size; ++w) {
        TPCP_RETURN_IF_ERROR(send(w, wave));
      }
      // Collect the owners' metadata images in worker-id order — a
      // deterministic relay order, so every worker absorbs the same
      // sequence on every run. Workers execute their owned steps serially
      // in plan order, so each one's image sequence is known in advance;
      // a frame off that sequence means the channel lost or reordered
      // something (chaos drop), which is a recoverable worker fault — not
      // silent data loss for the fit gate to catch a full iteration later.
      std::vector<std::vector<int64_t>> expected_images(
          static_cast<size_t>(fleet_size));
      for (int64_t p = pos; p < wave_end; ++p) {
        expected_images[static_cast<size_t>(dplan.OwnerAt(p))].push_back(p);
      }
      std::vector<RelayFrame> frames;
      for (int w = 0; w < fleet_size; ++w) {
        const std::vector<int64_t>& expect =
            expected_images[static_cast<size_t>(w)];
        size_t next_image = 0;
        for (;;) {
          JsonValue msg;
          TPCP_RETURN_IF_ERROR(recv(w, &msg));
          TPCP_ASSIGN_OR_RETURN(const std::string tag, GetString(msg, "t"));
          if (tag == "wave_done") break;
          if (tag != "xchg") {
            return Status::Internal("dist worker " + std::to_string(w) +
                                    ": expected xchg/wave_done, got '" +
                                    tag + "'");
          }
          RelayFrame frame;
          frame.owner = w;
          TPCP_ASSIGN_OR_RETURN(frame.pos, GetInt(msg, "pos"));
          if (next_image >= expect.size() ||
              frame.pos != expect[next_image]) {
            return worker_fault(w, "wave exchange out of sequence at plan "
                                   "position " +
                                       std::to_string(frame.pos));
          }
          TPCP_RETURN_IF_ERROR(
              XchgFrameBytes(msg, &frame.bytes, &frame.last));
          frame.msg = std::move(msg);
          result->measured[static_cast<size_t>(w)].up_bytes += frame.bytes;
          if (frame.last) {
            ++result->measured[static_cast<size_t>(w)].up_messages;
            ++next_image;
          }
          frames.push_back(std::move(frame));
        }
        if (next_image != expect.size()) {
          return worker_fault(w, "wave exchange incomplete (" +
                                     std::to_string(next_image) + " of " +
                                     std::to_string(expect.size()) +
                                     " images)");
        }
      }
      for (RelayFrame& frame : frames) {
        frame.msg.Set("t", "absorb");
        for (int v = 0; v < fleet_size; ++v) {
          if (v == frame.owner) continue;
          // Dead-absorb pruning: skip recipients that provably never read
          // this image before its next refresh. The prediction applies
          // the identical rule, so measured == predicted stays exact.
          if (!dplan.ImageLiveFor(frame.pos, v)) continue;
          TPCP_RETURN_IF_ERROR(send(v, frame.msg));
          result->measured[static_cast<size_t>(v)].down_bytes +=
              frame.bytes;
          if (frame.last) {
            ++result->measured[static_cast<size_t>(v)].down_messages;
          }
        }
      }
      // Commit barrier: no worker starts the next wave before every worker
      // absorbed this one's images.
      JsonValue commit = JsonValue::Object();
      commit.Set("t", "wave_commit");
      for (int w = 0; w < fleet_size; ++w) {
        TPCP_RETURN_IF_ERROR(send(w, commit));
      }
      for (int w = 0; w < fleet_size; ++w) {
        JsonValue ack;
        TPCP_RETURN_IF_ERROR(recv(w, &ack));
        TPCP_ASSIGN_OR_RETURN(const std::string tag, GetString(ack, "t"));
        if (tag != "wave_ack") {
          return Status::Internal("dist worker " + std::to_string(w) +
                                  ": expected wave_ack, got '" + tag + "'");
        }
      }
      for (int v = 0; v < fleet_size; ++v) {
        result->predicted[static_cast<size_t>(v)] +=
            dplan.TrafficForRange(v, pos, wave_end);
      }
      pos = wave_end;
    }
    // Virtual-iteration boundary: every worker evaluates the surrogate fit
    // over its (identical) full state; bitwise disagreement means the
    // exchange protocol failed and must never be papered over.
    JsonValue vi_msg = JsonValue::Object();
    vi_msg.Set("t", "vi_end");
    for (int w = 0; w < fleet_size; ++w) {
      TPCP_RETURN_IF_ERROR(send(w, vi_msg));
    }
    int64_t fit_bits = 0;
    for (int w = 0; w < fleet_size; ++w) {
      JsonValue fit_msg;
      TPCP_RETURN_IF_ERROR(recv(w, &fit_msg));
      TPCP_ASSIGN_OR_RETURN(const std::string tag, GetString(fit_msg, "t"));
      if (tag != "fit") {
        return Status::Internal("dist worker " + std::to_string(w) +
                                ": expected fit, got '" + tag + "'");
      }
      TPCP_ASSIGN_OR_RETURN(const int64_t bits, GetInt(fit_msg, "fit"));
      if (w == 0) {
        fit_bits = bits;
      } else if (bits != fit_bits) {
        return Status::Internal(
            "dist: surrogate fit diverges across workers at virtual "
            "iteration " +
            std::to_string(progress.iteration + 1));
      }
    }
    progress.cursor = pos;
    const bool converged = progress.CloseIteration(
        BitsToDouble(fit_bits), schedule.cycle_length(),
        options.fit_tolerance);

    // Persist boundary: collect every worker's dirty sub-factors, then
    // commit them with the checkpoint. Only the coordinator writes the
    // base store, so a worker killed at any point leaves it exactly at the
    // previous checkpoint.
    JsonValue persist = JsonValue::Object();
    persist.Set("t", "persist");
    for (int w = 0; w < fleet_size; ++w) {
      TPCP_RETURN_IF_ERROR(send(w, persist));
    }
    const std::vector<uint64_t> persist_before =
        result->measured_persist_bytes;
    std::map<ModePartition, Matrix> staged;
    for (int w = 0; w < fleet_size; ++w) {
      for (;;) {
        JsonValue msg;
        TPCP_RETURN_IF_ERROR(recv(w, &msg));
        TPCP_ASSIGN_OR_RETURN(const std::string tag, GetString(msg, "t"));
        if (tag == "persist_done") break;
        if (tag != "subfactor") {
          return Status::Internal("dist worker " + std::to_string(w) +
                                  ": expected subfactor/persist_done, got '" +
                                  tag + "'");
        }
        TPCP_ASSIGN_OR_RETURN(const int64_t mode, GetInt(msg, "mode"));
        TPCP_ASSIGN_OR_RETURN(const int64_t part, GetInt(msg, "part"));
        const ModePartition unit{static_cast<int>(mode), part};
        if (dplan.OwnerOf(unit) != w) {
          return Status::Internal("dist worker " + std::to_string(w) +
                                  " uploaded a sub-factor it does not own");
        }
        const JsonValue* a = msg.Find("a");
        if (a == nullptr) {
          return Status::InvalidArgument("subfactor frame: missing a");
        }
        TPCP_ASSIGN_OR_RETURN(const int64_t chunk_rows, GetInt(*a, "rc"));
        TPCP_ASSIGN_OR_RETURN(const int64_t cols, GetInt(*a, "c"));
        result->measured_persist_bytes[static_cast<size_t>(w)] +=
            static_cast<uint64_t>(chunk_rows * cols) * sizeof(double);
        TPCP_RETURN_IF_ERROR(DecodeMatrixRowsInto(*a, &staged[unit]));
      }
    }
    // Integrity gate before the base store advances: every worker's
    // persist upload must weigh exactly what the plan says its dirty
    // units weigh. A short upload means the channel lost frames — a
    // recoverable fault, caught *before* a truncated sub-factor is
    // committed.
    for (int w = 0; w < fleet_size; ++w) {
      const uint64_t uploaded =
          result->measured_persist_bytes[static_cast<size_t>(w)] -
          persist_before[static_cast<size_t>(w)];
      if (uploaded != dplan.PersistBytesForRange(w, window_begin, pos)) {
        return worker_fault(w, "persist upload incomplete");
      }
    }
    TPCP_RETURN_IF_ERROR(
        progress.Commit(factors, staged, Phase2Progress::Cut::kCheckpoint));
    for (int v = 0; v < fleet_size; ++v) {
      result->predicted_persist_bytes[static_cast<size_t>(v)] +=
          dplan.PersistBytesForRange(v, window_begin, pos);
    }

    // Checkpoint cut: commit the run state. Everything up to here replays
    // from the previous checkpoint; everything after is durable.
    state->progress = progress;
    SnapshotLedger(*result, state);
    if (converged) break;
  }

  for (int w = 0; w < fleet_size; ++w) {
    JsonValue finish = JsonValue::Object();
    finish.Set("t", "finish");
    TPCP_RETURN_IF_ERROR(send(w, finish));
    JsonValue bye;
    TPCP_RETURN_IF_ERROR(recv(w, &bye));
    TPCP_ASSIGN_OR_RETURN(const std::string tag, GetString(bye, "t"));
    if (tag != "bye") {
      return Status::Internal("dist worker " + std::to_string(w) +
                              ": expected bye, got '" + tag + "'");
    }
  }
  return Status::OK();
}

}  // namespace

Status RunDistributedPhase2(BlockFactorStore* factors,
                            const TwoPhaseCpOptions& options,
                            const DistributedRunOptions& dopts,
                            DistributedRunResult* result) {
  if (factors == nullptr || result == nullptr) {
    return Status::InvalidArgument("dist: null factors/result");
  }
  if (dopts.num_workers < 1) {
    return Status::InvalidArgument("dist: num_workers must be >= 1");
  }
  if (dopts.num_workers > 64) {
    return Status::InvalidArgument("dist: num_workers must be <= 64");
  }
  if (!dopts.spawn_worker) {
    return Status::InvalidArgument("dist: spawn_worker callback is required");
  }
  const int num_workers = dopts.num_workers;
  Stopwatch watch;
  const GridPartition& grid = factors->grid();

  // The coordinator's plan is the run's identity; every worker rebuilds it
  // from the init options and must fingerprint identically.
  const ExecutionPlan plan = BuildPhase2Plan(options, grid);

  // Every coordinator write and read goes through one retrying store, so
  // a transient storage fault never reaches the protocol.
  RetryEnv retry_env(factors->env(), RetryPolicy());
  BlockFactorStore store(&retry_env, factors->prefix(), factors->grid(),
                         factors->rank());

  // The engine's resume, plus this fleet's ownership map: a store the
  // engine would refuse to resume is refused here for the same reasons.
  RunState state;
  result->phase2 = Phase2Result();
  TPCP_ASSIGN_OR_RETURN(
      state.progress,
      Phase2Progress::Load(
          store, options, plan,
          DistributedPlan(&plan, options.rank, num_workers)
              .ownership_fingerprint()));
  if (!options.resume_phase2) {
    // Fresh run: seed the sub-factors as the engine does, so the workers
    // (which always initialize in resume mode) read the state a
    // single-process fresh run would have written.
    TPCP_RETURN_IF_ERROR(SeedSubFactors(&store).status());
  }

  result->plan_fingerprint = plan.fingerprint();
  result->measured.assign(static_cast<size_t>(num_workers), WorkerTraffic{});
  result->predicted.assign(static_cast<size_t>(num_workers),
                           WorkerTraffic{});
  result->measured_persist_bytes.assign(static_cast<size_t>(num_workers), 0);
  result->predicted_persist_bytes.assign(static_cast<size_t>(num_workers),
                                         0);
  SnapshotLedger(*result, &state);

  int port = 0;  // ephemeral
  TPCP_ASSIGN_OR_RETURN(const int listen_fd, Listen(&port));
  ListenGuard listen_guard{listen_fd};

  // Supervision loop: run fleet attempts until one succeeds, the run turns
  // out to be complete, the supervisor degrades to the in-process engine,
  // or the fault is not recoverable. Each failed attempt rolls the ledger
  // back to the last checkpoint (the overshoot lands in wasted_bytes) and
  // replays from there.
  WorkerSupervisor supervisor(num_workers, dopts.max_respawns, dopts.degrade,
                              dopts.log);
  bool single_process = false;
  for (;;) {
    int fault = kFaultNone;
    const Status attempt =
        RunFleetAttempt(&store, options, plan, dopts, listen_fd, port,
                        supervisor.fleet_size(), &state, result, &fault);
    if (attempt.ok()) break;
    RollbackLedger(state, result);
    if (fault == kFaultNone || !IsTransientStatus(attempt)) return attempt;
    if (state.progress.converged ||
        state.progress.iteration >= options.max_virtual_iterations) {
      // Every iteration is committed; the fault hit the epilogue. Nothing
      // to replay — finalize from the committed state.
      supervisor.Log("dist: fleet failed after the final checkpoint (" +
                     attempt.ToString() + "); finalizing committed run");
      break;
    }
    const RecoveryDecision decision =
        supervisor.OnWorkerFault(fault >= 0 ? fault : -1, attempt);
    if (decision.action == RecoveryDecision::Action::kFail) return attempt;
    if (decision.action == RecoveryDecision::Action::kSingleProcess) {
      single_process = true;
      break;
    }
    // kRespawn / kShrink: loop again at supervisor.fleet_size().
  }
  result->respawns = supervisor.respawns();
  result->degrades = supervisor.degrades();

  if (single_process) {
    // Degrade floor: finish in-process. The engine resumes from the
    // persisted store (with or without a checkpoint — a fresh-run seed is
    // a valid resume point at position 0) and replays the identical plan,
    // so the factors stay byte-identical; its commit ends the run.
    TwoPhaseCpOptions engine_options = options;
    engine_options.resume_phase2 = true;
    TPCP_RETURN_IF_ERROR(
        Phase2Engine(&store, engine_options).Run(&result->phase2));
    result->phase2.start_iteration = state.progress.start_iteration;
    result->finished_single_process = true;
    result->final_workers = 0;
    result->phase2.seconds = watch.ElapsedSeconds();
    return Status::OK();
  }

  // The run completed: the plain manifest retires the checkpoint, leaving
  // the same bytes a single-process run's store holds.
  TPCP_RETURN_IF_ERROR(
      state.progress.Commit(&store, {}, Phase2Progress::Cut::kDone));
  state.progress.Fill(&result->phase2);
  result->final_workers = supervisor.fleet_size();
  result->phase2.seconds = watch.ElapsedSeconds();
  result->fleet_phase2_seconds = state.fleet_ready.ElapsedSeconds();
  return Status::OK();
}

Phase2Runner DistributedSolver::Phase2() {
  return [this](BlockFactorStore* factors, const TwoPhaseCpOptions& options,
                Phase2Result* result) {
    dist_ = DistributedRunResult();
    const Status status =
        RunDistributedPhase2(factors, options, fleet_, &dist_);
    *result = dist_.phase2;
    return status;
  };
}

}  // namespace tpcp
