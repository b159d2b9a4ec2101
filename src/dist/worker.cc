#include "dist/worker.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/phase2_engine.h"
#include "dist/exchange.h"
#include "server/net.h"
#include "storage/overlay_env.h"
#include "storage/retry_env.h"
#include "util/logging.h"
#include "util/retry.h"

namespace tpcp {
namespace {

/// Sends {"t":"hb"} every `interval_ms` until stopped (or until a send
/// fails — a vanished coordinator is the protocol thread's error to
/// surface). Shares the channel with the protocol thread; FrameChannel
/// serializes frame writes internally.
class HeartbeatThread {
 public:
  HeartbeatThread(FrameChannel* channel, int interval_ms)
      : channel_(channel), interval_ms_(interval_ms) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~HeartbeatThread() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Loop() {
    JsonValue hb = JsonValue::Object();
    hb.Set("t", "hb");
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                       [this] { return stop_; })) {
        return;
      }
      lock.unlock();
      const Status s = channel_->Send(hb);
      lock.lock();
      if (!s.ok()) return;
    }
  }

  FrameChannel* channel_;
  int interval_ms_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Sends one owned step's metadata image as chunked "xchg" frames: the
/// Gram rides in the first chunk, slab-M entries fill chunks up to the
/// logical byte budget, and the final chunk carries "last":true.
Status SendExchange(FrameChannel* channel, int64_t pos,
                    const ModePartition& unit,
                    const RefinementState::ExchangeImage& image) {
  const uint64_t entry_bytes =
      static_cast<uint64_t>(image.gram.size()) * sizeof(double);
  const size_t entries_per_chunk = static_cast<size_t>(
      std::max<uint64_t>(1, kDistChunkBytes / std::max<uint64_t>(
                                                  1, entry_bytes)));
  size_t next = 0;
  bool first = true;
  do {
    JsonValue msg = JsonValue::Object();
    msg.Set("t", "xchg");
    msg.Set("pos", pos);
    msg.Set("mode", unit.mode);
    msg.Set("part", unit.part);
    if (first) msg.Set("g", EncodeMatrix(image.gram));
    JsonValue entries = JsonValue::Array();
    const size_t stop =
        std::min(image.slab_m.size(), next + entries_per_chunk);
    for (; next < stop; ++next) {
      JsonValue entry = JsonValue::Array();
      entry.Append(image.slab_m[next].first);
      entry.Append(EncodeMatrix(image.slab_m[next].second));
      entries.Append(std::move(entry));
    }
    msg.Set("m", std::move(entries));
    msg.Set("last", next == image.slab_m.size());
    TPCP_RETURN_IF_ERROR(channel->Send(msg));
    first = false;
  } while (next < image.slab_m.size());
  return Status::OK();
}

/// Accumulates chunked "absorb" frames until "last", then installs the
/// complete image.
class AbsorbBuffer {
 public:
  /// `completed` collects the plan positions whose images finished
  /// installing — the worker's absorb-completeness gate reads it at the
  /// wave commit barrier.
  Status Add(RefinementState* state, const JsonValue& msg,
             std::set<int64_t>* completed) {
    TPCP_ASSIGN_OR_RETURN(const int64_t mode, GetInt(msg, "mode"));
    TPCP_ASSIGN_OR_RETURN(const int64_t part, GetInt(msg, "part"));
    TPCP_ASSIGN_OR_RETURN(const int64_t pos, GetInt(msg, "pos"));
    TPCP_ASSIGN_OR_RETURN(const bool last, GetBoolOr(msg, "last", true));
    RefinementState::ExchangeImage& image = pending_[pos];
    if (const JsonValue* g = msg.Find("g")) {
      TPCP_ASSIGN_OR_RETURN(image.gram, DecodeMatrix(*g));
    }
    const JsonValue* entries = msg.Find("m");
    if (entries == nullptr || !entries->is_array()) {
      return Status::InvalidArgument("absorb: missing m");
    }
    for (const JsonValue& entry : entries->array_items()) {
      if (!entry.is_array() || entry.array_items().size() != 2) {
        return Status::InvalidArgument("absorb: bad m entry");
      }
      if (!entry.array_items()[0].is_int()) {
        return Status::InvalidArgument("absorb: bad m entry key");
      }
      TPCP_ASSIGN_OR_RETURN(Matrix m,
                            DecodeMatrix(entry.array_items()[1]));
      image.slab_m.emplace_back(entry.array_items()[0].int_value(),
                                std::move(m));
    }
    if (!last) return Status::OK();
    const ModePartition unit{static_cast<int>(mode), part};
    const Status s = state->AbsorbExchange(unit, image);
    pending_.erase(pos);
    if (s.ok()) completed->insert(pos);
    return s;
  }

 private:
  std::map<int64_t, RefinementState::ExchangeImage> pending_;
};

/// Sends one dirty sub-factor as row-sliced "subfactor" frames.
Status SendSubFactor(FrameChannel* channel, const ModePartition& unit,
                     const Matrix& a) {
  const int64_t rows_per_chunk = std::max<int64_t>(
      1, static_cast<int64_t>(kDistChunkBytes /
                              std::max<int64_t>(
                                  1, a.cols() *
                                         static_cast<int64_t>(
                                             sizeof(double)))));
  for (int64_t row0 = 0; row0 < a.rows(); row0 += rows_per_chunk) {
    const int64_t count = std::min(rows_per_chunk, a.rows() - row0);
    JsonValue msg = JsonValue::Object();
    msg.Set("t", "subfactor");
    msg.Set("mode", unit.mode);
    msg.Set("part", unit.part);
    msg.Set("a", EncodeMatrixRows(a, row0, count));
    TPCP_RETURN_IF_ERROR(channel->Send(msg));
  }
  return Status::OK();
}

}  // namespace

Status ServeDistWorker(Env* base_env, const std::string& factor_prefix,
                       int port, int worker_id,
                       const DistWorkerHooks& hooks) {
  TPCP_ASSIGN_OR_RETURN(std::unique_ptr<FrameChannel> channel,
                        Connect("127.0.0.1", port));
  if (!hooks.chaos.empty()) {
    // Chaos harness: replay the scripted fault schedule on this channel.
    channel = std::make_unique<FaultyChannel>(channel->ReleaseFd(),
                                              hooks.chaos);
  }
  JsonValue hello = JsonValue::Object();
  hello.Set("t", "hello");
  hello.Set("worker", worker_id);
  TPCP_RETURN_IF_ERROR(channel->Send(hello));

  JsonValue init;
  TPCP_RETURN_IF_ERROR(channel->Recv(&init));
  TPCP_ASSIGN_OR_RETURN(const std::string init_tag, GetString(init, "t"));
  if (init_tag != "init") {
    return Status::InvalidArgument("dist worker: expected init, got " +
                                   init_tag);
  }
  TPCP_ASSIGN_OR_RETURN(const int64_t num_workers,
                        GetInt(init, "workers"));
  if (worker_id < 0 || worker_id >= num_workers) {
    return Status::InvalidArgument("dist worker: id out of range");
  }
  const JsonValue* grid_json = init.Find("grid");
  const JsonValue* options_json = init.Find("options");
  if (grid_json == nullptr || options_json == nullptr ||
      !options_json->is_object()) {
    return Status::InvalidArgument("dist worker: init missing grid/options");
  }
  TPCP_ASSIGN_OR_RETURN(const GridPartition grid, DecodeGrid(*grid_json));
  std::map<std::string, std::string> options_map;
  for (const auto& [key, value] : options_json->object_items()) {
    if (!value.is_string()) {
      return Status::InvalidArgument("dist worker: option '" + key +
                                     "' is not a string");
    }
    options_map[key] = value.string_value();
  }
  TPCP_ASSIGN_OR_RETURN(const TwoPhaseCpOptions options,
                        OptionsFromMap(options_map));
  TPCP_ASSIGN_OR_RETURN(const int64_t hb_ms, GetIntOr(init, "hb_ms", 0));

  // From init on, heartbeat so the coordinator's quiet-period deadline
  // never fires while this worker computes; mirror a (generous) deadline
  // on our own channel so a vanished coordinator cannot wedge the worker.
  // The worker gets no heartbeats back, so its deadline must cover the
  // coordinator servicing every *other* worker's waves; 60 intervals is
  // deliberately much looser than the coordinator's 10.
  std::unique_ptr<HeartbeatThread> heartbeat;
  if (hb_ms > 0) {
    channel->set_io_timeout_ms(static_cast<int>(60 * hb_ms));
    heartbeat = std::make_unique<HeartbeatThread>(channel.get(),
                                                  static_cast<int>(hb_ms));
  }

  // All worker-side writes (pool evictions of dirty sub-factors) stay in
  // the overlay; the base store is the coordinator's to write. Reads of
  // the shared base store retry transient faults (storage/retry_env.h);
  // the in-memory overlay itself never faults.
  RetryEnv retry_base(base_env, RetryPolicy());
  std::unique_ptr<Env> overlay = NewOverlayEnv(&retry_base);
  BlockFactorStore store(overlay.get(), factor_prefix, grid, options.rank);

  const ExecutionPlan plan = BuildPhase2Plan(options, grid);
  const DistributedPlan dplan(&plan, options.rank,
                              static_cast<int>(num_workers));
  const auto owned = [&dplan, worker_id](int64_t pos) {
    return dplan.OwnerAt(pos) == worker_id;
  };
  // The engine's wiring, with the pipeline restricted to this worker's
  // owned positions (global plan positions, so the forward policy's
  // next-use oracle keeps the plan's clock). The pipeline loads
  // options.prefetch_depth owned steps ahead on options.io_threads.
  Phase2Runtime runtime(&store, options, &plan, owned);
  RefinementState& state = runtime.state;
  PrefetchPipeline& pipeline = runtime.pipeline;
  // Always "resume": fresh runs were seeded by the coordinator before
  // init, so the persisted sub-factors are the run's true current state.
  TPCP_RETURN_IF_ERROR(state.Initialize(/*resume=*/true));

  JsonValue ready = JsonValue::Object();
  ready.Set("t", "ready");
  ready.Set("plan_fp", static_cast<int64_t>(plan.fingerprint()));
  ready.Set("opts_fp", static_cast<int64_t>(options.ResumeFingerprint()));
  ready.Set("own_fp",
            static_cast<int64_t>(dplan.ownership_fingerprint()));
  ready.Set("fit", DoubleBits(state.SurrogateFit()));
  TPCP_RETURN_IF_ERROR(channel->Send(ready));

  AbsorbBuffer absorbs;
  std::set<ModePartition> pending_persist;
  std::set<int64_t> absorbed;
  int64_t wave_begin = 0;
  int64_t wave_end = 0;

  for (;;) {
    JsonValue msg;
    TPCP_RETURN_IF_ERROR(channel->Recv(&msg));
    TPCP_ASSIGN_OR_RETURN(const std::string tag, GetString(msg, "t"));

    if (tag == "wave") {
      TPCP_ASSIGN_OR_RETURN(wave_begin, GetInt(msg, "pos"));
      TPCP_ASSIGN_OR_RETURN(wave_end, GetInt(msg, "end"));
      absorbed.clear();
      // The owned steps, then wave_done. The coordinator relays this
      // wave's absorbs only after every owner's wave_done, so they all
      // install after the owned steps, against the pre-wave metadata.
      for (int64_t pos = wave_begin; pos < wave_end; ++pos) {
        if (!owned(pos)) continue;
        if (hooks.crash_at_step == pos) {
          channel->Close();
          return Status::Internal("dist worker crash hook at step " +
                                  std::to_string(pos));
        }
        const ModePartition unit = plan.UnitAt(pos);
        int64_t acquired = 0;
        TPCP_RETURN_IF_ERROR(pipeline.BeginBatch(pos, 1, &acquired));
        state.ApplyUpdate(plan.StepAt(pos));
        const RefinementState::ExchangeImage image =
            state.ExportExchange(unit);
        runtime.pool.MarkDirty(unit);
        TPCP_RETURN_IF_ERROR(pipeline.EndBatch(pos, 1));
        pending_persist.insert(unit);
        TPCP_RETURN_IF_ERROR(SendExchange(channel.get(), pos, unit, image));
      }
      JsonValue done = JsonValue::Object();
      done.Set("t", "wave_done");
      TPCP_RETURN_IF_ERROR(channel->Send(done));
    } else if (tag == "absorb") {
      TPCP_RETURN_IF_ERROR(absorbs.Add(&state, msg, &absorbed));
    } else if (tag == "wave_commit") {
      // Absorb-completeness gate: by the commit barrier this worker must
      // hold every live image of the wave it does not own
      // (DistributedPlan::ImageLiveFor — the same pruning rule the relay
      // applies). A gap means the channel dropped an absorb; dying here
      // turns silent data loss into a coordinator-visible worker fault the
      // supervisor can recover from.
      for (int64_t pos = wave_begin; pos < wave_end; ++pos) {
        if (owned(pos) || !dplan.ImageLiveFor(pos, worker_id)) continue;
        if (absorbed.count(pos) == 0) {
          channel->Close();
          return Status::IOError(
              "dist worker: absorb missing for plan position " +
              std::to_string(pos));
        }
      }
      JsonValue ack = JsonValue::Object();
      ack.Set("t", "wave_ack");
      TPCP_RETURN_IF_ERROR(channel->Send(ack));
    } else if (tag == "vi_end") {
      JsonValue fit = JsonValue::Object();
      fit.Set("t", "fit");
      fit.Set("fit", DoubleBits(state.SurrogateFit()));
      TPCP_RETURN_IF_ERROR(channel->Send(fit));
    } else if (tag == "persist") {
      // Deterministic (mode, part) order: pending_persist is an ordered
      // set, so the coordinator's byte accounting and write order never
      // depend on update timing.
      for (const ModePartition& unit : pending_persist) {
        TPCP_ASSIGN_OR_RETURN(const Matrix a, state.CurrentSubFactor(unit));
        TPCP_RETURN_IF_ERROR(SendSubFactor(channel.get(), unit, a));
      }
      pending_persist.clear();
      JsonValue done = JsonValue::Object();
      done.Set("t", "persist_done");
      TPCP_RETURN_IF_ERROR(channel->Send(done));
    } else if (tag == "finish") {
      TPCP_RETURN_IF_ERROR(pipeline.Drain());
      JsonValue bye = JsonValue::Object();
      bye.Set("t", "bye");
      TPCP_RETURN_IF_ERROR(channel->Send(bye));
      return Status::OK();
    } else {
      return Status::InvalidArgument("dist worker: unknown message '" +
                                     tag + "'");
    }
  }
}

}  // namespace tpcp
