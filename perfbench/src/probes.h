// Measurement probes the benchmark attaches from outside the library.
//
// Nothing here changes what the program computes. Every probe sits on a
// public hook:
//
//  - `timed+` (EnvFactoryRegistry::RegisterWrapper): an Env wrapper that
//    counts operations, bytes and busy seconds of every call. It is opened
//    through storage URIs, so Sessions, dist workers and tpcpd state and
//    tenant roots all report through it. A `tag=state` query parameter
//    books a root under the state counters instead of the data counters.
//  - `fresh+`: an Env wrapper that replaces a file by unlink + create
//    instead of truncate + rewrite. See CheckStoreRoot for why.
//  - PhaseClock (ProgressObserver): timestamps the engine's phase and
//    virtual-iteration boundaries.
//  - process probes: CPU seconds, peak RSS and loopback byte counts.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/progress_observer.h"
#include "storage/env.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- storage ---------------------------------------------------------------

/// A plain copy of one counter set.
struct StorageSnapshot {
  uint64_t read_ops = 0;
  uint64_t read_bytes = 0;
  double read_seconds = 0.0;
  uint64_t write_ops = 0;
  uint64_t write_bytes = 0;
  double write_seconds = 0.0;

  StorageSnapshot operator-(const StorageSnapshot& base) const;
  StorageSnapshot operator+(const StorageSnapshot& other) const;
  /// "r=… rb=… rs=… w=… wb=… ws=…" — the line a dist worker hands back.
  std::string Encode() const;
  static StorageSnapshot Decode(const std::string& line);
};

/// Process-wide atomic counters fed by every timed+ Env.
class StorageCounters {
 public:
  void RecordRead(uint64_t bytes, double seconds);
  void RecordWrite(uint64_t bytes, double seconds);
  StorageSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> read_ns_{0};
  std::atomic<uint64_t> write_ops_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> write_ns_{0};
};

/// Counters of data roots (tensor and factor stores, tenant roots).
StorageCounters& DataCounters();
/// Counters of roots opened with `tag=state` (the tpcpd job records).
StorageCounters& StateCounters();

/// Wraps `delegate` (non-owning) so every call lands in `counters`.
std::unique_ptr<tpcp::Env> NewTimedEnv(tpcp::Env* delegate,
                                       StorageCounters* counters);

/// Registers the timed+ and fresh+ wrappers. Idempotent.
void RegisterBenchEnvWrappers();

/// Result of the store-root guard.
struct StoreRoot {
  /// statfs type of the root: "tmpfs", "ramfs", "ext4", … or "0x<magic>".
  std::string fs_type;
  bool ram_backed = false;
  /// The base URI workloads open the root with: posix:// on a RAM-backed
  /// root, fresh+posix:// elsewhere.
  std::string base_uri;
  /// Median seconds of one 3 KB rewrite through base_uri.
  double rewrite_seconds = 0.0;
};

/// Guards a posix store root. Truncating rewrites of small files on ext4
/// flush the file on close (auto_da_alloc): on a 4-core VM's ext4 volume a
/// 3 KB rewrite took ~33 ms against ~10 us on tmpfs, which made Phase 2
/// swing between 0.59 s and 1.54 s on one 96^3 run. A RAM-backed root is used as is. Any other
/// root is opened through fresh+, whose unlink + create stays in the page
/// cache; the guard then times 3 KB rewrites through the chosen URI and
/// refuses the root (FailedPrecondition) when the median exceeds 1 ms.
tpcp::Result<StoreRoot> CheckStoreRoot(const std::string& dir);

// ---- engine clock ------------------------------------------------------------

/// Timestamps of one decomposition's phase boundaries.
class PhaseClock : public tpcp::ProgressObserver {
 public:
  /// Marks the decomposition call.
  void Start();
  /// Marks the return of the decomposition call.
  void Stop();

  void OnPhase1Done(double seconds, double mean_block_fit) override;
  void OnVirtualIteration(int iteration, double surrogate_fit,
                          uint64_t swap_ins) override;
  void OnPhase2Done(int virtual_iterations, bool converged,
                    double surrogate_fit,
                    const tpcp::BufferStats& stats) override;

  double total_seconds() const { return SecondsBetween(start_, stop_); }
  /// The engine's own Phase-1 seconds (OnPhase1Done's argument).
  double phase1_seconds() const { return phase1_seconds_; }
  /// OnPhase1Done → OnPhase2Done.
  double phase2_seconds() const;
  /// OnPhase1Done → first OnVirtualIteration.
  double first_vi_seconds() const;
  /// Median gap between later OnVirtualIteration calls.
  double later_vi_seconds() const;
  /// OnPhase2Done → return.
  double finish_seconds() const;
  int virtual_iterations() const {
    return static_cast<int>(vi_marks_.size());
  }

 private:
  Clock::time_point start_{};
  Clock::time_point phase1_done_{};
  Clock::time_point phase2_done_{};
  Clock::time_point stop_{};
  double phase1_seconds_ = 0.0;
  std::vector<Clock::time_point> vi_marks_;
};

// ---- process ---------------------------------------------------------------

/// User + system CPU seconds of this process plus its reaped children.
double CpuSeconds();

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so a
/// later PeakRssMib sees only what happened since. False when the kernel
/// refuses; PeakRssMib then reports the lifetime peak.
bool ResetPeakRss();
/// VmHWM of this process in MiB.
double PeakRssMib();

/// Bytes received on the loopback interface (/proc/net/dev "lo"), TCP/IP
/// headers included: what every localhost socket put on the wire. Socket
/// traffic is invisible to /proc/self/io — send(2)/recv(2) bypass its
/// rchar/wchar accounting (1 MiB through a socketpair moves rchar by ~100
/// bytes) — so the interface counter is the outside view of the wire.
uint64_t LoopbackBytes();

/// Online CPUs.
int OnlineCpus();

/// Pins the calling thread, and every thread it starts from then on, to
/// the `slot % n`-th and the next of the n CPUs the process may run on
/// (n > 2; otherwise to all n); a negative slot restores all n. The vCPUs
/// of a shared host do not run at one speed: a fixed loop pinned to each
/// of 4 vCPUs in turn took 0.36 s on one and 0.17-0.21 s on the others for
/// seconds at a time, and a thread the scheduler keeps on a slow vCPU can
/// make a whole 20 s run slow. A loop that moves its work across the CPUs
/// in turn gets fast samples from any CPU that is fast, which the
/// fast-decile statistic (kTimingQuantile) then reads. Two CPUs, not one:
/// pinned to one, the first job of a fresh tpcpd daemon took 41 ms instead
/// of 25 ms in 12 of 18 set-ups, against 0-5 of 11 on two.
void PinToCpuSlot(int slot);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
