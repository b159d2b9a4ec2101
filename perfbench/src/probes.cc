#include "probes.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

#include "harness.h"
#include "storage/env_uri.h"

namespace perfbench {
namespace {

uint64_t ToNanos(double seconds) {
  return static_cast<uint64_t>(seconds * 1e9);
}

class TimedEnv : public tpcp::Env {
 public:
  TimedEnv(tpcp::Env* delegate, StorageCounters* counters)
      : delegate_(delegate), counters_(counters) {}

  tpcp::Status WriteFile(const std::string& name,
                         const std::string& data) override {
    const Clock::time_point start = Clock::now();
    tpcp::Status status = delegate_->WriteFile(name, data);
    counters_->RecordWrite(data.size(), SecondsBetween(start, Clock::now()));
    return status;
  }
  tpcp::Status ReadFile(const std::string& name, std::string* out) override {
    const Clock::time_point start = Clock::now();
    tpcp::Status status = delegate_->ReadFile(name, out);
    counters_->RecordRead(status.ok() ? out->size() : 0,
                          SecondsBetween(start, Clock::now()));
    return status;
  }
  bool FileExists(const std::string& name) override {
    return delegate_->FileExists(name);
  }
  tpcp::Status DeleteFile(const std::string& name) override {
    return delegate_->DeleteFile(name);
  }
  tpcp::Result<uint64_t> FileSize(const std::string& name) override {
    return delegate_->FileSize(name);
  }
  std::vector<std::string> ListFiles(const std::string& prefix) override {
    return delegate_->ListFiles(prefix);
  }

 private:
  tpcp::Env* delegate_;
  StorageCounters* counters_;
};

class FreshWriteEnv : public tpcp::Env {
 public:
  explicit FreshWriteEnv(tpcp::Env* delegate) : delegate_(delegate) {}

  tpcp::Status WriteFile(const std::string& name,
                         const std::string& data) override {
    if (delegate_->FileExists(name)) {
      const tpcp::Status removed = delegate_->DeleteFile(name);
      if (!removed.ok() && !removed.IsNotFound()) return removed;
    }
    return delegate_->WriteFile(name, data);
  }
  tpcp::Status ReadFile(const std::string& name, std::string* out) override {
    return delegate_->ReadFile(name, out);
  }
  bool FileExists(const std::string& name) override {
    return delegate_->FileExists(name);
  }
  tpcp::Status DeleteFile(const std::string& name) override {
    return delegate_->DeleteFile(name);
  }
  tpcp::Result<uint64_t> FileSize(const std::string& name) override {
    return delegate_->FileSize(name);
  }
  std::vector<std::string> ListFiles(const std::string& prefix) override {
    return delegate_->ListFiles(prefix);
  }

 private:
  tpcp::Env* delegate_;
};

std::string FsTypeName(int64_t magic) {
  switch (static_cast<uint64_t>(magic)) {
    case 0x01021994: return "tmpfs";
    case 0x858458f6: return "ramfs";
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%" PRIx64,
                static_cast<uint64_t>(magic));
  return buffer;
}

}  // namespace

StorageSnapshot StorageSnapshot::operator-(const StorageSnapshot& base) const {
  StorageSnapshot d;
  d.read_ops = read_ops - base.read_ops;
  d.read_bytes = read_bytes - base.read_bytes;
  d.read_seconds = read_seconds - base.read_seconds;
  d.write_ops = write_ops - base.write_ops;
  d.write_bytes = write_bytes - base.write_bytes;
  d.write_seconds = write_seconds - base.write_seconds;
  return d;
}

StorageSnapshot StorageSnapshot::operator+(const StorageSnapshot& other) const {
  StorageSnapshot s;
  s.read_ops = read_ops + other.read_ops;
  s.read_bytes = read_bytes + other.read_bytes;
  s.read_seconds = read_seconds + other.read_seconds;
  s.write_ops = write_ops + other.write_ops;
  s.write_bytes = write_bytes + other.write_bytes;
  s.write_seconds = write_seconds + other.write_seconds;
  return s;
}

std::string StorageSnapshot::Encode() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "r=%" PRIu64 " rb=%" PRIu64 " rs=%.9f w=%" PRIu64
                " wb=%" PRIu64 " ws=%.9f",
                read_ops, read_bytes, read_seconds, write_ops, write_bytes,
                write_seconds);
  return buffer;
}

StorageSnapshot StorageSnapshot::Decode(const std::string& line) {
  StorageSnapshot s;
  std::sscanf(line.c_str(),
              "r=%" SCNu64 " rb=%" SCNu64 " rs=%lf w=%" SCNu64 " wb=%" SCNu64
              " ws=%lf",
              &s.read_ops, &s.read_bytes, &s.read_seconds, &s.write_ops,
              &s.write_bytes, &s.write_seconds);
  return s;
}

void StorageCounters::RecordRead(uint64_t bytes, double seconds) {
  read_ops_.fetch_add(1, std::memory_order_relaxed);
  read_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  read_ns_.fetch_add(ToNanos(seconds), std::memory_order_relaxed);
}

void StorageCounters::RecordWrite(uint64_t bytes, double seconds) {
  write_ops_.fetch_add(1, std::memory_order_relaxed);
  write_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  write_ns_.fetch_add(ToNanos(seconds), std::memory_order_relaxed);
}

StorageSnapshot StorageCounters::Snapshot() const {
  StorageSnapshot s;
  s.read_ops = read_ops_.load(std::memory_order_relaxed);
  s.read_bytes = read_bytes_.load(std::memory_order_relaxed);
  s.read_seconds = read_ns_.load(std::memory_order_relaxed) * 1e-9;
  s.write_ops = write_ops_.load(std::memory_order_relaxed);
  s.write_bytes = write_bytes_.load(std::memory_order_relaxed);
  s.write_seconds = write_ns_.load(std::memory_order_relaxed) * 1e-9;
  return s;
}

StorageCounters& DataCounters() {
  static StorageCounters counters;
  return counters;
}

StorageCounters& StateCounters() {
  static StorageCounters counters;
  return counters;
}

std::unique_ptr<tpcp::Env> NewTimedEnv(tpcp::Env* delegate,
                                       StorageCounters* counters) {
  return std::make_unique<TimedEnv>(delegate, counters);
}

void RegisterBenchEnvWrappers() {
  static std::once_flag once;
  std::call_once(once, [] {
    tpcp::EnvFactoryRegistry& registry = tpcp::EnvFactoryRegistry::Global();
    registry.RegisterWrapper(
        "timed", [](tpcp::Env* delegate, tpcp::UriParams* params)
                     -> tpcp::Result<std::unique_ptr<tpcp::Env>> {
          const std::string tag = params->Get("tag").value_or("data");
          if (tag != "data" && tag != "state") {
            return tpcp::Status::InvalidArgument(
                "timed tag must be data or state, got '" + tag + "'");
          }
          return NewTimedEnv(delegate, tag == "state" ? &StateCounters()
                                                      : &DataCounters());
        });
    registry.RegisterWrapper(
        "fresh", [](tpcp::Env* delegate, tpcp::UriParams*)
                     -> tpcp::Result<std::unique_ptr<tpcp::Env>> {
          return std::unique_ptr<tpcp::Env>(
              std::make_unique<FreshWriteEnv>(delegate));
        });
  });
}

tpcp::Result<StoreRoot> CheckStoreRoot(const std::string& dir) {
  RegisterBenchEnvWrappers();
  // Opening a posix root creates the directory.
  TPCP_ASSIGN_OR_RETURN(tpcp::OpenedEnv plain,
                        tpcp::OpenEnv("posix://" + dir));
  struct statfs info;
  if (::statfs(dir.c_str(), &info) != 0) {
    return tpcp::Status::IOError("statfs failed on store root " + dir);
  }
  StoreRoot root;
  root.fs_type = FsTypeName(static_cast<int64_t>(info.f_type));
  root.ram_backed = root.fs_type == "tmpfs" || root.fs_type == "ramfs";
  root.base_uri = (root.ram_backed ? "posix://" : "fresh+posix://") + dir;

  TPCP_ASSIGN_OR_RETURN(tpcp::OpenedEnv env, tpcp::OpenEnv(root.base_uri));
  const std::string probe = "rewrite-probe";
  const std::string payload(3000, 'x');
  TPCP_RETURN_IF_ERROR(env->WriteFile(probe, payload));
  std::vector<double> samples;
  for (int i = 0; i < 9; ++i) {
    const Clock::time_point start = Clock::now();
    TPCP_RETURN_IF_ERROR(env->WriteFile(probe, payload));
    samples.push_back(SecondsBetween(start, Clock::now()));
  }
  TPCP_RETURN_IF_ERROR(env->DeleteFile(probe));
  root.rewrite_seconds = Median(samples);
  if (root.rewrite_seconds > 1e-3) {
    return tpcp::Status::FailedPrecondition(
        "store root " + dir + " (" + root.fs_type +
        ") rewrites a 3 KB file in " +
        std::to_string(root.rewrite_seconds * 1e3) +
        " ms; a RAM-backed root takes ~0.01 ms (truncating rewrites on ext4 "
        "take ~33 ms and made Phase 2 of one 96^3 run swing 0.59-1.54 s)");
  }
  return root;
}

void PhaseClock::Start() {
  start_ = Clock::now();
  phase1_done_ = phase2_done_ = stop_ = start_;
  phase1_seconds_ = 0.0;
  vi_marks_.clear();
}

void PhaseClock::Stop() { stop_ = Clock::now(); }

void PhaseClock::OnPhase1Done(double seconds, double) {
  phase1_done_ = Clock::now();
  phase1_seconds_ = seconds;
}

void PhaseClock::OnVirtualIteration(int, double, uint64_t) {
  vi_marks_.push_back(Clock::now());
}

void PhaseClock::OnPhase2Done(int, bool, double, const tpcp::BufferStats&) {
  phase2_done_ = Clock::now();
}

double PhaseClock::phase2_seconds() const {
  return SecondsBetween(phase1_done_, phase2_done_);
}

double PhaseClock::first_vi_seconds() const {
  if (vi_marks_.empty()) return 0.0;
  return SecondsBetween(phase1_done_, vi_marks_.front());
}

double PhaseClock::later_vi_seconds() const {
  if (vi_marks_.size() < 2) return 0.0;
  std::vector<double> gaps;
  for (size_t i = 1; i < vi_marks_.size(); ++i) {
    gaps.push_back(SecondsBetween(vi_marks_[i - 1], vi_marks_[i]));
  }
  return Median(gaps);
}

double PhaseClock::finish_seconds() const {
  return SecondsBetween(phase2_done_, stop_);
}

double CpuSeconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage usage;
    if (::getrusage(who, &usage) != 0) continue;
    total += usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
             usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
  }
  return total;
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

uint64_t LoopbackBytes() {
  std::ifstream in("/proc/net/dev");
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const size_t name = line.find_first_not_of(' ');
    if (line.compare(name, colon - name, "lo") != 0) continue;
    return std::strtoull(line.c_str() + colon + 1, nullptr, 10);
  }
  return 0;
}

int OnlineCpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

void PinToCpuSlot(int slot) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  cpu_set_t target = allowed;
  const int count = CPU_COUNT(&allowed);
  if (slot >= 0 && count > 2) {
    // CPUs slot and slot + 1 (mod count), counted among the allowed ones.
    CPU_ZERO(&target);
    int index = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      if (index == slot % count || index == (slot + 1) % count) {
        CPU_SET(cpu, &target);
      }
      ++index;
    }
  }
  ::sched_setaffinity(0, sizeof(target), &target);
}

}  // namespace perfbench
