// Chaos harness for the dist wire: a FrameChannel that injects scripted
// faults (drop / delay / garbage / disconnect) at exact points in the
// protocol stream, so every recovery path in the coordinator's supervisor
// is deterministically reproducible.
//
// Determinism: the dist protocol's message sequence is a pure function of
// the plan, so "the worker's 7th outbound frame" names the same protocol
// moment in every run. Events are keyed by per-direction frame counters;
// heartbeat frames ("t":"hb") bypass chaos and the counters entirely,
// because their cadence is wall-clock-driven and would make the counters
// racy.

#ifndef TPCP_DIST_FAULTY_CHANNEL_H_
#define TPCP_DIST_FAULTY_CHANNEL_H_

#include <cstdint>
#include <vector>

#include "server/net.h"

namespace tpcp {

/// One scripted fault, armed at a 0-based frame index in one direction.
struct ChaosEvent {
  enum class Op {
    kDrop,        // send: swallow the frame; recv: discard it and read on
    kDelay,       // sleep delay_ms, then proceed normally
    kGarbage,     // send: emit an undecodable frame instead of the message
    kDisconnect,  // close the socket mid-protocol
  };
  enum class Dir { kSend, kRecv };

  Op op = Op::kDrop;
  Dir dir = Dir::kSend;
  /// Which protocol frame (0-based, per direction, heartbeats excluded)
  /// the fault fires on.
  int64_t at_frame = 0;
  /// Sleep for kDelay.
  int64_t delay_ms = 0;
};

/// The full script for one channel's lifetime.
struct ChaosSchedule {
  std::vector<ChaosEvent> events;
  bool empty() const { return events.empty(); }
};

/// FrameChannel with scripted fault injection on the protocol frames.
class FaultyChannel : public FrameChannel {
 public:
  FaultyChannel(int fd, ChaosSchedule schedule)
      : FrameChannel(fd), schedule_(std::move(schedule)) {}

  Status Send(const JsonValue& message) override;
  Status Recv(JsonValue* message) override;

 private:
  const ChaosEvent* EventFor(ChaosEvent::Dir dir, int64_t frame) const;

  ChaosSchedule schedule_;
  int64_t sent_frames_ = 0;
  int64_t recv_frames_ = 0;
};

}  // namespace tpcp

#endif  // TPCP_DIST_FAULTY_CHANNEL_H_
