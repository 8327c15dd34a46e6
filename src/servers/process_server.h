// The process server (§7.6): a *system* server — backed up and synchronized
// exactly like a user process (page-diff sync through the standard message
// system), in contrast to the peripheral servers' explicit-sync scheme.
//
// Responsibilities reproduced from the paper:
//   * time (§7.5.1): the `time` system call is "the responsibility of the
//     process server rather than the local kernel" — requests and answers
//     travel by message so a backup sees the same value;
//   * alarm (§7.5.2): schedules an alarm and later emits a SIGALRM message
//     on the target's signal channel;
//   * signal hub: other servers (tty ^C) route kill requests through it.
//
// Pending alarms are durable state (serialized, synced); the armed kernel
// timers behind them are cluster-local soft state, re-armed after takeover
// via WantsRunAfterRestore.

#ifndef AURAGEN_SRC_SERVERS_PROCESS_SERVER_H_
#define AURAGEN_SRC_SERVERS_PROCESS_SERVER_H_

#include <map>

#include "src/kernel/native_body.h"
#include "src/servers/protocol.h"

namespace auragen {

class ProcessServerProgram : public NativeProgram {
 public:
  ProcessServerProgram() = default;

  SyscallRequest Next(const SyscallResult& prev, bool first) override;
  void SerializeState(ByteWriter& w) const override;
  void RestoreState(ByteReader& r) override;
  bool WantsRunAfterRestore() const override { return true; }
  uint64_t StepWork() const override { return 25; }

  size_t pending_alarms() const { return alarms_.size(); }

  // The serialized state. Timer progress (rearm_iter_, now_cache_) is
  // cluster-local and rebuilt after a restore.
  template <class F>
  void Fields(F& f) {
    f(mode_, alarms_, next_cookie_, cur_channel_, cur_src_, sig_target_, sig_num_,
      pending_alarm_delay_, times_served_, alarms_fired_);
  }

 private:
  enum class Mode : uint8_t {
    kStart,
    kAwaitMessage,
    kTimeQuery,      // kSimTime pending for a kTime reply
    kReplying,       // kWriteChan pending
    kAlarmNow,       // kSimTime pending to stamp a new alarm's deadline
    kArming,         // kSetTimer pending
    kSignalLookup,   // kFindChan pending for a signal target
    kSignalSend,     // kWriteChan (signal) pending
    kRearmQuery,     // post-restore: about to ask for the current time
    kRearmTime,      // post-restore: kSimTime pending
    kRearmNext,      // post-restore: kSetTimer chain
  };

  struct Alarm {
    Gpid target;
    SimTime deadline = 0;
    uint32_t signum = kSigAlrm;

    template <class F>
    void Fields(F& f) {
      f(target, deadline, signum);
    }
  };

  SyscallRequest ReadAny();
  SyscallRequest StartSignal(Gpid target, uint32_t signum);

  Mode mode_ = Mode::kStart;
  std::map<uint64_t, Alarm> alarms_;  // cookie -> alarm
  uint64_t next_cookie_ = 1;

  // In-flight context.
  uint64_t cur_channel_ = 0;
  Gpid cur_src_;
  Gpid sig_target_;
  uint32_t sig_num_ = 0;
  uint64_t pending_alarm_delay_ = 0;
  uint64_t rearm_iter_ = 0;   // cookie progress for the re-arm chain
  SimTime now_cache_ = 0;

  uint64_t times_served_ = 0;
  uint64_t alarms_fired_ = 0;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_SERVERS_PROCESS_SERVER_H_
