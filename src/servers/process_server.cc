#include "src/servers/process_server.h"

#include "src/core/wire.h"

namespace auragen {

SyscallRequest ProcessServerProgram::ReadAny() {
  mode_ = Mode::kAwaitMessage;
  SyscallRequest req;
  req.num = Sys::kRead;
  req.a = kAnyChannel;
  return req;
}

SyscallRequest ProcessServerProgram::StartSignal(Gpid target, uint32_t signum) {
  sig_target_ = target;
  sig_num_ = signum;
  mode_ = Mode::kSignalLookup;
  SyscallRequest req = NativeRequest(NativeSys::kFindChan);
  req.a = kBindSignalChannel;
  req.b = target.value;
  return req;
}

SyscallRequest ProcessServerProgram::Next(const SyscallResult& prev, bool first) {
  if (first) {
    mode_ = Mode::kStart;
  }
  switch (mode_) {
    case Mode::kStart:
      return ReadAny();

    case Mode::kRearmQuery:
      mode_ = Mode::kRearmTime;
      return NativeRequest(NativeSys::kSimTime);

    case Mode::kRearmTime: {
      // Post-takeover: stamp "now", then re-arm every pending alarm.
      now_cache_ = static_cast<SimTime>(prev.rv);
      rearm_iter_ = 0;
      [[fallthrough]];
    }
    case Mode::kRearmNext: {
      auto it = alarms_.upper_bound(rearm_iter_);
      if (it == alarms_.end()) {
        return ReadAny();
      }
      rearm_iter_ = it->first;
      mode_ = Mode::kRearmNext;
      SyscallRequest req = NativeRequest(NativeSys::kSetTimer);
      req.a = it->second.deadline > now_cache_ ? it->second.deadline - now_cache_ : 1;
      req.b = it->first;
      return req;
    }

    case Mode::kAwaitMessage: {
      auto [channel, src, tag, kind, body] = Decode<ReadAnyResult>(prev.data);
      cur_channel_ = channel;
      cur_src_ = src;
      if (body.empty()) {
        return ReadAny();
      }
      ByteReader b(body);
      const ReqTag req_tag = Decode<ReqTag>(b);

      if (tag == kBindSelfChannel && req_tag == ReqTag::kTimerFire) {
        const uint64_t cookie = Decode<uint64_t>(b);
        auto it = alarms_.find(cookie);
        if (it == alarms_.end()) {
          return ReadAny();  // cancelled or already fired pre-takeover
        }
        Alarm alarm = it->second;
        alarms_.erase(it);
        alarms_fired_++;
        return StartSignal(alarm.target, alarm.signum);
      }

      switch (req_tag) {
        case ReqTag::kTime: {
          mode_ = Mode::kTimeQuery;
          return NativeRequest(NativeSys::kSimTime);
        }
        case ReqTag::kAlarm: {
          DecodeInto(b, pending_alarm_delay_);
          mode_ = Mode::kAlarmNow;
          return NativeRequest(NativeSys::kSimTime);
        }
        case ReqTag::kSignalReq: {
          Gpid target;
          uint32_t signum = 0;
          DecodeInto(b, target, signum);
          return StartSignal(target, signum);
        }
        case ReqTag::kPsQuery: {
          mode_ = Mode::kReplying;
          SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
          req.b = cur_channel_;
          req.data = Encode(ReqTag::kData,
                            Encode(times_served_, alarms_fired_, uint64_t{alarms_.size()}));
          return req;
        }
        default:
          return ReadAny();
      }
    }

    case Mode::kTimeQuery: {
      times_served_++;
      mode_ = Mode::kReplying;
      SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
      req.b = cur_channel_;
      req.data = Encode(ReqTag::kTime64, static_cast<uint64_t>(prev.rv));
      return req;
    }

    case Mode::kAlarmNow: {
      SimTime now = static_cast<SimTime>(prev.rv);
      uint64_t cookie = next_cookie_++;
      Alarm alarm;
      alarm.target = cur_src_;
      alarm.deadline = now + pending_alarm_delay_;
      alarms_[cookie] = alarm;
      mode_ = Mode::kArming;
      SyscallRequest req = NativeRequest(NativeSys::kSetTimer);
      req.a = pending_alarm_delay_;
      req.b = cookie;
      return req;
    }

    case Mode::kArming:
    case Mode::kReplying:
      return ReadAny();

    case Mode::kSignalLookup: {
      uint64_t chan = static_cast<uint64_t>(prev.rv);
      if (chan == 0) {
        return ReadAny();  // target gone; drop the signal
      }
      mode_ = Mode::kSignalSend;
      SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
      req.a = 2;  // MsgKind::kSignal
      req.b = chan;
      req.data = Encode(ReqTag::kSignalReq, sig_target_, sig_num_);
      return req;
    }

    case Mode::kSignalSend:
      return ReadAny();
  }
  return ReadAny();
}

void ProcessServerProgram::SerializeState(ByteWriter& w) const { EncodeTo(w, *this); }

void ProcessServerProgram::RestoreState(ByteReader& r) {
  DecodeInto(r, *this);
  // Takeover entry point: re-arm timers before re-entering the read loop.
  mode_ = Mode::kRearmQuery;
}

}  // namespace auragen
