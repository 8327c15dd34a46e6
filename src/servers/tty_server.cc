#include "src/servers/tty_server.h"

#include <utility>

#include "src/core/wire.h"

namespace auragen {

SyscallRequest TtyServerProgram::ReadAny() {
  mode_ = Mode::kAwaitMessage;
  SyscallRequest req;
  req.num = Sys::kRead;
  req.a = kAnyChannel;
  return req;
}

SyscallRequest TtyServerProgram::AfterService() {
  if (ops_since_sync_ >= options_.sync_every_ops) {
    // The snapshot is small: line bindings and output sequence numbers —
    // "only that information which is actually needed to update the
    // internal tables of the backup" (§7.9).
    ops_since_sync_ = 0;
    mode_ = Mode::kSendingSync;
    SyscallRequest req = NativeRequest(NativeSys::kServerSyncSend);
    req.data = Encode(ServerSyncPrefix{std::exchange(serviced_since_sync_, {})}, AsBlob{lines_});
    return req;
  }
  return ReadAny();
}

SyscallRequest TtyServerProgram::Next(const SyscallResult& prev, bool first) {
  if (first) {
    mode_ = Mode::kStart;
  }
  switch (mode_) {
    case Mode::kStart:
      return ReadAny();

    case Mode::kAwaitMessage: {
      auto [channel, src, tag, kind, body] = Decode<ReadAnyResult>(prev.data);
      if (body.empty()) {
        return ReadAny();
      }
      ByteReader b(body);
      const ReqTag req_tag = Decode<ReqTag>(b);

      if (tag == kBindSelfChannel && req_tag == ReqTag::kDevInput) {
        DevInput input = Decode<DevInput>(b);
        auto it = lines_.find(input.line);
        if (it == lines_.end()) {
          return ReadAny();  // no session bound; input discarded
        }
        if (!input.text.empty() && input.text[0] == 0x03) {
          // ^C: route a SIGINT through the process server (§7.5.2).
          sig_target_ = it->second.owner;
          mode_ = Mode::kSignalLookup;
          SyscallRequest req = NativeRequest(NativeSys::kFindChan);
          req.a = kBindProcChannel;
          return req;
        }
        pending_channel_ = it->second.channel;
        pending_input_ = std::move(input.text);
        mode_ = Mode::kForwarding;
        SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
        req.b = pending_channel_;
        req.c = 1;  // device-driven: uncounted (rollforward cannot replay it)
        req.data = Encode(ReqTag::kTtyInput, pending_input_);
        return req;
      }

      if (req_tag == ReqTag::kTtyBind && tag >= kBindTtyLineBase &&
          tag < kBindTtyLineBase + 0x1000) {
        uint32_t line = tag - kBindTtyLineBase;
        Session& session = lines_[line];
        session.channel = channel;
        session.owner = src;
        serviced_since_sync_[channel]++;
        ops_since_sync_++;
        return AfterService();
      }

      if (req_tag == ReqTag::kTtyWrite && tag >= kBindTtyLineBase &&
          tag < kBindTtyLineBase + 0x1000) {
        uint32_t line = tag - kBindTtyLineBase;
        Session& session = lines_[line];
        session.channel = channel;
        session.owner = src;
        cur_line_ = line;
        serviced_since_sync_[channel]++;
        ops_since_sync_++;
        mode_ = Mode::kEmitting;
        SyscallRequest req = NativeRequest(NativeSys::kTtyEmit);
        req.data = Encode(TtyEmitRecord{line, ++session.out_seq, Decode<Bytes>(b)});
        return req;
      }

      // Close notifications and unknown traffic.
      serviced_since_sync_[channel]++;
      ops_since_sync_++;
      return AfterService();
    }

    case Mode::kEmitting:
      return AfterService();

    case Mode::kForwarding:
      return ReadAny();

    case Mode::kSignalLookup: {
      uint64_t chan = static_cast<uint64_t>(prev.rv);
      if (chan == 0) {
        return ReadAny();
      }
      mode_ = Mode::kSignaling;
      SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
      req.b = chan;
      req.c = 1;  // device-driven: uncounted
      req.data = Encode(ReqTag::kSignalReq, sig_target_, kSigInt);
      return req;
    }

    case Mode::kSignaling:
    case Mode::kSendingSync:
      return ReadAny();
  }
  return ReadAny();
}

void TtyServerProgram::ApplyServerSync(ByteReader& r) { DecodeInto(r, AsBlob{lines_}); }

void TtyServerProgram::SerializeState(ByteWriter& w) const { EncodeTo(w, *this); }

void TtyServerProgram::RestoreState(ByteReader& r) { DecodeInto(r, *this); }

}  // namespace auragen
