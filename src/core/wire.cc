#include "src/core/wire.h"

namespace auragen {

const char* MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kUser: return "user";
    case MsgKind::kOpenReply: return "open-reply";
    case MsgKind::kSignal: return "signal";
    case MsgKind::kClose: return "close";
    case MsgKind::kSync: return "sync";
    case MsgKind::kBirthNotice: return "birth-notice";
    case MsgKind::kExitNotice: return "exit-notice";
    case MsgKind::kCrashNotice: return "crash-notice";
    case MsgKind::kHeartbeat: return "heartbeat";
    case MsgKind::kBackupCreate: return "backup-create";
    case MsgKind::kBackupReady: return "backup-ready";
    case MsgKind::kChanCreate: return "chan-create";
    case MsgKind::kPageWrite: return "page-write";
    case MsgKind::kPageRequest: return "page-request";
    case MsgKind::kPageReply: return "page-reply";
    case MsgKind::kServerSync: return "server-sync";
    case MsgKind::kCheckpoint: return "checkpoint";
    case MsgKind::kProcCrash: return "proc-crash";
  }
  return "?";
}

Msg MsgView::ToOwned() const {
  Msg m;
  m.header = header;
  m.body = body().ToBytes();
  return m;
}

MsgView MsgView::FromOwned(Msg&& m) {
  MsgView v;
  v.header = m.header;
  v.body_len = static_cast<uint32_t>(m.body.size());
  v.payload = MakePayload(std::move(m.body));
  v.body_off = 0;
  return v;
}

MsgView MsgView::Parse(const PayloadPtr& frame_payload) {
  ByteReader r(*frame_payload);
  MsgView v;
  DecodeInto(r, v.header);
  ByteView body = r.BlobView();
  v.payload = frame_payload;
  v.body_off = static_cast<uint32_t>(body.data() - frame_payload->data());
  v.body_len = static_cast<uint32_t>(body.size());
  return v;
}

}  // namespace auragen
