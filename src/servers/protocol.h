// Application-level protocol between user processes (or their kernels) and
// the operating-system server processes (§7.6).
//
// These bodies travel inside kUser messages on ordinary backed-up channels,
// so every request is automatically saved for the server's backup and every
// reply is automatically duplicate-suppressed on server rollforward — the
// §7.9 recovery story needs no special-casing per request type.
//
// Requests a kernel fabricates on a process's behalf (open, gettime, alarm)
// are encoded here too, since replay must regenerate them bit-identically.

#ifndef AURAGEN_SRC_SERVERS_PROTOCOL_H_
#define AURAGEN_SRC_SERVERS_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "src/base/codec.h"
#include "src/base/types.h"

namespace auragen {

// A request or reply body is its tag followed by the fields listed here,
// written as Encode(ReqTag::kX, v...) and read back with DecodeInto: each
// field takes its declared width (src/base/codec.h).
enum class ReqTag : uint8_t {
  // --- to the file server (fd 0 control channel / file channels) ---
  kOpen = 1,       // {OpenRequest}
  kFileRead = 2,   // on a file channel: {u64 max_bytes}; reply kData
  kFileWrite = 3,  // on a file channel: {Bytes payload}; reply kStatus

  // --- to the process server (fd 1 control channel) ---
  kTime = 16,      // reply kTime64
  kAlarm = 17,     // {u64 delay_us}; no reply; SIGALRM later (§7.5.2)
  kSignalReq = 18, // {Gpid target, u32 signum}: server->proc-server, and
                   // the kSignal body the proc server sends the target
  kPsQuery = 19,   // status query; reply kData (diagnostics)

  // --- to/from the tty server (fd 2 channel) ---
  kTtyWrite = 32,  // {Bytes payload}: emit to the terminal
  kTtyInput = 33,  // {Bytes line}: pushed by the server
  kTtyBind = 34,   // kernel-sent on channel creation: binds line to session

  // --- generic replies ---
  kData = 64,      // {Bytes payload}
  kStatus = 65,    // {i32}
  kTime64 = 66,    // {u64 microseconds}

  // --- local device/self traffic (never crosses the bus) ---
  kTimerFire = 80, // {u64 cookie} on the self channel (kSetTimer)
  kDevInput = 81,  // {DevInput}: terminal hardware input
};

// kOpen body, after the tag: Encode(ReqTag::kOpen, open).
struct OpenRequest {
  uint64_t cookie = 0;
  std::string name;
  Gpid opener;
  ClusterId opener_cluster = kNoCluster;
  ClusterId opener_backup = kNoCluster;
  uint8_t opener_mode = 0;

  template <class F>
  void Fields(F& f) {
    f(cookie, name, opener, opener_cluster, opener_backup, opener_mode);
  }
};

// kDevInput body, after the tag: one line of terminal hardware input.
struct DevInput {
  uint32_t line = 0;
  Bytes text;

  template <class F>
  void Fields(F& f) {
    f(line, text);
  }
};

// NativeSys::kTtyEmit payload: one output write, stamped with its line's
// sequence number so the machine can drop recovery re-emissions.
struct TtyEmitRecord {
  uint32_t line = 0;
  uint64_t seq = 0;
  Bytes text;

  template <class F>
  void Fields(F& f) {
    f(line, seq, text);
  }
};

// Well-known signal numbers (§7.5.2).
inline constexpr uint32_t kSigAlrm = 14;
inline constexpr uint32_t kSigInt = 2;

// binding_tag conventions for ChanCreate (see wire.h).
inline constexpr uint32_t kBindNone = 0;
inline constexpr uint32_t kBindSignalChannel = 0xF1F1;
inline constexpr uint32_t kBindPageChannel = 0xF2F2;   // kernel <-> page server
inline constexpr uint32_t kBindReportChannel = 0xF3F3; // kernel -> proc server
inline constexpr uint32_t kBindSelfChannel = 0xF5F5;   // timers, device input
inline constexpr uint32_t kBindProcChannel = 0xF4F4;   // fd1: to the process server
inline constexpr uint32_t kBindFsChannel = 0xF6F6;     // fd0: to the file server
inline constexpr uint32_t kBindTtyLineBase = 0x1000;   // tag = base + line

}  // namespace auragen

#endif  // AURAGEN_SRC_SERVERS_PROTOCOL_H_
