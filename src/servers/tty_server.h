// The tty server (§7.6: "There is a tty server in each cluster having
// terminals"). A peripheral server with an active backup (§7.9): it must be
// core-resident — "the tty server cannot wait for a page before reading
// incoming characters".
//
// Output path: users write kTtyWrite on their fd 2 channel; the server
// stamps a per-line sequence number and emits via the kTtyEmit device
// syscall. The sequence number makes recovery-time re-emissions (requests
// serviced after the last server sync, §7.9) detectable: the machine-level
// transcript dedupes on (line, seq), and the raw transcript bounds the
// duplication window for the tests.
//
// Input path: terminal hardware input arrives on the self channel as
// kDevInput; the server forwards it as a kTtyInput message on the session
// channel bound to that line — from that point it is inside the fault-
// tolerance envelope. A ^C line instead becomes a kSignalReq to the process
// server (§7.5.2's "control C at a terminal").

#ifndef AURAGEN_SRC_SERVERS_TTY_SERVER_H_
#define AURAGEN_SRC_SERVERS_TTY_SERVER_H_

#include <map>

#include "src/kernel/native_body.h"
#include "src/servers/protocol.h"

namespace auragen {

struct TtyServerOptions {
  // ServerSync after this many serviced requests. 1 minimizes duplicate
  // output on recovery at the cost of one sync message per output (the
  // tradeoff bench_fileserver_sync sweeps).
  uint32_t sync_every_ops = 8;
};

class TtyServerProgram : public NativeProgram {
 public:
  explicit TtyServerProgram(TtyServerOptions options) : options_(options) {}

  SyscallRequest Next(const SyscallResult& prev, bool first) override;
  void SerializeState(ByteWriter& w) const override;
  void RestoreState(ByteReader& r) override;
  void ApplyServerSync(ByteReader& r) override;
  uint64_t StepWork() const override { return 20; }

  // The serialized state: the line table (also what a server sync ships)
  // and the op count towards the next sync.
  template <class F>
  void Fields(F& f) {
    f(AsBlob{lines_}, ops_since_sync_);
  }

 private:
  enum class Mode : uint8_t {
    kStart,
    kAwaitMessage,
    kEmitting,       // kTtyEmit pending
    kForwarding,     // kWriteChan of a kTtyInput pending
    kSignalLookup,   // kFindChan for the proc-server channel pending
    kSignaling,      // kWriteChan of a kSignalReq pending
    kSendingSync,
  };

  struct Session {
    uint64_t channel = 0;   // session channel bound to this line
    Gpid owner;
    uint64_t out_seq = 0;   // per-line output sequence (dedupe key)

    template <class F>
    void Fields(F& f) {
      f(channel, owner, out_seq);
    }
  };

  SyscallRequest ReadAny();
  SyscallRequest AfterService();

  TtyServerOptions options_;
  Mode mode_ = Mode::kStart;
  std::map<uint32_t, Session> lines_;

  // In-flight context.
  uint32_t cur_line_ = 0;
  Gpid sig_target_;
  Bytes pending_input_;
  uint64_t pending_channel_ = 0;

  std::map<uint64_t, uint32_t> serviced_since_sync_;
  uint32_t ops_since_sync_ = 0;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_SERVERS_TTY_SERVER_H_
