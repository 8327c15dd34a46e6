// Test harness that drives a NativeProgram directly: it plays the kernel's
// role, answering device and channel syscalls from canned state, so server
// state machines (file/page/tty/process server) can be unit-tested without
// a machine — including their §7.9 serialize/apply/replay behaviour.

#ifndef AURAGEN_TESTS_PROGRAM_HARNESS_H_
#define AURAGEN_TESTS_PROGRAM_HARNESS_H_

#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/wire.h"
#include "src/disk/disk.h"
#include "src/kernel/native_body.h"
#include "src/servers/protocol.h"

namespace auragen {

class ProgramHarness {
 public:
  explicit ProgramHarness(NativeProgram& program) : program_(program) {}

  // Emulates NativeBody's post-restore entry: the restored program's first
  // Next() call arrives with first=false (it is not a fresh start).
  void MarkRestored() { first_ = false; }

  struct Sent {
    uint64_t channel = 0;
    uint64_t kind = 0;  // kWriteChan `a` argument
    Bytes payload;
  };

  // An incoming message for the read-any queue.
  void Push(uint64_t channel, Gpid src, uint32_t tag, MsgKind kind, Bytes body) {
    Incoming in;
    in.payload = Encode(ReadAnyResult{channel, src, tag, kind, std::move(body)});
    in.body_size = 0;
    incoming_.push_back(std::move(in));
  }

  // Advances the program until it blocks on an empty read-any queue (or a
  // step budget runs out — treated as a livelock failure).
  void Drain(int max_steps = 10000) {
    for (int i = 0; i < max_steps; ++i) {
      SyscallRequest req = program_.Next(last_, first_);
      first_ = false;
      last_ = SyscallResult{};
      if (req.num == Sys::kRead && req.a == kAnyChannel) {
        if (incoming_.empty()) {
          pending_read_ = true;
          return;
        }
        last_.data = std::move(incoming_.front().payload);
        last_.rv = static_cast<int64_t>(last_.data.size());
        incoming_.pop_front();
        continue;
      }
      ServiceNative(req);
    }
    AURAGEN_PANIC("program did not quiesce");
  }

  // Resumes a program parked in read-any with freshly Pushed messages.
  void Deliver() {
    AURAGEN_CHECK(pending_read_) << "program not blocked in read-any";
    AURAGEN_CHECK(!incoming_.empty());
    last_.data = std::move(incoming_.front().payload);
    last_.rv = static_cast<int64_t>(last_.data.size());
    incoming_.pop_front();
    pending_read_ = false;
    // Continue from the read completion.
    for (int i = 0; i < 10000; ++i) {
      SyscallRequest req = program_.Next(last_, false);
      last_ = SyscallResult{};
      if (req.num == Sys::kRead && req.a == kAnyChannel) {
        if (incoming_.empty()) {
          pending_read_ = true;
          return;
        }
        last_.data = std::move(incoming_.front().payload);
        last_.rv = static_cast<int64_t>(last_.data.size());
        incoming_.pop_front();
        continue;
      }
      ServiceNative(req);
    }
    AURAGEN_PANIC("program did not quiesce");
  }

  // --- observable effects ---
  std::vector<Sent> sent;                 // kWriteChan calls
  std::vector<Bytes> server_syncs;        // kServerSyncSend payloads
  std::vector<Bytes> tty_emits;           // kTtyEmit payloads
  std::vector<ChanCreate> accepts;        // kAcceptChan calls
  std::vector<std::pair<uint64_t, uint64_t>> timers;  // (delay, cookie)
  std::map<BlockNum, Bytes> disk;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  std::vector<Bytes> disk_write_vecs;  // kDiskWriteVec payloads, one per transaction

  // --- canned environment ---
  Gpid who_pid = Gpid::Make(31, 99);
  ClusterId who_cluster = 0;
  ClusterId who_backup = 1;
  SimTime now = 1000;
  std::map<uint64_t, uint64_t> find_chan;  // tag -> channel id

 private:
  struct Incoming {
    Bytes payload;
    size_t body_size;
  };

  void ServiceNative(const SyscallRequest& req) {
    switch (static_cast<NativeSys>(req.num)) {
      case NativeSys::kDiskRead: {
        ++disk_reads;
        auto it = disk.find(static_cast<BlockNum>(req.a));
        last_.rv = 0;
        last_.data = it != disk.end() ? it->second : Bytes{};
        break;
      }
      case NativeSys::kDiskWrite:
        ++disk_writes;
        disk[static_cast<BlockNum>(req.a)] = req.data;
        last_.rv = 0;
        break;
      case NativeSys::kDiskWriteVec:
        // One multi-block transaction; all blocks land atomically.
        disk_write_vecs.push_back(req.data);
        for (auto& [block, image] : Decode<DiskWriteBatch>(req.data)) {
          disk[block] = std::move(image);
          ++disk_writes;
        }
        last_.rv = 0;
        break;
      case NativeSys::kServerSyncSend:
        server_syncs.push_back(req.data);
        last_.rv = 0;
        break;
      case NativeSys::kTtyEmit:
        tty_emits.push_back(req.data);
        last_.rv = 0;
        break;
      case NativeSys::kSimTime:
        last_.rv = static_cast<int64_t>(now);
        break;
      case NativeSys::kWriteChan:
        sent.push_back(Sent{req.b, req.a, req.data});
        last_.rv = static_cast<int64_t>(req.data.size());
        break;
      case NativeSys::kAcceptChan:
        accepts.push_back(Decode<ChanCreate>(req.data));
        last_.rv = 0;
        break;
      case NativeSys::kSetTimer:
        timers.emplace_back(req.a, req.b);
        last_.rv = 0;
        break;
      case NativeSys::kFindChan: {
        auto it = find_chan.find(req.a);
        last_.rv = it != find_chan.end() ? static_cast<int64_t>(it->second) : 0;
        break;
      }
      case NativeSys::kWhoAmI:
        last_.data = Encode(WhoAmIReply{who_pid, who_cluster, who_backup});
        last_.rv = 0;
        break;
      default:
        AURAGEN_PANIC("harness: unsupported syscall");
    }
  }

  NativeProgram& program_;
  SyscallResult last_;
  bool first_ = true;
  bool pending_read_ = false;
  std::deque<Incoming> incoming_;
};

}  // namespace auragen

#endif  // AURAGEN_TESTS_PROGRAM_HARNESS_H_
