// The file server (§7.6, §7.9): a peripheral server owning a mirrored,
// dual-ported disk that holds an Auros filesystem.
//
// Filesystems are "logically the same as UNIX file systems ... but
// internally structured differently to allow the file server to sync
// correctly" (§7.6). The internal structure here is a journaled,
// cache-backed pipeline (DESIGN.md §19, after xv6's logging layer):
//
//   * a fixed-capacity write-back buffer cache absorbs reads and writes —
//     channel writes land at the channel's offset (read-modify-write of
//     cached blocks) and are acknowledged immediately. An un-synced acked
//     write is re-executed at the backup from the saved message queue
//     (§7.9); positioned writes make that at-least-once re-execution
//     idempotent — identical bytes at identical offsets — even when the
//     disk committed ahead of the last shipped sync, exactly the argument
//     the paper makes for the raw disk server;
//   * at each server sync the dirty blocks, fresh metadata and new
//     superblock image are appended to a write-ahead log region as ONE
//     multi-block disk transaction, then a single commit-record write
//     (alternating slots, higher sequence wins) atomically commits the
//     whole batch — group commit: every write since the last sync rides
//     one mirrored-disk round trip;
//   * only after the commit record is durable do the blocks migrate to
//     their home locations (checkpoint), so "an old copy, i.e., in the
//     state as of last sync, cannot be destroyed until the sync is
//     complete" (§7.9) — the old copy lives at the home location until the
//     new state is recoverable from the log;
//   * boot scans the commit-record slots: a record newer than the
//     superblock means a committed-but-unchecked batch, which is replayed
//     home; a torn append (blocks in the log, no record) is ignored.
//
// Because a substantial part of the server's state thus lives on the
// dual-ported disk, its explicit ServerSync message is small: request trim
// counts plus the runtime channel table and log position — "we avoid
// sending a large amount of information to the backup via the message
// system" (§7.9).
//
// The server also pairs user-to-user channels: open("ch:NAME") from two
// processes yields one channel between them (§7.4.1).

#ifndef AURAGEN_SRC_SERVERS_FILE_SERVER_H_
#define AURAGEN_SRC_SERVERS_FILE_SERVER_H_

#include <array>
#include <map>
#include <string>
#include <vector>

#include "src/core/wire.h"
#include "src/kernel/native_body.h"
#include "src/servers/block_cache.h"
#include "src/servers/protocol.h"

namespace auragen {

class Tracer;

struct FileServerOptions {
  uint32_t sync_every_ops = 16;
  BlockNum num_blocks = 16384;
  // Buffer cache capacity in blocks. Dirty blocks are pinned; a commit is
  // forced when dirty pressure reaches half the log capacity.
  uint32_t cache_blocks = 128;
  // Blocks in the write-ahead log region; bounds the batch one commit can
  // carry (the commit record holds at most 122 home pointers).
  uint32_t log_blocks = 96;
  // Write-only flight recorder; null disables server-side trace events.
  Tracer* tracer = nullptr;
};

class FileServerProgram : public NativeProgram {
 public:
  explicit FileServerProgram(FileServerOptions options);

  SyscallRequest Next(const SyscallResult& prev, bool first) override;
  void SerializeState(ByteWriter& w) const override;
  void RestoreState(ByteReader& r) override;
  void ApplyServerSync(ByteReader& r) override;
  uint64_t StepWork() const override { return 40; }

  // Test access.
  bool HasFile(const std::string& name) const { return meta_.names.count(name) != 0; }
  uint64_t FileSize(const std::string& name) const;
  uint64_t commits() const { return commits_; }
  uint64_t log_seq() const { return rt_.log_seq; }
  const BlockCache& cache() const { return cache_; }

  // On-disk layout (all in blocks). 0/1: superblock slots; 2/3: commit
  // record slots; then the log data region; file/meta data after that.
  static constexpr BlockNum kCrSlot0 = 2;
  static constexpr BlockNum kCrSlot1 = 3;
  static constexpr BlockNum kLogDataStart = 4;

 private:
  enum class Mode : uint8_t {
    kStart,
    kWho,           // kWhoAmI pending
    kBootSlots,     // superblock / commit-record slot read pending
    kBootReplay,    // log data block read pending (recovery replay)
    kBootReplayWrite,  // replayed batch migrating home (kDiskWriteVec)
    kBootMeta,      // metadata block chain read pending
    kAwaitMessage,
    kAccepting,     // kAcceptChan pending, open reply next
    kOpenReply,     // kWriteChan of an open reply pending
    kPairReply2,    // second pairing reply pending
    kWriteLoad,     // reading an edge block before a positioned write
    kReading,       // data block read pending (cache miss)
    kReplying,      // kWriteChan of a data/status reply pending
    kLogAppend,     // commit step 1: batch streaming into the log region
    kLogCommit,     // commit step 2: commit record write pending
    kCheckpoint,    // commit step 3: batch migrating to home locations
    kSendingSync,   // commit step 4: ServerSync message
  };

  // --- the disk records (DESIGN.md §19.2) ---
  struct Inode {
    uint64_t size = 0;
    std::vector<BlockNum> blocks;

    template <class F>
    void Fields(F& f) {
      f(size, blocks);
    }
  };
  // The committed filesystem: the metadata image each commit writes to
  // fresh blocks, chunked, and the superblock points at.
  struct Meta {
    std::map<std::string, uint32_t> names;
    std::map<uint32_t, Inode> inodes;
    uint32_t next_inode = 1;
    BlockNum next_block = 0;  // first never-allocated block, past the log region
    std::vector<BlockNum> free_list;

    template <class F>
    void Fields(F& f) {
      f(names, inodes, next_inode, next_block, free_list);
    }
  };
  // Superblock slots 0 and 1 alternate by epoch; the newer valid one wins.
  struct Superblock {
    static constexpr uint32_t kMagic = 0x41555246;  // "AURF"
    uint32_t magic = kMagic;
    uint64_t epoch = 0;
    uint32_t meta_len = 0;  // bytes of the metadata image
    std::vector<BlockNum> meta_blocks;

    template <class F>
    void Fields(F& f) {
      f(magic, epoch, meta_len, meta_blocks);
    }
  };
  // Commit-record slots 2 and 3 alternate by sequence. Log block 4+i holds
  // the image whose home is homes[i]; the record must fit one block.
  struct CommitRecord {
    static constexpr uint32_t kMagic = 0x4155524C;  // "AURL"
    uint32_t magic = kMagic;
    uint64_t seq = 0;
    uint64_t epoch = 0;  // the epoch the batch commits
    std::vector<BlockNum> homes;

    template <class F>
    void Fields(F& f) {
      f(magic, seq, epoch, homes);
    }
  };

  struct Chan {
    uint32_t inode = 0;
    uint64_t offset = 0;

    template <class F>
    void Fields(F& f) {
      f(inode, offset);
    }
  };
  struct PendingOpen {
    uint64_t cookie = 0;
    uint64_t control_channel = 0;
    Gpid opener;
    ClusterId opener_cluster = kNoCluster;
    ClusterId opener_backup = kNoCluster;
    uint8_t opener_mode = 0;

    template <class F>
    void Fields(F& f) {
      f(cookie, control_channel, opener, opener_cluster, opener_backup, opener_mode);
    }
  };
  // Uncommitted runtime state: what a server sync ships (§7.9) and what a
  // halfback snapshot carries, with the log position it belongs to.
  struct Runtime {
    std::map<uint64_t, Chan> chans;
    std::map<std::string, PendingOpen> pending_opens;
    uint64_t next_chan_counter = 1;
    uint64_t log_seq = 0;  // sequence of the last durable commit record

    template <class F>
    void Fields(F& f) {
      f(chans, pending_opens, next_chan_counter, log_seq);
    }
  };

  // --- request handling helpers (each returns the next syscall) ---
  SyscallRequest ReadAny();
  SyscallRequest AfterService();
  SyscallRequest HandleOpen(uint64_t control_channel, const OpenRequest& open);
  SyscallRequest HandleFileRead(uint64_t channel, uint64_t max);
  SyscallRequest HandleFileWrite(uint64_t channel, Bytes data);
  SyscallRequest StartSync();
  SyscallRequest FinishCommit();
  SyscallRequest StepRead();
  SyscallRequest ReplyData(uint64_t channel, const Bytes& data);
  SyscallRequest ReplyStatus(uint64_t channel, int32_t status);
  SyscallRequest ReadSlots();
  SyscallRequest BootFromSlots();
  SyscallRequest SendOpenReply(uint64_t control_channel, const OpenReplyBody& reply,
                               Mode next_mode);

  BlockNum Alloc();
  uint64_t AllocChannelId() { return (0xffffull << 48) | rt_.next_chan_counter++; }

  FileServerOptions options_;
  Mode mode_ = Mode::kStart;

  // Identity (environmental; learned via kWhoAmI at every start, §7.5).
  WhoAmIReply self_;

  // Committed filesystem state (serialized to disk at each sync).
  Meta meta_;
  uint64_t epoch_ = 0;
  std::vector<BlockNum> meta_blocks_;  // current committed metadata location

  Runtime rt_;

  // Buffer cache over the home block space (never caches log/super blocks).
  BlockCache cache_;

  // In-flight op context.
  uint64_t cur_channel_ = 0;
  uint32_t cur_inode_ = 0;
  uint64_t cur_max_ = 0;
  Bytes cur_data_;
  BlockNum cur_read_block_ = 0;  // home block a kReading miss will fill
  std::vector<BlockNum> plan_blocks_;
  size_t plan_idx_ = 0;
  Bytes plan_buffer_;
  uint64_t plan_offset_ = 0;
  std::vector<BlockNum> new_meta_blocks_;
  // The in-flight commit batch: images (in log order) and home locations.
  DiskWriteBatch commit_batch_;
  // Boot: the raw slots, indexed by block (superblocks 0-1, commit records
  // 2-3), then the winning commit record.
  std::array<Bytes, 4> boot_slots_;
  CommitRecord boot_cr_;
  OpenReplyBody pair_reply2_;
  uint64_t pair_reply2_channel_ = 0;

  std::map<uint64_t, uint32_t> serviced_since_sync_;
  uint32_t ops_since_sync_ = 0;
  uint64_t commits_ = 0;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_SERVERS_FILE_SERVER_H_
