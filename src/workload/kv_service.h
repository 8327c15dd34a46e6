// Partitioned, replicated key-value service as an AVM guest application,
// plus its closed-loop traffic generator (DESIGN.md §15).
//
// The service is the repo's first guest *application* layer: server and
// client programs are assembled from generated AVM source and speak a tiny
// request/reply protocol over paper-semantics channels ("ch:" names paired
// by the file server, §7.4.1). Sessions are striped over partitions
// (partition = session % partitions); each partition owns a contiguous key
// range served out of the server's address space.
//
// Fault tolerance comes in two flavors, selected by `replicas`:
//   1 — the paper's way: the message system backs up each server process
//       and failover is transparent to clients (takeover + rollforward).
//   2 — application-level primary/backup chaining (the CORBA bank-server
//       shape): the primary forwards writes to a live replica and clients
//       retry/switch to the replica's channel when the primary's channel
//       dies. Used to measure switchover cost when the machine offers no
//       process backups (FtStrategy::kNone).
//
// Every acknowledged write is sequenced per session; servers keep a
// per-session (last_seq, last_value) table so a retried request is answered
// from cache, never applied twice — the "no acked write lost, none applied
// twice" invariant the fault campaign checks end-to-end.
//
// Clients mark request issue/completion with `sys mark`; the SLO layer
// (slo.h) folds the resulting kRequestMark trace events into p50/p99/p999
// and goodput.

#ifndef AURAGEN_SRC_WORKLOAD_KV_SERVICE_H_
#define AURAGEN_SRC_WORKLOAD_KV_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

namespace auragen::workload {

struct KvOptions {
  // Shape of the deployment.
  uint32_t sessions = 1000;           // closed-loop client sessions
  uint32_t partitions = 8;            // KV partitions (server processes)
  uint32_t replicas = 1;              // 1: message-system FT; 2: app-level P/B

  // Per-session traffic plan (deterministic in `seed`).
  uint32_t requests_per_session = 16;
  double read_fraction = 0.70;        // read share of shared-key ops
  double private_fraction = 0.25;     // ops against the session's own key
  uint32_t keys_per_partition = 64;   // shared keys per partition
  double zipf_theta = 0.99;           // 0 = uniform shared-key distribution
  uint32_t think_spin = 64;           // spin iterations between requests
  uint64_t seed = 1;

  // Placement (deterministic). Partition p's primary runs on cluster
  // (primary_base + (spread_servers ? p : 0)) % C; with replicas == 2 its
  // application backup runs on (backup_base + (spread_servers ? p : 0)) % C.
  // Clients round-robin over `client_clusters` (empty: all clusters).
  uint32_t primary_base = 0;
  uint32_t backup_base = 1;
  bool spread_servers = true;
  std::vector<uint32_t> client_clusters;
};

// One planned client request.
struct KvRequest {
  uint32_t op = 1;        // 1 = read, 2 = write
  bool verify = false;    // reply value must equal `value` (private keys)
  uint32_t key = 0;       // global key id
  uint32_t value = 0;     // write payload, or expected value for a verify read
};

// The deterministic per-session plan (exposed for tests).
std::vector<KvRequest> PlanSession(uint32_t session, const KvOptions& options);

// Channel names (fixed width so server name tables have a fixed stride).
std::string KvPrimaryChannel(uint32_t partition, uint32_t session);  // ch:kv.PP.SSSS
std::string KvBackupChannel(uint32_t partition, uint32_t session);   // ch:kw.PP.SSSS
std::string KvReplicaChannel(uint32_t partition);                    // ch:kr.PP

// Program builders (exposed for tests; DeployKv drives them).
Executable KvServerProgram(uint32_t partition, bool backup_role,
                           const KvOptions& options);

// The client program's assembly source for one session. KvClientTemplate
// assembles session 0's; the others are the reference its copies must equal.
std::string KvClientSource(uint32_t session, const KvOptions& options);

// The client programs of every session of one KvOptions. The source is
// assembled once; Program(s) copies that image and writes session s's
// start stagger, session id, channel names and plan at the labelled sites.
// The result is byte-identical to MustAssemble(KvClientSource(s, options)).
class KvClientTemplate {
 public:
  explicit KvClientTemplate(const KvOptions& options);
  Executable Program(uint32_t session) const;

 private:
  KvOptions options_;
  Executable base_;  // session 0's program
  // Addresses in base_.image of the per-session fields.
  uint32_t stagger_at_ = 0;
  uint32_t session_at_ = 0;
  uint32_t fin_session_at_ = 0;
  uint32_t pname_at_ = 0;
  uint32_t bname_at_ = 0;  // replicas == 2 only
  uint32_t table_at_ = 0;
};

// A deployed service: pids and placement of everything spawned.
struct KvDeployment {
  KvOptions options;
  std::vector<Gpid> clients;              // by session
  std::vector<Gpid> primaries;            // by partition
  std::vector<Gpid> backups;              // by partition (replicas == 2)
  std::vector<ClusterId> primary_clusters;
  std::vector<ClusterId> backup_clusters;
  std::vector<ClusterId> client_clusters; // by session
  // KvClientsDone's cursor: clients[0, clients_exited) have all exited.
  // Exits are permanent, so the prefix only grows.
  size_t clients_exited = 0;
};

// Spawns servers (primaries, then app backups, then clients, all in
// deterministic order) onto a booted machine. Must be called exactly once
// per machine.
KvDeployment DeployKv(Machine& machine, const KvOptions& options);

// True once every client has exited. Servers, app-level backups included,
// are not waited for, so this is safe as a RunUntil predicate under crash
// scenarios where a dead primary never reports an exit. Amortized O(1): it
// advances `d.clients_exited` past the clients that have exited.
bool KvClientsDone(const Machine& machine, KvDeployment& d);

// Sum of client exit statuses (each client exits with its count of
// verification failures: lost acked writes, wrong read-your-own-writes
// values, or exhausted retries). 0 == all invariants held.
uint64_t KvMismatchTotal(const Machine& machine, const KvDeployment& d);

}  // namespace auragen::workload

#endif  // AURAGEN_SRC_WORKLOAD_KV_SERVICE_H_
