#include "src/workload/kv_service.h"

#include <algorithm>
#include <cstdio>

#include "src/base/check.h"
#include "src/base/rng.h"

namespace auragen::workload {
namespace {

// Key-space layout per partition: [base, base + max_local) are the
// sessions' private keys (local session index = session / partitions),
// [base + max_local, base + max_local + keys_per_partition) are shared.
constexpr uint32_t kPartitionKeyStride = 65536;

uint32_t MaxLocalSessions(const KvOptions& o) {
  return (o.sessions + o.partitions - 1) / o.partitions;
}

uint32_t PartitionSessions(uint32_t partition, const KvOptions& o) {
  if (partition >= o.sessions) return 0;
  return (o.sessions - partition - 1) / o.partitions + 1;
}

uint32_t KeyBase(uint32_t partition) { return partition * kPartitionKeyStride; }

std::string S(uint64_t v) { return std::to_string(v); }

// Zipf sampler over [0, n): weight(i) = 1/(i+1)^theta. theta == 0 is
// uniform. Deterministic given the rng stream.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double theta) {
    cumulative_.reserve(n);
    double total = 0.0;
    for (uint32_t i = 0; i < n; ++i) {
      double w = 1.0;
      for (double t = theta; t > 0.0; t -= 1.0) {
        w /= (t >= 1.0) ? static_cast<double>(i + 1) : Pow(i + 1, t);
      }
      total += w;
      cumulative_.push_back(total);
    }
  }

  uint32_t Sample(Rng& rng) const {
    const double u = rng.NextDouble() * cumulative_.back();
    uint32_t lo = 0, hi = static_cast<uint32_t>(cumulative_.size()) - 1;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (cumulative_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  // Deterministic x^t for t in (0,1) via exp/log is fine here: libm pow on
  // the same doubles is bit-stable within one build, and the plan is baked
  // into program text before the simulation starts, so cross-build drift
  // can never desynchronize a single run.
  static double Pow(uint32_t base, double t) {
    return __builtin_pow(static_cast<double>(base), t);
  }

  std::vector<double> cumulative_;
};

}  // namespace

std::string KvPrimaryChannel(uint32_t partition, uint32_t session) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ch:kv.%02u.%04u", partition, session);
  return buf;
}

std::string KvBackupChannel(uint32_t partition, uint32_t session) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ch:kw.%02u.%04u", partition, session);
  return buf;
}

std::string KvReplicaChannel(uint32_t partition) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ch:kr.%02u", partition);
  return buf;
}

std::vector<KvRequest> PlanSession(uint32_t session, const KvOptions& options) {
  AURAGEN_CHECK(options.partitions > 0 && options.sessions > 0);
  AURAGEN_CHECK(options.requests_per_session >= 2)
      << "need at least a private write and a closing private read";
  const uint32_t partition = session % options.partitions;
  const uint32_t base = KeyBase(partition);
  const uint32_t private_key = base + session / options.partitions;
  const uint32_t shared_base = base + MaxLocalSessions(options);

  Rng rng(options.seed ^ (0x517cc1b727220a95ull * (session + 1)));
  ZipfSampler zipf(options.keys_per_partition, options.zipf_theta);

  std::vector<KvRequest> plan;
  plan.reserve(options.requests_per_session);
  uint32_t expected = 0;  // last acked private-key write (store starts zeroed)
  for (uint32_t r = 0; r < options.requests_per_session; ++r) {
    KvRequest req;
    const bool first = r == 0;
    const bool last = r + 1 == options.requests_per_session;
    // First request always writes the private key and the last one always
    // reads it back, so every session exercises read-your-own-writes across
    // whatever faults the run injects in between.
    const bool private_op = first || last || rng.Chance(options.private_fraction);
    if (private_op) {
      req.key = private_key;
      req.verify = true;
      const bool write = first || (!last && rng.Chance(1.0 - options.read_fraction));
      if (write) {
        req.op = 2;
        req.value = session * 65536u + r + 1;  // unique, planner-known
        expected = req.value;
      } else {
        req.op = 1;
        req.value = expected;
      }
    } else {
      req.key = shared_base + zipf.Sample(rng);
      req.verify = false;
      if (rng.Chance(options.read_fraction)) {
        req.op = 1;
        req.value = 0;
      } else {
        req.op = 2;
        req.value = session * 65536u + r + 1;
      }
    }
    plan.push_back(req);
  }
  return plan;
}

// --- server program -------------------------------------------------------
//
// Register plan: r6 scratch base, r7 fd being served, r8 fin count,
// r9 bunch group, r10 replica fd, r11/r12 scratch, r13 "standalone" flag
// (1 = never forward writes to the replica).

Executable KvServerProgram(uint32_t partition, bool backup_role,
                           const KvOptions& options) {
  AURAGEN_CHECK(partition < options.partitions);
  const uint32_t nsess = PartitionSessions(partition, options);
  AURAGEN_CHECK(nsess > 0) << "partition " << partition << " has no sessions";
  const bool replicated = options.replicas == 2;
  const bool forwards = replicated && !backup_role;
  const uint32_t store_words = MaxLocalSessions(options) + options.keys_per_partition;
  // Backups bunch the replica channel alongside their client channels so
  // forwarded writes and direct (post-switchover) requests share one loop.
  const uint32_t bunch_count = backup_role ? nsess + 1 : nsess;

  std::string src = "start:\n    li r13, " + S(forwards ? 0 : 1) + "\n";
  if (replicated) {
    src += R"(
    li r1, rname
    li r2, 8
    sys open
    mov r10, r0
)";
  }
  src += R"(
    li r6, 0
open_loop:
    li r12, 16
    mul r1, r6, r12
    li r12, names
    add r1, r1, r12
    li r2, 13
    sys open
    li r12, 4
    mul r11, r6, r12
    li r12, fds
    add r11, r11, r12
    st r0, r11, 0
    addi r6, r6, 1
    li r12, )" + S(nsess) + R"(
    blt r6, r12, open_loop
)";
  if (backup_role) {
    src += "    li r11, fds\n    st r10, r11, " + S(nsess * 4) + "\n";
  }
  src += R"(
    li r1, fds
    li r2, )" + S(bunch_count) + R"(
    sys bunch
    mov r9, r0
    li r8, 0
serve:
    mov r1, r9
    sys which
    mov r7, r0
    mov r1, r7
    li r2, req
    li r3, 20
    sys read
    li r6, req
    ld r1, r6, 0
    ld r2, r6, 4
    ld r3, r6, 8
    ld r4, r6, 12
    ld r5, r6, 16
    ; per-session dedup entry: sess + ((session - P) / NPART) * 8
    li r11, )" + S(partition) + R"(
    sub r11, r2, r11
    li r12, )" + S(options.partitions) + R"(
    div r11, r11, r12
    li r12, 8
    mul r11, r11, r12
    li r12, sess
    add r11, r11, r12
    ld r12, r11, 0
    bge r12, r3, dup
    li r12, 1
    beq r1, r12, do_read
    li r12, 2
    beq r1, r12, do_write
    jmp do_fin
dup:
    ; retried request: answer from the (last_seq, last_value) cache so an
    ; acked write is never applied twice
    ld r12, r11, 4
    li r6, rep
    st r3, r6, 0
    st r12, r6, 4
    li r12, 0
    st r12, r6, 8
    jmp send_rep
do_read:
    li r12, )" + S(KeyBase(partition)) + R"(
    sub r12, r4, r12
    li r6, 4
    mul r12, r12, r6
    li r6, store
    add r12, r12, r6
    ld r4, r12, 0
    li r6, rep
    st r3, r6, 0
    st r4, r6, 4
    li r12, 0
    st r12, r6, 8
    jmp send_rep
do_write:
)";
  if (forwards) {
    src += R"(
    li r12, 1
    beq r13, r12, w_apply
    mov r1, r10
    li r2, req
    li r3, 20
    sys write
    li r12, 0
    bge r12, r0, w_peer_dead
    mov r1, r10
    li r2, ack
    li r3, 12
    sys read
    li r12, 0
    blt r12, r0, w_apply
w_peer_dead:
    li r13, 1
)";
  }
  src += R"(
w_apply:
    li r6, req
    ld r2, r6, 4
    ld r3, r6, 8
    ld r4, r6, 12
    ld r5, r6, 16
    li r11, )" + S(partition) + R"(
    sub r11, r2, r11
    li r12, )" + S(options.partitions) + R"(
    div r11, r11, r12
    li r12, 8
    mul r11, r11, r12
    li r12, sess
    add r11, r11, r12
    li r12, )" + S(KeyBase(partition)) + R"(
    sub r12, r4, r12
    li r6, 4
    mul r12, r12, r6
    li r6, store
    add r12, r12, r6
    st r5, r12, 0
    st r3, r11, 0
    st r5, r11, 4
    li r6, rep
    st r3, r6, 0
    st r5, r6, 4
    li r12, 0
    st r12, r6, 8
    jmp send_rep
do_fin:
)";
  if (forwards) {
    src += R"(
    li r12, 1
    beq r13, r12, f_apply
    mov r1, r10
    li r2, req
    li r3, 20
    sys write
    li r12, 0
    bge r12, r0, f_peer_dead
    mov r1, r10
    li r2, ack
    li r3, 12
    sys read
    li r12, 0
    blt r12, r0, f_apply
f_peer_dead:
    li r13, 1
)";
  }
  src += R"(
f_apply:
    li r6, req
    ld r2, r6, 4
    ld r3, r6, 8
    li r11, )" + S(partition) + R"(
    sub r11, r2, r11
    li r12, )" + S(options.partitions) + R"(
    div r11, r11, r12
    li r12, 8
    mul r11, r11, r12
    li r12, sess
    add r11, r11, r12
    st r3, r11, 0
    addi r8, r8, 1
    li r6, rep
    st r3, r6, 0
    li r12, 0
    st r12, r6, 4
    st r12, r6, 8
send_rep:
    mov r1, r7
    li r2, rep
    li r3, 12
    sys write
    li r12, )" + S(nsess) + R"(
    blt r8, r12, serve
    exit 0
.data
)";
  if (replicated) {
    src += "rname: .ascii \"" + KvReplicaChannel(partition) + "\"\n";
  }
  src += "names:\n";
  for (uint32_t s = partition; s < options.sessions; s += options.partitions) {
    const std::string name = backup_role ? KvBackupChannel(partition, s)
                                         : KvPrimaryChannel(partition, s);
    src += ".ascii \"" + name + "\"\n.space 3\n";
  }
  // Layout note: rname (8B) and the 16B-stride name table keep every later
  // label 4-aligned without an .align directive.
  src += R"(
fds: .space )" + S((nsess + 1) * 4) + R"(
sess: .space )" + S(nsess * 8) + R"(
req: .space 20
rep: .space 12
ack: .space 12
store: .space )" + S(store_words * 4) + R"(
)";
  return MustAssemble(src);
}

// --- client program -------------------------------------------------------
//
// Register plan: r6 table entry addr, r7 current fd, r8 request index,
// r9 backup fd, r10 primary fd, r11/r12 scratch, r13 verification-failure
// count (becomes the exit status).
//
// Every session of one KvOptions assembles to the same layout. Only the
// labelled sites differ: the `li`s at stagger_li, session_li and
// fin_session_li, and the data at pname, bname and table.

namespace {

// Stagger session start deterministically so thousands of clients don't
// issue their first request on the same work quantum.
uint32_t ClientStagger(uint32_t session, const KvOptions& options) {
  if (options.think_spin == 0) return 1;
  Rng rng(options.seed ^ (0xd6e8feb86659fd93ull * (session + 1)));
  return 1 + static_cast<uint32_t>(rng.Below(4 * options.think_spin));
}

// First word of a plan table entry: the op, plus 256 if the reply is verified.
uint32_t PlanOpWord(const KvRequest& r) { return r.op | (r.verify ? 256u : 0u); }

void PutWord(Bytes& image, uint32_t at, uint32_t v) {
  for (uint32_t i = 0; i < 4; ++i) {
    image[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

}  // namespace

std::string KvClientSource(uint32_t session, const KvOptions& options) {
  AURAGEN_CHECK(session < options.sessions);
  const uint32_t partition = session % options.partitions;
  const bool replicated = options.replicas == 2;
  const std::vector<KvRequest> plan = PlanSession(session, options);
  const uint32_t nreq = static_cast<uint32_t>(plan.size());

  std::string src = R"(
start:
    li r1, pname
    li r2, 13
    sys open
    mov r10, r0
)";
  if (replicated) {
    src += R"(
    li r1, bname
    li r2, 13
    sys open
    mov r9, r0
)";
  }
  src += R"(
    mov r7, r10
    li r13, 0
    ; deterministic per-session stagger
    li r11, 0
stagger:
    addi r11, r11, 1
stagger_li:
    li r12, )" + S(ClientStagger(session, options)) + R"(
    blt r11, r12, stagger
    li r8, 0
req_loop:
    ; think time
    li r11, 0
think:
    addi r11, r11, 1
    li r12, )" + S(options.think_spin == 0 ? 1 : options.think_spin) + R"(
    blt r11, r12, think
    ; build request from the baked plan entry
    li r11, 12
    mul r6, r8, r11
    li r11, table
    add r6, r6, r11
    ld r1, r6, 0
    ld r2, r6, 4
    ld r3, r6, 8
    li r11, req
    li r12, 255
    and r12, r1, r12
    st r12, r11, 0
session_li:
    li r12, )" + S(session) + R"(
    st r12, r11, 4
    addi r12, r8, 1
    st r12, r11, 8
    st r2, r11, 12
    st r3, r11, 16
    ; mark issue: phase 1, tag = op << 24 | index
    ld r12, r11, 0
    li r1, 24
    shl r12, r12, r1
    or r2, r12, r8
    li r1, 1
    sys mark
attempt:
    mov r1, r7
    li r2, req
    li r3, 20
    sys write
    li r12, 0
    bge r12, r0, fail
    mov r1, r7
    li r2, rep
    li r3, 12
    sys read
    li r12, 0
    bge r12, r0, fail
    ; mark completion: phase 2
    li r11, req
    ld r12, r11, 0
    li r1, 24
    shl r12, r12, r1
    or r2, r12, r8
    li r1, 2
    sys mark
    ; verify if the plan demands it
    li r11, 12
    mul r6, r8, r11
    li r11, table
    add r6, r6, r11
    ld r1, r6, 0
    li r11, 256
    and r11, r1, r11
    li r12, 0
    beq r11, r12, next
    ld r3, r6, 8
    li r11, rep
    ld r12, r11, 4
    beq r12, r3, next
    addi r13, r13, 1
next:
    addi r8, r8, 1
    li r12, )" + S(nreq) + R"(
    blt r8, r12, req_loop
    ; FIN: op 3, seq = nreq + 1, lets the server retire this session
    li r11, req
    li r12, 3
    st r12, r11, 0
fin_session_li:
    li r12, )" + S(session) + R"(
    st r12, r11, 4
    li r12, )" + S(nreq + 1) + R"(
    st r12, r11, 8
    li r12, 0
    st r12, r11, 12
    st r12, r11, 16
fin_attempt:
    mov r1, r7
    li r2, req
    li r3, 20
    sys write
    li r12, 0
    bge r12, r0, fin_fail
    mov r1, r7
    li r2, rep
    li r3, 12
    sys read
    li r12, 0
    bge r12, r0, fin_fail
    mov r1, r13
    sys exit
fail:
    ; channel failure: mark the retry, then switch to the replica once
    li r1, 3
    mov r2, r8
    sys mark
)";
  if (replicated) {
    src += R"(
    beq r7, r9, hard_fail
    mov r7, r9
    jmp attempt
)";
  }
  src += R"(
hard_fail:
    addi r13, r13, 1
    jmp next
fin_fail:
)";
  if (replicated) {
    src += R"(
    beq r7, r9, fin_hard_fail
    mov r7, r9
    jmp fin_attempt
)";
  }
  src += R"(
fin_hard_fail:
    addi r13, r13, 1
    mov r1, r13
    sys exit
.data
pname: .ascii ")" + KvPrimaryChannel(partition, session) + R"("
.space 3
)";
  if (replicated) {
    src += "bname: .ascii \"" + KvBackupChannel(partition, session) +
           "\"\n.space 3\n";
  }
  src += "table:\n";
  for (const KvRequest& r : plan) {
    src += ".word " + S(PlanOpWord(r)) + "\n.word " + S(r.key) + "\n.word " + S(r.value) + "\n";
  }
  src += R"(
req: .space 20
rep: .space 12
)";
  return src;
}

KvClientTemplate::KvClientTemplate(const KvOptions& options) : options_(options) {
  AURAGEN_CHECK(options.partitions <= 100 && options.sessions <= 10000)
      << "channel name encoding is %02u/%04u";
  AsmOutput out = Assemble(KvClientSource(0, options));
  AURAGEN_CHECK(out.ok) << "assembly failed:" << out.error;
  base_ = std::move(out.exe);
  auto at = [&](const char* label) {
    auto it = out.labels.find(label);
    AURAGEN_CHECK(it != out.labels.end()) << "no label " << label;
    return it->second;
  };
  auto li_imm_at = [&](const char* label) {
    const uint32_t pc = at(label);
    AURAGEN_CHECK(pc + kAvmInstrBytes <= base_.image.size() &&
                  DecodeInstr(base_.image.data() + pc).op == Op::kLi)
        << label << " does not label an li";
    return pc + 4;  // imm32 is bytes 4..7
  };
  stagger_at_ = li_imm_at("stagger_li");
  session_at_ = li_imm_at("session_li");
  fin_session_at_ = li_imm_at("fin_session_li");
  pname_at_ = at("pname");
  bname_at_ = options.replicas == 2 ? at("bname") : 0;
  table_at_ = at("table");
}

Executable KvClientTemplate::Program(uint32_t session) const {
  AURAGEN_CHECK(session < options_.sessions);
  const uint32_t partition = session % options_.partitions;
  Executable exe = base_;
  Bytes& image = exe.image;
  PutWord(image, stagger_at_, ClientStagger(session, options_));
  PutWord(image, session_at_, session);
  PutWord(image, fin_session_at_, session);
  const std::string pname = KvPrimaryChannel(partition, session);
  std::copy(pname.begin(), pname.end(), image.begin() + pname_at_);
  if (options_.replicas == 2) {
    const std::string bname = KvBackupChannel(partition, session);
    std::copy(bname.begin(), bname.end(), image.begin() + bname_at_);
  }
  uint32_t at = table_at_;
  for (const KvRequest& r : PlanSession(session, options_)) {
    PutWord(image, at, PlanOpWord(r));
    PutWord(image, at + 4, r.key);
    PutWord(image, at + 8, r.value);
    at += 12;
  }
  return exe;
}

// --- deployment -----------------------------------------------------------

KvDeployment DeployKv(Machine& machine, const KvOptions& options) {
  AURAGEN_CHECK(options.replicas == 1 || options.replicas == 2);
  AURAGEN_CHECK(options.partitions <= 100 && options.sessions <= 10000)
      << "channel name encoding is %02u/%04u";
  const uint32_t C = machine.config().topology.num_clusters();
  AURAGEN_CHECK(C >= 2);

  KvDeployment d;
  d.options = options;

  auto msgsys_backup = [&](ClusterId home) -> ClusterId {
    return (home + 1) % C;
  };

  for (uint32_t p = 0; p < options.partitions; ++p) {
    const ClusterId home =
        (options.primary_base + (options.spread_servers ? p : 0)) % C;
    Machine::UserSpawnOptions so;
    so.backup_cluster = msgsys_backup(home);
    d.primaries.push_back(
        machine.SpawnUserProgram(home, KvServerProgram(p, false, options), so));
    d.primary_clusters.push_back(home);
  }
  if (options.replicas == 2) {
    for (uint32_t p = 0; p < options.partitions; ++p) {
      const ClusterId home =
          (options.backup_base + (options.spread_servers ? p : 0)) % C;
      AURAGEN_CHECK(home != d.primary_clusters[p])
          << "app replica of partition " << p << " colocated with its primary";
      Machine::UserSpawnOptions so;
      so.backup_cluster = msgsys_backup(home);
      d.backups.push_back(
          machine.SpawnUserProgram(home, KvServerProgram(p, true, options), so));
      d.backup_clusters.push_back(home);
    }
  }
  std::vector<uint32_t> client_homes = options.client_clusters;
  if (client_homes.empty()) {
    for (uint32_t c = 0; c < C; ++c) client_homes.push_back(c);
  }
  const KvClientTemplate clients(options);
  for (uint32_t s = 0; s < options.sessions; ++s) {
    const ClusterId home = client_homes[s % client_homes.size()];
    Machine::UserSpawnOptions so;
    so.backup_cluster = msgsys_backup(home);
    d.clients.push_back(machine.SpawnUserProgram(home, clients.Program(s), so));
    d.client_clusters.push_back(home);
  }
  return d;
}

bool KvClientsDone(const Machine& machine, KvDeployment& d) {
  while (d.clients_exited < d.clients.size() &&
         machine.HasExited(d.clients[d.clients_exited])) {
    ++d.clients_exited;
  }
  return d.clients_exited == d.clients.size();
}

uint64_t KvMismatchTotal(const Machine& machine, const KvDeployment& d) {
  uint64_t total = 0;
  for (Gpid pid : d.clients) {
    if (!machine.HasExited(pid)) {
      ++total;  // a stuck client is a lost session
      continue;
    }
    const int32_t status = machine.ExitStatus(pid);
    total += status < 0 ? 1 : static_cast<uint64_t>(status);
  }
  return total;
}

}  // namespace auragen::workload
