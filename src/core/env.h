// MachineEnv: what a cluster kernel needs from the machine around it.
//
// Kernels never reach into each other — everything inter-cluster goes over
// the bus — but they share the simulation engine, the cost model, metrics,
// and the simulated peripherals their local servers drive. The interface
// also carries the two pieces of global knowledge the paper assigns to the
// process server that we resolve machine-side (documented in DESIGN.md):
// fullback placement and device bindings.

#ifndef AURAGEN_SRC_CORE_ENV_H_
#define AURAGEN_SRC_CORE_ENV_H_

#include <functional>
#include <memory>

#include "src/base/codec.h"
#include "src/base/result.h"
#include "src/base/types.h"
#include "src/bus/fabric.h"
#include "src/core/config.h"
#include "src/core/metrics.h"
#include "src/disk/disk.h"
#include "src/sim/engine.h"

namespace auragen {

class NativeProgram;

class MachineEnv {
 public:
  virtual ~MachineEnv() = default;

  virtual Engine& engine() = 0;
  // The intercluster fabric, behind the historical bus surface (Transmit /
  // Attach / Detach). Kernels address clusters, not segments: routing across
  // segments is the fabric's business.
  virtual Fabric& bus() = 0;
  virtual const SystemConfig& config() const = 0;
  virtual Metrics& metrics() = 0;

  // Device access for peripheral servers (native syscalls kDiskRead/Write,
  // kTtyEmit). The machine resolves `server` to its bound device; the
  // callback fires after the simulated device latency.
  virtual void DiskRead(Gpid server, BlockNum block,
                        std::function<void(Result<Bytes>)> done) = 0;
  virtual void DiskWrite(Gpid server, BlockNum block, Bytes data,
                         std::function<void(Result<void>)> done) = 0;
  // Multi-block transaction (kDiskWriteVec): the whole batch is one device
  // request — one seek + streamed transfer per mirror — and lands
  // atomically. The file server's group commit is built on this.
  virtual void DiskWriteMulti(Gpid server, DiskWriteBatch batch,
                              std::function<void(Result<void>)> done) = 0;
  virtual void TtyEmit(Gpid server, const Bytes& data) = 0;

  // Fullback placement (§7.10.2: the process server decides; we use a
  // deterministic machine-level rule — the lowest-numbered cluster other
  // than `from` that `from`'s kernel believes alive).
  virtual ClusterId PlaceNewBackup(ClusterId from) = 0;

  // Re-instantiates the native program of a page-synced system server when
  // its passive backup takes over (its state is then restored from the page
  // account, like any user process).
  virtual std::unique_ptr<NativeProgram> MakeServerProgram(Gpid pid) = 0;

  // A server's primary moved (takeover). The machine updates its directory
  // so future spawns address the new location.
  virtual void OnServerTakeover(Gpid pid, ClusterId new_cluster) = 0;

  // Observation hooks (workloads, tests). Not part of the simulated system.
  virtual void OnProcessExit(Gpid pid, int32_t status) = 0;
  virtual void OnDebugPutc(Gpid pid, char c) = 0;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_CORE_ENV_H_
