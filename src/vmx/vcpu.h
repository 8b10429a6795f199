// Per-thread virtual CPU: protection-domain state and transition accounting.
//
// Every thread that enters the Aquila runtime (or the Linux-baseline
// simulator) owns a Vcpu. The Vcpu records which privilege transitions the
// thread performs and charges their modeled cost to the thread's simulated
// clock. The counters let tests assert structural properties ("a hit takes
// zero transitions", "an Aquila fault takes one ring-0 exception and no
// vmexit") independent of timing.
#ifndef AQUILA_SRC_VMX_VCPU_H_
#define AQUILA_SRC_VMX_VCPU_H_

#include <cstdint>

#include "src/telemetry/metrics.h"
#include "src/util/cpu.h"
#include "src/util/sim_clock.h"
#include "src/vmx/cost_model.h"

namespace aquila {

// Process-wide privilege-transition counters (vCPUs are per-thread and die
// with their threads, so the registry aggregates here instead of per-Vcpu
// callbacks). Defined in vcpu.cc.
struct VcpuGlobalMetrics {
  telemetry::Counter* ring3_traps;
  telemetry::Counter* ring0_exceptions;
  telemetry::Counter* syscalls;
  telemetry::Counter* vmexits;
  telemetry::Counter* vmcalls;
  telemetry::Counter* ept_faults;
};
const VcpuGlobalMetrics& VcpuMetrics();

enum class CpuMode {
  kHostUser,   // VMX root, ring 3 (normal Linux application)
  kHostKernel, // VMX root, ring 0 (host kernel / hypervisor)
  kGuestRing0, // VMX non-root, ring 0 (Aquila + application)
};

class Vcpu {
 public:
  struct Counters {
    uint64_t ring3_traps = 0;      // ring3 -> ring0 protection-domain switches
    uint64_t ring0_exceptions = 0; // exceptions taken within non-root ring 0
    uint64_t syscalls = 0;         // host syscalls (explicit I/O baseline)
    uint64_t vmexits = 0;          // vmexit/vmentry round trips
    uint64_t vmcalls = 0;          // explicit hypercalls (subset of vmexits)
    uint64_t ept_faults = 0;
  };

  explicit Vcpu(int core_id) : core_(core_id) {}

  int core() const { return core_; }
  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  const Counters& counters() const { return counters_; }
  CpuMode mode() const { return mode_; }
  void set_mode(CpuMode mode) { mode_ = mode; }

  // Linux baseline: page fault or syscall trap from ring 3 into the host
  // kernel and back (1287 cycles, excluding the handler body).
  void ChargeRing3Trap() {
    counters_.ring3_traps++;
    VcpuMetrics().ring3_traps->Add();
    clock_.Charge(CostCategory::kTrap, GlobalCostModel().ring3_trap);
  }

  // Aquila: exception taken and returned within non-root ring 0 (552 cycles).
  void ChargeRing0Exception() {
    counters_.ring0_exceptions++;
    VcpuMetrics().ring0_exceptions->Add();
    clock_.Charge(CostCategory::kTrap, GlobalCostModel().ring0_exception);
  }

  // Host syscall entry/exit pair (explicit read/write I/O path).
  void ChargeSyscall() {
    counters_.syscalls++;
    VcpuMetrics().syscalls->Add();
    clock_.Charge(CostCategory::kSyscall, GlobalCostModel().syscall_entry_exit);
  }

  // vmexit + vmentry round trip.
  void ChargeVmexit() {
    counters_.vmexits++;
    VcpuMetrics().vmexits->Add();
    clock_.Charge(CostCategory::kVmExit, GlobalCostModel().vmexit_roundtrip);
  }

  // Explicit hypercall: vmexit round trip plus hypervisor dispatch.
  void ChargeVmcall() {
    counters_.vmcalls++;
    counters_.vmexits++;
    VcpuMetrics().vmcalls->Add();
    VcpuMetrics().vmexits->Add();
    const CostModel& costs = GlobalCostModel();
    clock_.Charge(CostCategory::kVmExit, costs.vmexit_roundtrip + costs.vmcall_dispatch);
  }

  // EPT violation: vmexit + hypervisor walk + translation install.
  void ChargeEptFault() {
    counters_.ept_faults++;
    counters_.vmexits++;
    VcpuMetrics().ept_faults->Add();
    VcpuMetrics().vmexits->Add();
    clock_.Charge(CostCategory::kVmExit, GlobalCostModel().ept_fault);
  }

  void ResetCounters() { counters_ = Counters{}; }

 private:
  int core_;
  CpuMode mode_ = CpuMode::kHostUser;
  SimClock clock_;
  Counters counters_;
};

// The calling thread's Vcpu, created on first use with the thread's logical
// core id. One per OS thread for the process lifetime.
Vcpu& ThisVcpu();

}  // namespace aquila

#endif  // AQUILA_SRC_VMX_VCPU_H_
