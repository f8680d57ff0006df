#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "flex/cost_model.hpp"
#include "flex/disk.hpp"
#include "flex/interconnect.hpp"
#include "flex/memory.hpp"
#include "sim/engine.hpp"

namespace pisces::flex {

class FaultInjector;

/// Static description of a FLEX/32 installation. Defaults match the NASA
/// Langley machine described in Section 11 of the paper: 20 NS32032 PEs,
/// 1 MB local memory each, 2.25 MB shared memory, disks on PEs 1 and 2,
/// Unix on PEs 1-2 (not available for PISCES tasks), MMOS on PEs 3-20.
/// The topology spec scales the model past the paper's hardware: up to
/// kMaxPes PEs joined by a shared, hierarchical, or NUMA interconnect.
struct MachineSpec {
  int pe_count = 20;
  std::size_t local_memory_bytes = 1u << 20;        // 1 MB
  std::size_t shared_memory_bytes = 2359296;        // 2.25 MB
  int unix_pe_count = 2;                            // PEs 1..unix_pe_count
  std::vector<int> disk_pes = {1, 2};
  TopologySpec topology;                            // default: one shared bus

  [[nodiscard]] int first_mmos_pe() const { return unix_pe_count + 1; }
};

/// The simulated FLEX/32: PEs, memories, the shared bus, and disks, driven
/// by a discrete-event engine. PEs are numbered 1..pe_count as in the paper.
class Machine {
 public:
  Machine(sim::Engine& engine, MachineSpec spec = {}, CostModel costs = {});

  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] const MachineSpec& spec() const { return spec_; }
  [[nodiscard]] const CostModel& costs() const { return costs_; }

  [[nodiscard]] int pe_count() const { return spec_.pe_count; }
  /// PEs 1..unix_pe_count run Unix and are unavailable for PISCES tasks.
  [[nodiscard]] bool is_unix_pe(int pe) const {
    return pe >= 1 && pe <= spec_.unix_pe_count;
  }
  [[nodiscard]] bool is_mmos_pe(int pe) const {
    return pe > spec_.unix_pe_count && pe <= spec_.pe_count;
  }
  [[nodiscard]] bool has_disk(int pe) const;

  [[nodiscard]] MemoryArena& local_memory(int pe);
  [[nodiscard]] MemoryArena& shared_memory() { return shared_memory_; }
  /// The interconnect joining PEs to shared memory; every transfer-billing
  /// path (messages, windows, broadcast relays, collective signals) routes
  /// through it.
  [[nodiscard]] Interconnect& interconnect() { return *interconnect_; }
  [[nodiscard]] const Interconnect& interconnect() const { return *interconnect_; }
  [[nodiscard]] Disk& disk(int pe);

  /// Replace the interconnect (e.g. when a Configuration carries a
  /// non-default topology). Resets all bus statistics; call before boot.
  void configure_topology(const TopologySpec& topology);

  /// Attach (or detach, with nullptr) the fault injector interpreting the
  /// run's FaultPlan. The machine does not own it; the runtime that armed
  /// the plan does. Null on fault-free runs — callers must check.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const { return faults_; }

  /// Number of 32-bit words needed for `bytes`.
  static sim::Tick words_for(std::size_t bytes) {
    return static_cast<sim::Tick>((bytes + 3) / 4);
  }

  /// Move `bytes` through shared memory at or after `now` on behalf of
  /// `pe` (its cluster bus under hier/numa; the one bus under shared):
  /// charges the fixed shared-access latency plus bus occupancy,
  /// serializing behind in-flight transfers. Returns the completion tick.
  sim::Tick shared_transfer(sim::Tick now, std::size_t bytes, int pe = 0) {
    return interconnect_->access(now, pe, words_for(bytes));
  }

  /// Move `bytes` from `from_pe` to `to_pe`: one cluster-bus transfer when
  /// the PEs share a hardware cluster, a store-and-forward route across the
  /// backbone otherwise. Returns the completion tick of the last hop.
  sim::Tick message_transfer(sim::Tick now, std::size_t bytes, int from_pe,
                             int to_pe) {
    return interconnect_->transfer(now, from_pe, to_pe, words_for(bytes));
  }

  void check_pe(int pe) const {
    if (pe < 1 || pe > spec_.pe_count) {
      throw std::out_of_range("FLEX PE number out of range: " + std::to_string(pe));
    }
  }

 private:
  sim::Engine* engine_;
  MachineSpec spec_;
  CostModel costs_;
  std::vector<MemoryArena> locals_;  // index 0 => PE 1
  MemoryArena shared_memory_;
  std::unique_ptr<Interconnect> interconnect_;
  std::vector<std::unique_ptr<Disk>> disks_;  // index 0 => PE 1; null if none
  FaultInjector* faults_ = nullptr;
};

}  // namespace pisces::flex
