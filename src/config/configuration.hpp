#pragma once

#include <array>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/accept.hpp"
#include "flex/fault.hpp"
#include "flex/machine.hpp"
#include "mmos/loadfile.hpp"
#include "sim/backoff.hpp"
#include "sim/time.hpp"
#include "trace/event.hpp"

namespace pisces::config {

/// Where a cluster's user tasks are placed among its PEs. Fixed at run
/// configuration time (like the size of a force, Section 7): `primary`
/// reproduces the paper's description (all user tasks on the primary PE);
/// `least_loaded` and `round_robin` spread tasks across the primary AND the
/// secondary PEs, treating the cluster as the "group of processing
/// resources" of Sections 4-5.
enum class PlacePolicy {
  primary,       ///< every user task on the primary PE (paper behaviour)
  least_loaded,  ///< PE with the fewest unfinished processes at start time
  round_robin,   ///< cycle through primary then secondaries
};

[[nodiscard]] const char* place_policy_name(PlacePolicy p);
[[nodiscard]] std::optional<PlacePolicy> place_policy_from_name(
    const std::string& name);

/// The mapping of one virtual-machine cluster onto hardware (Section 9):
/// the primary PE (controllers always run there), the secondary PEs (run
/// force members after a FORCESPLIT and, under a non-default placement
/// policy, user tasks; may be shared with other clusters), the number of
/// user-task slots, and the task placement policy.
struct ClusterConfig {
  int number = 0;
  int primary_pe = 0;
  std::vector<int> secondary_pes;
  int slots = 4;
  bool has_terminal = false;  ///< cluster has a user controller
  PlacePolicy place = PlacePolicy::primary;
};

/// Trace settings stored with the configuration ("The configuration includes
/// an execution time limit, trace settings for execution monitoring, and
/// related information", Section 11).
struct TraceSettings {
  std::array<bool, trace::kEventKindCount> kind_on{};

  void set(trace::EventKind k, bool on) { kind_on[static_cast<std::size_t>(k)] = on; }
  [[nodiscard]] bool get(trace::EventKind k) const {
    return kind_on[static_cast<std::size_t>(k)];
  }
};

/// Session-layer supervision policy stored with the configuration. When
/// enabled, the session layer attaches a Supervisor to the runtime: user
/// tasks that terminate abnormally are re-initiated with exponential
/// backoff (delay = base · factor^attempt, capped) until the retry budget
/// is exhausted, at which point the failure escalates up the task tree as
/// a _SUPFAIL message; queued work migrates off clusters that lose their
/// primary PE.
struct SupervisionConfig {
  bool enabled = false;
  int max_restarts = 3;
  sim::Backoff backoff{250'000, 2.0, 16'000'000};
  bool migrate = true;  ///< re-route queued work off dead clusters
};

/// Reliable-transport policy stored with the configuration. When enabled,
/// every application message rides a per-(sender PE, receiver PE) channel:
/// copies carry channel sequence numbers, receivers suppress duplicates and
/// ack after a short flush window, and senders hold unacked messages in a
/// retransmit buffer with exponential backoff (delay = base · factor^attempt,
/// capped). When the retry budget is exhausted — or the optional absolute
/// send deadline passes — the sender receives a typed _SENDFAIL message
/// instead of the transfer silently becoming a dead letter.
struct ReliableConfig {
  bool enabled = false;
  int max_retries = 6;                  ///< retransmit attempts after the first copy
  /// First retransmit delay 150k ticks, doubling up to a 2M-tick ceiling.
  sim::Backoff backoff{150'000, 2.0, 2'000'000};
  sim::Tick ack_flush_ticks = 20'000;   ///< receiver ack latency (flush window)
  sim::Tick send_deadline = 0;          ///< 0 = none; else give up after this many ticks
};

/// A PISCES 2 run configuration: "A particular mapping is called a
/// configuration. ... Configurations may be saved on files and reused or
/// edited as desired for later runs."
struct Configuration {
  std::string name = "default";
  std::vector<ClusterConfig> clusters;
  sim::Tick time_limit = 100'000'000;
  /// System DELAY value (see rt::kDefaultAcceptDelayTicks).
  sim::Tick accept_default_timeout = rt::kDefaultAcceptDelayTicks;
  std::size_t message_heap_bytes = 512 * 1024;   ///< shared-memory message area
  mmos::Loadfile loadfile;
  TraceSettings trace;
  flex::FaultPlan faults;  ///< deterministic fault-injection plan (empty = none)
  SupervisionConfig supervision;  ///< session-layer restart/escalation policy
  ReliableConfig reliable;  ///< opt-in reliable message transport (acks + retransmit)
  /// Fan-out `k` of the collective trees (TO ALL distribution, force
  /// barrier/reduce). Each tree node forwards to at most `k` children, so a
  /// collective over n parties costs O(log_k n) charged hops.
  int collective_fanout = 4;
  /// Interconnect topology the run boots the machine with (`topology`
  /// config token). Default: the paper's single shared bus; `hier`/`numa`
  /// carve the PEs into hardware clusters with per-cluster buses bridged by
  /// a backbone, scaling the model to flex::kMaxPes PEs.
  flex::TopologySpec topology;

  [[nodiscard]] const ClusterConfig* find_cluster(int number) const;
  [[nodiscard]] int cluster_count() const { return static_cast<int>(clusters.size()); }

  /// Validate against a machine description. Returns human-readable
  /// problems; empty means the configuration is runnable.
  [[nodiscard]] std::vector<std::string> validate(const flex::MachineSpec& spec) const;
  /// The problems validate() finds in the knobs outside the cluster table:
  /// time limit, fan-out, heap, topology, fault plan, supervision, reliable.
  [[nodiscard]] std::vector<std::string> validate_knobs(
      const flex::MachineSpec& spec) const;

  /// Text round-trip ("Configurations may be saved on files"). load throws
  /// std::runtime_error naming the line for anything it cannot read in full,
  /// a file without its `end` line included.
  void save(std::ostream& os) const;
  static Configuration load(std::istream& is);

  /// A reasonable small default: `n` clusters on consecutive MMOS PEs,
  /// `slots` user slots each, terminal on the first cluster, no forces.
  static Configuration simple(int n_clusters, int slots = 4);

  /// The Section 9 worked example: clusters 1-4 on PEs 3-6, 4 slots each;
  /// PEs 7-15 run forces for clusters 3 and 4; PEs 16-20 run forces for
  /// cluster 2; cluster 1 gets no secondaries.
  static Configuration section9_example();
};

}  // namespace pisces::config
