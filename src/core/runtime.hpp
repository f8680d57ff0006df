#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "config/configuration.hpp"
#include "core/context.hpp"
#include "core/task.hpp"
#include "core/transport.hpp"
#include "core/windows.hpp"
#include "flex/fault.hpp"
#include "flex/shared_heap.hpp"
#include "mmos/system.hpp"
#include "trace/tracer.hpp"

namespace pisces::rt {

/// An initiate request held by a task controller until a slot frees
/// ("If no slots are available in the cluster, the task controller will
/// hold the initiate request until another task terminates", Section 6).
struct PendingInitiate {
  std::string tasktype;
  TaskId parent{};
  std::vector<Value> args;
  /// Supervision correlation tag: carried by supervised and migrated
  /// initiates, absent on user and task initiates. Handed back through the
  /// task-start hook (0 when absent) so the session layer can link a
  /// restarted incarnation to its lineage.
  std::optional<std::uint64_t> tag = std::nullopt;
};

/// One virtual-machine cluster at run time: its configuration, its slot
/// records (controllers in slots 0-2, user tasks from kFirstUserSlot), and
/// the queue of held initiate requests.
struct Cluster {
  config::ClusterConfig cfg;
  std::vector<std::unique_ptr<TaskRecord>> slots;
  std::deque<PendingInitiate> pending;
  /// Free user slots, kept in sync by start_task/finish_task so slot lookup
  /// and placement never rescan the slot table. Ordered so the lowest slot
  /// number is handed out first (deterministic, matches the old scan).
  std::set<int> free_slots;
  /// Round-robin placement cursor over {primary} ∪ secondary_pes.
  std::size_t rr_next = 0;

  [[nodiscard]] TaskRecord& slot(int n) { return *slots[static_cast<std::size_t>(n)]; }
  [[nodiscard]] const TaskRecord& slot(int n) const {
    return *slots[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] TaskId controller_id() const { return slot(kTaskControllerSlot).id; }
  [[nodiscard]] int free_user_slots() const {
    return static_cast<int>(free_slots.size());
  }
};

/// Run-wide statistics kept by the run-time library.
struct RuntimeStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_accepted = 0;
  std::uint64_t broadcast_copies = 0;
  std::uint64_t initiates_requested = 0;
  std::uint64_t initiates_held = 0;  ///< waited for a slot
  std::uint64_t tasks_started = 0;
  std::uint64_t tasks_finished = 0;
  std::uint64_t tasks_killed = 0;
  std::uint64_t accept_timeouts = 0;
  std::uint64_t dead_letters = 0;    ///< sends to stale/invalid taskids
  std::uint64_t heap_full_waits = 0;
  std::uint64_t window_reads = 0;
  std::uint64_t window_writes = 0;
  std::uint64_t forcesplits = 0;
  std::uint64_t controller_unknown_messages = 0;
  std::uint64_t messages_deleted = 0;
  std::uint64_t message_bytes_sent = 0;
  std::uint64_t childterms_posted = 0;  ///< _CHILDTERM notifications delivered
  std::uint64_t window_retries = 0;     ///< window requests re-sent under faults
  std::uint64_t initiates_migrated = 0; ///< held initiates re-routed off a dead cluster
  std::uint64_t messages_migrated = 0;  ///< queued _INITIATEs re-routed off a dead cluster

  // Reliable-transport counters (all zero when `reliable off`). The copy
  // counters obey two identities once the engine drains:
  //   reliable_copies_sent == reliable_copies_lost + reliable_copies_arrived
  //   reliable_copies_arrived == dup_drops + reliable_delivered
  //                              + reliable_dead_letters
  std::uint64_t reliable_sends = 0;          ///< messages sequenced on a channel
  std::uint64_t reliable_copies_sent = 0;    ///< physical copies dispatched (first sends, retransmits, bus ghosts)
  std::uint64_t reliable_copies_lost = 0;    ///< sequenced copies dropped (bus loss, partitions)
  std::uint64_t reliable_copies_arrived = 0; ///< sequenced copies reaching the receiver PE
  std::uint64_t reliable_delivered = 0;      ///< sequenced messages enqueued exactly once
  std::uint64_t reliable_dead_letters = 0;   ///< sequenced messages settled against a dead task
  std::uint64_t retransmits = 0;             ///< retransmit copies actually re-sent
  std::uint64_t dup_drops = 0;               ///< duplicate copies suppressed by sequence
  std::uint64_t acks_sent = 0;               ///< cumulative ack flushes sent
  std::uint64_t send_failures = 0;           ///< _SENDFAIL surfaced (budget/deadline)
};

/// Outcome of Runtime::try_kill_task, so callers can tell a stale taskid
/// from an attempt to kill a protected controller.
enum class KillResult {
  killed,                ///< the task's process was killed
  not_found,             ///< stale/invalid taskid (or task already dead)
  protected_controller,  ///< controllers (slots 0-2) cannot be killed
};

[[nodiscard]] const char* kill_result_name(KillResult r);

/// The PISCES 2 run-time system: boots the virtual machine described by a
/// Configuration onto the MMOS/FLEX substrate, runs the controller tasks,
/// and implements task initiation, the task lifecycle and fault recovery.
/// Message passing goes through its Transport, window access through its
/// Windows.
class Runtime {
 public:
  Runtime(mmos::System& sys, config::Configuration cfg);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Register a tasktype definition (must precede any INITIATE naming it).
  void register_tasktype(std::string name, TaskBody body);

  /// Declare a message type's argument count (the MESSAGE declaration of
  /// Pisces Fortran). Optional: undeclared types carry any argument list;
  /// a send of a declared type with the wrong arity throws std::logic_error.
  void declare_message(std::string type, int arity);

  /// Attach a simulated disk's file store to a cluster; the cluster gets a
  /// file controller at boot. `disk_pe` names the FLEX disk used (1 or 2).
  void attach_file_store(int cluster, fsim::FileStore store, int disk_pe = 1);

  /// Validate the configuration, download the loadfile, allocate the shared
  /// system tables, and start the controller tasks. Throws
  /// std::invalid_argument listing problems if the configuration is bad.
  void boot();

  // ---- the execution environment's operations ----
  /// Menu 1, INITIATE A TASK: top-level initiate from the user terminal
  /// (the new task's parent is the user controller).
  void user_initiate(int cluster, std::string tasktype, std::vector<Value> args = {});
  /// Menu 3, SEND A MESSAGE (from the user).
  bool user_send(TaskId to, std::string type, std::vector<Value> args = {});
  /// Menu 2, KILL A TASK. False if the taskid is stale or not a user task.
  bool kill_task(TaskId id) { return try_kill_task(id) == KillResult::killed; }
  /// As kill_task, but reports *why* nothing was killed.
  KillResult try_kill_task(TaskId id);
  /// Menu 4, DELETE MESSAGES: drop queued messages of `type` ("" = all)
  /// from a task's in-queue. Returns how many were deleted.
  int delete_messages(TaskId id, const std::string& type = "");

  /// Taskid of the user controller serving the terminal (destination USER).
  [[nodiscard]] TaskId user_controller_id() const;

  /// Run the simulation to completion or to the configured time limit.
  /// Returns the final tick. Sets timed_out() if the limit was hit.
  sim::Tick run();
  /// Fire every event due by `now + dt` (or by the time limit, if sooner)
  /// and return the clock, which stays at the last event fired: a gap
  /// between events longer than `dt` is never crossed. The execution
  /// menu steps with it, so its actions land at event ticks.
  sim::Tick run_for(sim::Tick dt);
  [[nodiscard]] bool timed_out() const { return timed_out_; }

  // ---- introspection (execution environment displays, tests, benches) ----
  struct TaskInfo {
    TaskId id{};
    std::string tasktype;
    TaskState state = TaskState::free_slot;
    int pe = 0;
    std::size_t queue_length = 0;
    sim::Tick initiated_at = 0;
  };
  [[nodiscard]] std::vector<TaskInfo> running_tasks() const;
  [[nodiscard]] const Cluster& cluster(int number) const;
  [[nodiscard]] Cluster& cluster(int number);
  [[nodiscard]] const std::vector<std::unique_ptr<Cluster>>& clusters() const {
    return clusters_;
  }
  /// The live task `id` names, or null when it is stale or invalid.
  [[nodiscard]] TaskRecord* find_record(TaskId id);
  [[nodiscard]] const TaskRecord* find_record(TaskId id) const;
  [[nodiscard]] const config::Configuration& configuration() const { return cfg_; }
  [[nodiscard]] const Windows& windows() const { return windows_; }

  [[nodiscard]] trace::Tracer& tracer() { return tracer_; }
  [[nodiscard]] mmos::Console& console() { return sys_->console(); }
  [[nodiscard]] mmos::System& system() { return *sys_; }
  [[nodiscard]] flex::Machine& machine() { return sys_->machine(); }
  [[nodiscard]] sim::Engine& engine() { return sys_->engine(); }
  [[nodiscard]] const RuntimeStats& stats() const { return stats_; }
  /// The shared-memory message heap ("message-passing area", Section 11).
  [[nodiscard]] const flex::SharedHeap& message_heap() const { return *msg_heap_; }
  /// The SHARED COMMON area.
  [[nodiscard]] const flex::SharedHeap& common_heap() const { return *common_heap_; }
  /// The interpreter of the configuration's FaultPlan; null on fault-free runs.
  [[nodiscard]] const flex::FaultInjector* fault_injector() const {
    return faults_.get();
  }
  void trace_event(trace::EventKind kind, TaskId task, TaskId other, int pe,
                   std::uint64_t seq, std::string info);

  // ---- SHARED COMMON and LOCK declarations ----
  /// The task owning `rec` declares (or finds) SHARED COMMON block `name`
  /// in the SHARED COMMON area; its force members share the task's blocks.
  /// Throws std::logic_error if `name` was declared with another size.
  SharedBlock& shared_common(TaskRecord& rec, const std::string& name,
                             std::size_t words);
  LockVar& lock_var(TaskRecord& rec, const std::string& name);

  // ---- session-layer supervision surface ----
  /// Observed when a task actually starts (its slot is claimed and its
  /// process created). `tag` is the supervision tag the initiate carried.
  struct TaskStartInfo {
    TaskId id{};
    TaskId parent{};
    std::string tasktype;
    std::uint64_t tag = 0;
    int pe = 0;
  };
  /// Observed when a task terminates abnormally (killed or PE halt); fired
  /// after the slot is reclaimed and the parent notified, so a restart
  /// issued from the hook can reuse the slot. `init_args` are the original
  /// initiate arguments, captured before the record is scrubbed.
  struct TerminationInfo {
    TaskId id{};
    TaskId parent{};
    std::string tasktype;
    std::vector<Value> init_args;
    int pe = 0;
    std::string reason;  ///< "pe-halt" or "killed"
  };
  /// Observed when the reliable transport gives up on a message (retry
  /// budget exhausted or send deadline passed) and surfaces _SENDFAIL.
  /// Lets the session layer tell a transport failure apart from a task
  /// death: the destination task may be perfectly healthy behind a
  /// partition, so supervision must not burn a restart on it.
  struct SendFailInfo {
    TaskId sender{};
    TaskId dest{};
    std::string type;
    int attempts = 0;
    std::string reason;  ///< "retries" or "deadline"
  };
  using TaskStartHook = std::function<void(const TaskStartInfo&)>;
  using TerminationHook = std::function<void(const TerminationInfo&)>;
  using SendFailHook = std::function<void(const SendFailInfo&)>;
  void set_task_start_hook(TaskStartHook h) { task_start_hook_ = std::move(h); }
  void set_termination_hook(TerminationHook h) {
    termination_hook_ = std::move(h);
  }
  void set_send_fail_hook(SendFailHook h) { send_fail_hook_ = std::move(h); }
  /// When on, work queued on a cluster whose primary PE halts — held
  /// initiates and _INITIATE messages still in the dead controller's queue —
  /// is re-routed to the healthiest surviving cluster instead of
  /// dead-lettered. Flipped by the session layer's Supervisor.
  void set_work_migration(bool on) { migrate_work_ = on; }
  /// Re-issue an initiate on behalf of the supervision layer, preserving
  /// the failed task's parent; routes to the healthiest surviving cluster.
  /// False when every cluster is dead or message storage is denied.
  bool supervised_initiate(std::string tasktype, TaskId parent,
                           std::vector<Value> args, std::uint64_t tag);
  /// Proc-less control message from the session layer (e.g. _SUPFAIL);
  /// rides the same reliable channel as _CHILDTERM.
  bool post_system(TaskId from, TaskId to, std::string type,
                   std::vector<Value> args);

 private:
  friend class TaskContext;
  friend class Transport;

  [[nodiscard]] const flex::CostModel& costs() const {
    return sys_->machine().costs();
  }
  int resolve_where(const Where& where, int my_cluster) const;
  /// Pick the PE for a new user task per the cluster's placement policy.
  [[nodiscard]] int place_task_pe(Cluster& cl);
  /// Post `req` as an _INITIATE from req.parent to cluster `target`'s task
  /// controller, billed to `proc` when a task sends it. The one place the
  /// message is built; the task controller reads it back.
  bool post_initiate(PendingInitiate req, mmos::Proc* proc, int target);

  // ---- fault injection and recovery ----
  /// Build the FaultInjector and schedule the plan's timed faults (boot).
  void arm_faults();
  /// A PE-halt fault: kill everything on the PE, mark clusters whose
  /// primary died as dead, and abort tasks wedged on lost force members.
  void on_pe_halt(int pe);
  /// A fail-recovery fault: the PE rejoins cold — kernel dispatches again,
  /// clusters whose primary it was get fresh controllers, stale taskids
  /// addressed to the old incarnation keep dead-lettering.
  void on_pe_recover(int pe);
  /// Reclaim a dead cluster's controller records: drain their queued
  /// messages (migrating _INITIATEs when enabled), release heap storage,
  /// and free the slots so posts to them dead-letter exactly once.
  void reclaim_controllers(Cluster& cl, int pe);
  /// Healthiest live cluster other than `dead_cluster` (ANY placement
  /// rules), or -1 when none survives.
  [[nodiscard]] int pick_survivor(int dead_cluster) const;
  /// Halted PEs among a cluster's {primary} ∪ secondaries (survivor
  /// rebalancing: ANY placement prefers less-degraded clusters).
  [[nodiscard]] int halted_pe_count(const Cluster& cl) const;
  /// False only for PEs halted by fault injection.
  [[nodiscard]] bool pe_usable(int pe) const {
    return faults_ == nullptr || !faults_->pe_halted(pe);
  }

  void start_controllers(Cluster& cl);
  void task_controller_body(Cluster& cl, TaskContext& ctx);
  void user_controller_body(Cluster& cl, TaskContext& ctx);
  void file_controller_body(Cluster& cl, TaskContext& ctx);
  void handle_initiate(Cluster& cl, TaskContext& ctl, PendingInitiate req);
  void start_task(Cluster& cl, TaskContext& ctl, int slot, PendingInitiate req);
  void finish_task(Cluster& cl, int slot, TaskId id);

  mmos::System* sys_;
  config::Configuration cfg_;
  trace::Tracer tracer_;
  std::map<std::string, TaskBody> tasktypes_;
  // Heaps are declared before clusters_: task records hold SharedBlocks
  // whose destructors release into common_heap_, so the records must be
  // destroyed first (members destruct in reverse declaration order).
  std::unique_ptr<flex::SharedHeap> msg_heap_;
  std::unique_ptr<flex::SharedHeap> common_heap_;
  std::vector<std::unique_ptr<Cluster>> clusters_;  // indexed by position
  std::map<int, Cluster*> by_number_;
  /// Cluster whose user controller serves the terminal; unset until boot
  /// finds the first cluster configured with a terminal. An explicit "unset"
  /// state (not a sentinel number) so any legal cluster number — including
  /// 0 — can own the terminal.
  std::optional<int> terminal_cluster_;
  std::uint64_t next_unique_ = 0;
  std::unique_ptr<flex::FaultInjector> faults_;  ///< null unless cfg_.faults.any()
  RuntimeStats stats_;
  Transport transport_{*this};
  Windows windows_{*this, transport_, stats_};
  TaskStartHook task_start_hook_;
  TerminationHook termination_hook_;
  SendFailHook send_fail_hook_;
  bool migrate_work_ = false;
  bool booted_ = false;
  bool timed_out_ = false;
  sim::Tick deadline_ = 0;
};

}  // namespace pisces::rt
