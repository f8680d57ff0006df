#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "config/configuration.hpp"
#include "core/runtime.hpp"
#include "sim/backoff.hpp"

namespace pisces::session {

/// Restart policy for one supervised tasktype: how many times a failed
/// lineage is re-initiated, and how the delay between attempts grows
/// (delay = base · factor^(attempt-1), capped).
struct RestartPolicy {
  int max_restarts = 3;
  sim::Backoff backoff{250'000, 2.0, 16'000'000};
};

struct SupervisorStats {
  std::uint64_t restarts_scheduled = 0;   ///< backoff timers armed
  std::uint64_t restarts_started = 0;     ///< replacement incarnations that ran
  std::uint64_t restart_posts_failed = 0; ///< re-initiate had no live cluster
  std::uint64_t budgets_exhausted = 0;    ///< lineages that ran out of retries
  std::uint64_t escalations_delivered = 0;///< _SUPFAIL reached a live ancestor
  std::uint64_t escalations_dropped = 0;  ///< no live ancestor remained
  /// Reliable-transport give-ups observed (_SENDFAIL). Counted separately
  /// and never charged against a lineage's restart budget: a transport
  /// failure means the path to a task was unreachable, not that the task
  /// died — restarting a healthy task behind a partition would double it.
  std::uint64_t transport_failures = 0;
};

/// One completed restart: the latency from an incarnation's death to the
/// tick its replacement actually started (the recovery-latency metric the
/// bench reports against backoff settings).
struct RecoveryRecord {
  std::string tasktype;
  int attempt = 0;  ///< 1 = first restart of the lineage
  sim::Tick died_at = 0;
  sim::Tick restarted_at = 0;
  [[nodiscard]] sim::Tick latency() const { return restarted_at - died_at; }
};

/// The session layer's supervision policy: acts on the runtime's abnormal
/// termination notifications (the same events that raise _CHILDTERM) the
/// way an Erlang supervisor acts on EXIT signals. Each supervised task
/// heads a *lineage*: when an incarnation dies abnormally the supervisor
/// re-initiates the same tasktype with the original arguments and parent —
/// routed to the healthiest surviving cluster — after an exponential
/// backoff. When the lineage's retry budget is exhausted (or no cluster
/// survives to run it), the failure escalates: a _SUPFAIL(taskid, tasktype,
/// attempts, reason) message is delivered to the nearest live ancestor in
/// the task tree, climbing past dead intermediates.
///
/// Everything is driven off deterministic runtime hooks and engine timers,
/// so a supervised run replays bit-identically per seed on both backends.
///
/// Lifetime: attach after construction of the Runtime and keep the
/// Supervisor alive for the whole run (the destructor detaches the hooks).
class Supervisor {
 public:
  /// Attach to a runtime. `cfg.enabled` makes every user tasktype
  /// supervised with the config's policy; otherwise only tasktypes named
  /// via supervise() are. `cfg.migrate` flips the runtime's queued-work
  /// migration on.
  Supervisor(rt::Runtime& rt, config::SupervisionConfig cfg);
  /// Convenience: supervise everything with the default policy.
  explicit Supervisor(rt::Runtime& rt);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Per-tasktype policy override; supervises the tasktype even when the
  /// config-wide default is off.
  void supervise(const std::string& tasktype, RestartPolicy policy);

  [[nodiscard]] const SupervisorStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<RecoveryRecord>& recoveries() const {
    return recoveries_;
  }

 private:
  /// A supervised task's restart state, keyed by the supervision tag that
  /// links incarnations together across restarts.
  struct Lineage {
    std::string tasktype;
    rt::TaskId parent{};
    std::vector<rt::Value> args;
    RestartPolicy policy;
    int attempts = 0;  ///< restarts consumed so far
    sim::Tick died_at = 0;
  };

  void on_start(const rt::Runtime::TaskStartInfo& info);
  void on_termination(const rt::Runtime::TerminationInfo& info);
  void on_send_fail(const rt::Runtime::SendFailInfo& info);
  void fire_restart(std::uint64_t tag);
  void escalate(const Lineage& lin, rt::TaskId child, const std::string& why);
  [[nodiscard]] const RestartPolicy* policy_for(
      const std::string& tasktype) const;
  void trace(rt::TaskId task, rt::TaskId other, std::string info);

  rt::Runtime* rt_;
  config::SupervisionConfig cfg_;
  RestartPolicy default_policy_;
  std::map<std::string, RestartPolicy> by_tasktype_;
  std::map<std::uint64_t, Lineage> lineages_;        ///< tag → lineage
  std::map<rt::TaskId, std::uint64_t> incarnation_;  ///< live task → tag
  std::map<rt::TaskId, rt::TaskId> parent_of_;       ///< ancestry (escalation)
  std::uint64_t next_tag_ = 0;
  SupervisorStats stats_;
  std::vector<RecoveryRecord> recoveries_;
};

}  // namespace pisces::session
