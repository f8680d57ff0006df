#include "session/supervisor.hpp"

#include <utility>

namespace pisces::session {

Supervisor::Supervisor(rt::Runtime& rt, config::SupervisionConfig cfg)
    : rt_(&rt), cfg_(cfg) {
  default_policy_.max_restarts = cfg.max_restarts;
  default_policy_.backoff = cfg.backoff;
  rt_->set_task_start_hook(
      [this](const rt::Runtime::TaskStartInfo& i) { on_start(i); });
  rt_->set_termination_hook(
      [this](const rt::Runtime::TerminationInfo& i) { on_termination(i); });
  rt_->set_send_fail_hook(
      [this](const rt::Runtime::SendFailInfo& i) { on_send_fail(i); });
  rt_->set_work_migration(cfg.migrate);
}

Supervisor::Supervisor(rt::Runtime& rt)
    : Supervisor(rt, config::SupervisionConfig{.enabled = true}) {}

Supervisor::~Supervisor() {
  rt_->set_task_start_hook(nullptr);
  rt_->set_termination_hook(nullptr);
  rt_->set_send_fail_hook(nullptr);
  rt_->set_work_migration(false);
}

void Supervisor::supervise(const std::string& tasktype, RestartPolicy policy) {
  by_tasktype_[tasktype] = policy;
}

const RestartPolicy* Supervisor::policy_for(const std::string& tasktype) const {
  if (auto it = by_tasktype_.find(tasktype); it != by_tasktype_.end()) {
    return &it->second;
  }
  return cfg_.enabled ? &default_policy_ : nullptr;
}

void Supervisor::trace(rt::TaskId task, rt::TaskId other, std::string info) {
  rt_->trace_event(trace::EventKind::supervision, task, other, 0, 0, std::move(info));
}

void Supervisor::on_start(const rt::Runtime::TaskStartInfo& info) {
  parent_of_[info.id] = info.parent;
  if (info.tag == 0) return;
  auto it = lineages_.find(info.tag);
  if (it == lineages_.end()) return;  // tag from an earlier, closed lineage
  incarnation_[info.id] = info.tag;
  ++stats_.restarts_started;
  recoveries_.push_back({info.tasktype, it->second.attempts,
                         it->second.died_at, rt_->engine().now()});
  trace(info.id, info.parent,
        "restart-start " + info.tasktype + " attempt=" +
            std::to_string(it->second.attempts));
}

void Supervisor::on_termination(const rt::Runtime::TerminationInfo& info) {
  std::uint64_t tag = 0;
  if (auto it = incarnation_.find(info.id); it != incarnation_.end()) {
    tag = it->second;
    incarnation_.erase(it);
  }
  if (tag == 0) {
    const RestartPolicy* pol = policy_for(info.tasktype);
    if (pol == nullptr) return;  // unsupervised
    tag = ++next_tag_;
    Lineage lin;
    lin.tasktype = info.tasktype;
    lin.parent = info.parent;
    lin.args = info.init_args;
    lin.policy = *pol;
    lineages_.emplace(tag, std::move(lin));
  }
  Lineage& lin = lineages_.at(tag);
  lin.died_at = rt_->engine().now();
  if (lin.attempts >= lin.policy.max_restarts) {
    ++stats_.budgets_exhausted;
    escalate(lin, info.id, "restart budget exhausted");
    lineages_.erase(tag);
    return;
  }
  ++lin.attempts;
  const sim::Tick delay = lin.policy.backoff.delay(lin.attempts);
  ++stats_.restarts_scheduled;
  trace(info.id, info.parent,
        "restart-scheduled " + info.tasktype + " attempt=" +
            std::to_string(lin.attempts) + " delay=" + std::to_string(delay));
  rt_->engine().schedule(rt_->engine().now() + delay,
                         [this, tag] { fire_restart(tag); });
}

void Supervisor::on_send_fail(const rt::Runtime::SendFailInfo& info) {
  // Transport-failed, not task-died: the destination may be healthy behind
  // a closed partition window, so no lineage state is touched and no
  // restart is scheduled — the failure is recorded and traced, and the
  // sender already holds the typed _SENDFAIL to react at protocol level.
  ++stats_.transport_failures;
  trace(info.sender, info.dest,
        "transport-fail " + info.type + " attempts=" +
            std::to_string(info.attempts) + " (" + info.reason + ")");
}

void Supervisor::fire_restart(std::uint64_t tag) {
  auto it = lineages_.find(tag);
  if (it == lineages_.end()) return;
  Lineage& lin = it->second;
  if (!rt_->supervised_initiate(lin.tasktype, lin.parent, lin.args, tag)) {
    // Nowhere left to run the replacement: the lineage cannot make
    // progress, so the failure escalates immediately.
    ++stats_.restart_posts_failed;
    escalate(lin, {}, "no surviving cluster");
    lineages_.erase(it);
  }
}

void Supervisor::escalate(const Lineage& lin, rt::TaskId child,
                          const std::string& why) {
  // Climb the task tree past dead ancestors to the nearest live one. The
  // ancestry map covers every task the runtime ever started; controllers
  // (the roots) are resolved directly against the runtime's live records.
  rt::TaskId target = lin.parent;
  while (target.valid() && rt_->find_record(target) == nullptr) {
    auto it = parent_of_.find(target);
    target = it == parent_of_.end() ? rt::TaskId{} : it->second;
  }
  trace(child.valid() ? child : lin.parent, target,
        "escalate " + lin.tasktype + " attempts=" +
            std::to_string(lin.attempts) + " (" + why + ")");
  if (target.valid()) {
    ++stats_.escalations_delivered;
    rt_->post_system(child, target, "_SUPFAIL",
                     {rt::Value(child), rt::Value(lin.tasktype),
                      rt::Value(static_cast<std::int64_t>(lin.attempts)),
                      rt::Value(why)});
  } else {
    ++stats_.escalations_dropped;
    rt_->console().write_line(
        rt_->engine().now(),
        "PISCES SUPERVISOR: " + lin.tasktype +
            " abandoned, no live ancestor (" + why + ")");
  }
}

}  // namespace pisces::session
