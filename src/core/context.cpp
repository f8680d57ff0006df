#include "core/context.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/runtime.hpp"

namespace pisces::rt {

namespace {
/// RAII reset for the in-ACCEPT flag (handlers must not nest ACCEPTs).
struct AcceptGuard {
  bool* flag;
  explicit AcceptGuard(bool* f) : flag(f) { *flag = true; }
  ~AcceptGuard() { *flag = false; }
};
}  // namespace

// ---- INITIATE ----

void TaskContext::initiate(Where where, std::string tasktype,
                           std::vector<Value> args) {
  const int target = rt_->resolve_where(where, cluster());
  proc_->compute(rt_->costs().initiate_overhead);
  ++rt_->stats_.initiates_requested;
  rt_->post_initiate({std::move(tasktype), self(), std::move(args)}, proc_, target);
}

// ---- SEND ----

TaskId TaskContext::resolve(const Dest& dest) const {
  switch (dest.kind) {
    case Dest::Kind::parent: return rec_->parent;
    case Dest::Kind::self: return rec_->id;
    case Dest::Kind::sender: return sender_;
    case Dest::Kind::user: return rt_->user_controller_id();
    case Dest::Kind::task: return dest.id;
    case Dest::Kind::tcontr: return rt_->cluster(dest.cluster).controller_id();
  }
  return {};
}

bool TaskContext::send(Dest dest, std::string type, std::vector<Value> args) {
  proc_->compute(rt_->costs().msg_send_overhead);
  const TaskId to = resolve(dest);
  if (!to.valid()) {
    rt_->transport_.dead_letter(to, self(), proc_->pe(), 0, std::move(type));
    return false;
  }
  return rt_->transport_.post(self(), proc_, to, std::move(type), std::move(args));
}

int TaskContext::broadcast(std::string type, std::vector<Value> args,
                           std::optional<int> cluster_number) {
  // Snapshot the target taskids before the first send: the root's own posts
  // can block on a full message heap, during which slots may empty and be
  // reused by new tasks. Iterating the live slot table across those blocks
  // would skip some tasks and deliver to ones initiated *after* the
  // broadcast began. Targets that die before their copy is dispatched (or
  // while it is in flight) become dead letters in the transport.
  std::vector<TaskId> targets;
  for (const auto& cl : rt_->clusters_) {
    if (cluster_number.has_value() && cl->cfg.number != *cluster_number) continue;
    for (std::size_t s = kFirstUserSlot; s < cl->slots.size(); ++s) {
      const TaskRecord& r = *cl->slots[s];
      if (r.state == TaskState::free_slot || r.id == self()) continue;
      targets.push_back(r.id);
    }
  }
  if (targets.empty()) return 0;
  // The whole snapshot is committed to the relay tree; copies past its
  // first level are in flight on return. Per-copy outcomes land in
  // broadcast_copies / dead_letters rather than the return value.
  return rt_->transport_.broadcast(self(), *proc_, std::move(type),
                                   std::move(args), std::move(targets));
}

void TaskContext::print(const std::string& text) {
  send(Dest::User(), "_PRINT", {Value(text)});
}

// ---- ACCEPT ----

void TaskContext::on_message(std::string type, Handler handler) {
  handlers_[std::move(type)] = std::move(handler);
}

void TaskContext::take_accepted(const Message& msg) {
  rt_->transport_.release_accepted(*proc_, msg);
  sender_ = msg.sender;
  ++rt_->stats_.messages_accepted;
  rt_->trace_event(trace::EventKind::msg_accept, self(), msg.sender, proc_->pe(),
                   msg.seq, msg.type);
}

void TaskContext::consume(Message msg, AcceptResult& res) {
  take_accepted(msg);
  ++res.accepted[msg.type];
  auto it = handlers_.find(msg.type);
  if (it != handlers_.end()) it->second(*this, msg);
}

AcceptResult TaskContext::accept(AcceptSpec spec) {
  if (in_accept_) {
    throw std::logic_error("ACCEPT executed inside a message handler");
  }
  if (spec.types.empty()) {
    throw std::invalid_argument("ACCEPT lists no message types");
  }
  for (std::size_t i = 0; i < spec.types.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.types.size(); ++j) {
      if (spec.types[i].type == spec.types[j].type) {
        throw std::invalid_argument("ACCEPT lists message type '" +
                                    spec.types[i].type + "' twice");
      }
    }
  }
  AcceptGuard guard(&in_accept_);
  AcceptResult res;

  const bool only_all = std::all_of(spec.types.begin(), spec.types.end(),
                                    [](const auto& t) { return t.all; });

  // Count toward the targets only messages of listed types.
  auto listed_total = [&res, &spec] {
    int n = 0;
    for (const auto& [type, k] : res.accepted) {
      if (spec.lists(type)) n += k;
    }
    return n;
  };
  auto satisfied = [&] {
    if (spec.total_count.has_value()) return listed_total() >= *spec.total_count;
    for (const auto& t : spec.types) {
      if (!t.all && res.count(t.type) < t.count) return false;
    }
    return true;
  };
  auto wants = [&](const std::string& type) {
    for (const auto& t : spec.types) {
      if (t.type != type) continue;
      if (t.all) return true;
      if (spec.total_count.has_value()) {
        return listed_total() < *spec.total_count;
      }
      return res.count(type) < t.count;
    }
    return false;
  };
  // Take the earliest arrival of each wanted type, then the one with the
  // lowest send sequence, until no wanted message is queued.
  auto scan = [&] {
    auto& q = rec_->in_queue;
    while (true) {
      auto best = q.end();
      for (const auto& t : spec.types) {
        auto it = q.first_of(t.type);
        if (it == q.end() || !wants(t.type)) continue;
        if (best == q.end() || it->seq < best->seq) best = it;
      }
      if (best == q.end()) break;
      consume(q.take(best), res);  // handlers may push to the queue's back
    }
  };

  const sim::Tick deadline =
      spec.no_timeout
          ? sim::kForever
          : rt_->engine().now() +
                spec.delay.value_or(rt_->cfg_.accept_default_timeout);

  while (true) {
    scan();
    if (only_all || satisfied()) break;
    const bool timed_out = proc_->block_with_timeout(deadline);
    if (timed_out) {
      res.timed_out = true;
      ++rt_->stats_.accept_timeouts;
      if (spec.on_delay) {
        spec.on_delay();  // DELAY ... THEN <statement sequence>
      } else {
        res.accepted[kTimeoutType] = 1;  // system-generated timeout message
      }
      break;
    }
  }
  return res;
}

Message TaskContext::wait_any_message() {
  while (rec_->in_queue.empty()) proc_->block();
  Message m = rec_->in_queue.pop_front();
  take_accepted(m);
  return m;
}

// ---- forces ----

void TaskContext::forcesplit(const std::function<void(ForceContext&)>& region) {
  Cluster& cl = rt_->cluster(cluster());
  const auto& secondaries = cl.cfg.secondary_pes;
  const int n = 1 + static_cast<int>(secondaries.size());
  ++rt_->stats_.forcesplits;
  rt_->trace_event(trace::EventKind::force_split, self(), {}, proc_->pe(), 0,
                   "members=" + std::to_string(n));
  proc_->compute(rt_->costs().forcesplit_per_member * n);
  // A member placed on a halted PE could never pass a barrier, so the task
  // ends here, as Runtime::on_pe_halt ends one whose force is running when
  // a PE halts (the halt may have come during the charge above).
  if (std::any_of(secondaries.begin(), secondaries.end(),
                  [this](int pe) { return !rt_->pe_usable(pe); })) {
    proc_->kill();
    throw sim::ProcessKilled{};
  }

  auto st = std::make_shared<ForceState>();
  st->members = n;
  st->rec = rec_;
  st->procs.assign(static_cast<std::size_t>(n), nullptr);
  st->procs[0] = proc_;
  st->engine = &rt_->engine();
  st->fanout = rt_->cfg_.collective_fanout;
  st->nodes.assign(static_cast<std::size_t>(n), ForceState::TreeNode{});
  st->partial.assign(static_cast<std::size_t>(n), 0.0);

  for (int i = 2; i <= n; ++i) {
    const int pe = secondaries[static_cast<std::size_t>(i - 2)];
    // Capture rt/rec by value, never `this`: if the primary is killed, the
    // members must not touch its (unwound) TaskContext.
    auto& p = rt_->system().kernel(pe).create_process(
        rec_->tasktype + "#f" + std::to_string(i),
        [rt = rt_, rec = rec_, st, i, region](mmos::Proc& mp) {
          ForceContext member_ctx(*rt, *rec, st, i, mp);
          region(member_ctx);
          member_ctx.barrier();  // implicit end-of-region barrier
        });
    st->procs[static_cast<std::size_t>(i - 1)] = &p;
    // Wake the primary to re-check the join. A member can outlive it (the
    // task killed mid-force), so name the task, not the primary's record:
    // once the task has ended, the record holds no process or another id.
    p.on_exit([rec = rec_, unique = rec_->id.unique] {
      if (rec->id.unique == unique && rec->proc != nullptr) rec->proc->wake();
    });
  }
  // Record the force so finish_task can reap its members if this task is
  // killed mid-force (otherwise they would block at the barrier forever).
  rec_->force = st;

  ForceContext fc(*rt_, *rec_, st, 1, *proc_);
  region(fc);
  fc.barrier();  // implicit end-of-region barrier

  // Join: wait for the secondary processes to fully exit. The last
  // reference to the force state goes with this frame, and with it the
  // members' records.
  for (std::size_t m = 1; m < st->procs.size(); ++m) {
    while (!st->procs[m]->finished()) proc_->block();
  }
  rec_->force.reset();
}

SharedBlock& TaskContext::shared_common(const std::string& name,
                                        std::size_t words) {
  return rt_->shared_common(*rec_, name, words);
}

LockVar& TaskContext::lock_var(const std::string& name) {
  return rt_->lock_var(*rec_, name);
}

// ---- windows ----

LocalArray& TaskContext::local_array(const std::string& name, int rows, int cols) {
  auto it = rec_->array_names.find(name);
  if (it != rec_->array_names.end()) {
    LocalArray& la = rec_->arrays.at(it->second);
    if (la.data.rows() != rows || la.data.cols() != cols) {
      throw std::logic_error("local array '" + name + "' redeclared with a new shape");
    }
    return la;
  }
  const std::uint32_t id = rec_->next_array_id++;
  rec_->array_names[name] = id;
  LocalArray& la = rec_->arrays[id];
  la.id = id;
  la.name = name;
  la.data = Matrix(rows, cols);
  return la;
}

Matrix& TaskContext::array_data(const std::string& name) {
  auto it = rec_->array_names.find(name);
  if (it == rec_->array_names.end()) {
    throw WindowError("no local array '" + name + "'");
  }
  return rec_->arrays.at(it->second).data;
}

Window TaskContext::make_window(const std::string& array_name) const {
  auto it = rec_->array_names.find(array_name);
  if (it == rec_->array_names.end()) {
    throw WindowError("no local array '" + array_name + "'");
  }
  const LocalArray& la = rec_->arrays.at(it->second);
  Window w;
  w.owner = rec_->id;
  w.array = la.id;
  w.rect = Rect{0, 0, la.data.rows(), la.data.cols()};
  w.array_rows = la.data.rows();
  w.array_cols = la.data.cols();
  return w;
}

}  // namespace pisces::rt
