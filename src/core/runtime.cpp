#include "core/runtime.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace pisces::rt {

namespace {
/// Modelled sizes of the shared-memory system tables (Section 11, use 1).
constexpr std::size_t kGlobalTableBytes = 256;
constexpr std::size_t kClusterTableBytes = 32;
/// Per-PE run-time bookkeeping in local memory (free lists, trace flags...).
constexpr std::size_t kPerPeDataBytes = 2048;
/// Default SHARED COMMON area size.
constexpr std::size_t kCommonAreaBytes = 256 * 1024;

/// The live record `id` names in `by_number`'s clusters, or null.
TaskRecord* record_of(const std::map<int, Cluster*>& by_number, TaskId id) {
  auto it = by_number.find(id.cluster);
  if (it == by_number.end()) return nullptr;
  Cluster& cl = *it->second;
  if (id.slot < 0 || id.slot >= static_cast<int>(cl.slots.size())) return nullptr;
  TaskRecord& rec = cl.slot(id.slot);
  if (rec.state == TaskState::free_slot || rec.id != id) return nullptr;
  return &rec;
}

/// The request an _INITIATE carries: (tasktype, args[, tag]). Read only
/// here; built only by Runtime::post_initiate.
PendingInitiate read_initiate(const Message& m) {
  PendingInitiate req{m.args.at(0).as_str(), m.sender, m.args.at(1).as_list()};
  if (m.args.size() > 2) {
    req.tag = static_cast<std::uint64_t>(m.args.at(2).as_int());
  }
  return req;
}
}  // namespace

const char* kill_result_name(KillResult r) {
  switch (r) {
    case KillResult::killed: return "killed";
    case KillResult::not_found: return "not-found";
    case KillResult::protected_controller: return "protected-controller";
  }
  return "?";
}

Runtime::Runtime(mmos::System& sys, config::Configuration cfg)
    : sys_(&sys), cfg_(std::move(cfg)) {}

Runtime::~Runtime() {
  // Task bodies capture `this`; unwind them before members are destroyed.
  sys_->engine().shutdown_processes();
}

void Runtime::register_tasktype(std::string name, TaskBody body) {
  if (!tasktypes_.emplace(std::move(name), std::move(body)).second) {
    throw std::logic_error("tasktype registered twice");
  }
}

void Runtime::declare_message(std::string type, int arity) {
  transport_.declare_message(std::move(type), arity);
}

void Runtime::attach_file_store(int cluster, fsim::FileStore store, int disk_pe) {
  if (booted_) throw std::logic_error("attach_file_store must precede boot()");
  if (!sys_->machine().has_disk(disk_pe)) {
    throw std::invalid_argument("PE " + std::to_string(disk_pe) + " has no disk");
  }
  windows_.attach(cluster, std::move(store), disk_pe);
}

void Runtime::boot() {
  if (booted_) throw std::logic_error("Runtime::boot called twice");
  auto errors = cfg_.validate(sys_->machine().spec());
  if (!errors.empty()) {
    std::ostringstream os;
    os << "bad configuration '" << cfg_.name << "':";
    for (const auto& e : errors) os << "\n  - " << e;
    throw std::invalid_argument(os.str());
  }

  // Boot the machine with the configured interconnect. A default (shared)
  // configuration leaves whatever the machine was constructed with intact,
  // so directly-built hier/numa machines (benches, tests) keep their
  // topology under a plain config.
  if (cfg_.topology != flex::TopologySpec{} &&
      cfg_.topology != sys_->machine().spec().topology) {
    sys_->machine().configure_topology(cfg_.topology);
  }

  if (!sys_->loaded()) sys_->load(cfg_.loadfile);

  // Shared-memory layout: system tables, the message heap, the SHARED
  // COMMON area (Section 11's three uses of shared memory).
  auto& shared = sys_->machine().shared_memory();
  shared.allocate_static(kGlobalTableBytes, "system-tables");
  shared.allocate_static(cfg_.message_heap_bytes, "message-heap");
  shared.allocate_static(kCommonAreaBytes, "shared-common");
  msg_heap_ = std::make_unique<flex::SharedHeap>(cfg_.message_heap_bytes);
  common_heap_ = std::make_unique<flex::SharedHeap>(kCommonAreaBytes);

  // Per-PE run-time data for every PE the configuration touches.
  std::vector<int> used_pes;
  for (const auto& c : cfg_.clusters) {
    used_pes.push_back(c.primary_pe);
    used_pes.insert(used_pes.end(), c.secondary_pes.begin(), c.secondary_pes.end());
  }
  std::sort(used_pes.begin(), used_pes.end());
  used_pes.erase(std::unique(used_pes.begin(), used_pes.end()), used_pes.end());
  for (int pe : used_pes) {
    sys_->machine().local_memory(pe).allocate_static(kPerPeDataBytes, "pisces-data");
  }

  for (int k = 0; k < trace::kEventKindCount; ++k) {
    tracer_.set_kind(static_cast<trace::EventKind>(k),
                     cfg_.trace.kind_on[static_cast<std::size_t>(k)]);
  }

  for (const auto& ccfg : cfg_.clusters) {
    auto cl = std::make_unique<Cluster>();
    cl->cfg = ccfg;
    const int total_slots = kFirstUserSlot + ccfg.slots;
    shared.allocate_static(
        kClusterTableBytes + static_cast<std::size_t>(total_slots) * TaskRecord::kTableBytes,
        "system-tables");
    for (int s = 0; s < total_slots; ++s) {
      cl->slots.push_back(std::make_unique<TaskRecord>());
      if (s >= kFirstUserSlot) cl->free_slots.insert(s);
    }
    if (!terminal_cluster_.has_value() && ccfg.has_terminal) {
      terminal_cluster_ = ccfg.number;
    }
    by_number_[ccfg.number] = cl.get();
    clusters_.push_back(std::move(cl));
  }

  for (const auto& [number, files] : windows_.file_stores()) {
    if (by_number_.count(number) == 0) {
      throw std::invalid_argument("file store attached to unknown cluster " +
                                  std::to_string(number));
    }
  }

  for (auto& cl : clusters_) start_controllers(*cl);

  arm_faults();
  deadline_ = sys_->engine().now() + cfg_.time_limit;
  booted_ = true;
}

// ---- fault injection ----

void Runtime::arm_faults() {
  if (!cfg_.faults.any()) return;
  faults_ = std::make_unique<flex::FaultInjector>(cfg_.faults);
  sys_->machine().set_fault_injector(faults_.get());
  windows_.set_fault_injector(faults_.get());
  // Under hier/numa, a partition between two *configured* clusters becomes a
  // window on the backbone link joining their hardware clusters (located by
  // each cluster's primary PE). A pair that shares a hardware cluster has no
  // backbone link to sever — its window is inert, matching the shared-bus
  // semantics where only cross-cluster traffic is droppable.
  auto& ic = sys_->machine().interconnect();
  if (ic.kind() != flex::Topology::shared && !cfg_.faults.bus_partitions.empty()) {
    std::vector<flex::PartitionIndex::Window> links;
    for (const auto& p : cfg_.faults.bus_partitions) {
      const auto* ca = cfg_.find_cluster(p.cluster_a);
      const auto* cb = cfg_.find_cluster(p.cluster_b);
      if (ca == nullptr || cb == nullptr) continue;  // rejected by validate()
      const int ha = ic.cluster_of(ca->primary_pe);
      const int hb = ic.cluster_of(cb->primary_pe);
      if (ha == hb) continue;
      links.push_back({ha, hb, p.from, p.until});
    }
    faults_->set_backbone_links(std::move(links));
  }
  auto& eng = sys_->engine();
  const sim::Tick now = eng.now();
  for (const auto& h : cfg_.faults.pe_halts) {
    eng.schedule(std::max(h.at, now), [this, pe = h.pe] { on_pe_halt(pe); });
  }
  // One edge of a fault window: set the heap outage flag when `outage` is
  // given, trace the edge, and print `banner` on the console when given.
  auto announce = [this, &eng, now](sim::Tick at, int pe, std::string info,
                                    std::string banner = {},
                                    std::optional<bool> outage = {}) {
    eng.schedule(std::max(at, now), [this, pe, info = std::move(info),
                                     banner = std::move(banner), outage] {
      if (outage.has_value()) msg_heap_->set_outage(*outage);
      trace_event(trace::EventKind::fault, {}, {}, pe, 0, info);
      if (!banner.empty()) console().write_line(sys_->engine().now(), banner);
    });
  };
  // Senders backing off against a heap outage re-check on their timeout;
  // its end wakes nobody.
  for (const auto& w : cfg_.faults.heap_outages) {
    announce(w.from, 0, "heap-outage-begin", {}, true);
    announce(w.until, 0, "heap-outage-end", {}, false);
  }
  // Proc::compute samples the slowdown factor and the transport consults
  // partitions per transfer, straight from the injector; these events only
  // make the windows visible.
  for (const auto& s : cfg_.faults.pe_slowdowns) {
    announce(s.from, s.pe, "pe-slow-begin x" + std::to_string(s.factor),
             "PISCES FAULT: PE " + std::to_string(s.pe) + " CLOCK DEGRADED");
    announce(s.until, s.pe, "pe-slow-end");
  }
  for (const auto& p : cfg_.faults.bus_partitions) {
    const std::string pair =
        std::to_string(p.cluster_a) + "|" + std::to_string(p.cluster_b);
    announce(p.from, 0, "bus-partition-begin " + pair,
             "PISCES FAULT: CLUSTERS " + std::to_string(p.cluster_a) + " AND " +
                 std::to_string(p.cluster_b) + " PARTITIONED");
    announce(p.until, 0, "bus-partition-end " + pair);
  }
  for (const auto& r : cfg_.faults.pe_recoveries) {
    eng.schedule(std::max(r.at, now), [this, pe = r.pe] { on_pe_recover(pe); });
  }
}

void Runtime::on_pe_halt(int pe) {
  if (faults_ == nullptr || faults_->pe_halted(pe)) return;
  faults_->mark_halted(pe);
  trace_event(trace::EventKind::fault, {}, {}, pe, 0, "pe-halt");
  console().write_line(sys_->engine().now(),
                       "PISCES FAULT: PE " + std::to_string(pe) + " HALTED");
  for (auto& cl : clusters_) {
    // A cluster whose primary PE died loses its controllers: mark it dead
    // so ANY/OTHER placement routes around it. Held initiates migrate to a
    // surviving cluster when the supervision layer asked for it; otherwise
    // (or when nobody survives) they dead-letter.
    if (cl->cfg.primary_pe == pe) {
      cl->dead = true;
      const TaskId dead_ctl = cl->controller_id();
      for (auto& req : cl->pending) {
        const int target = migrate_work_ ? pick_survivor(cl->cfg.number) : -1;
        if (target >= 0) {
          trace_event(trace::EventKind::supervision, dead_ctl, req.parent, pe,
                      0, "migrate-initiate " + req.tasktype + " cluster=" +
                             std::to_string(target));
          req.tag = req.tag.value_or(0);  // a migrated request always carries one
          if (post_initiate(std::move(req), nullptr, target)) {
            ++stats_.initiates_migrated;
          }
          // A false post already dead-lettered itself (heap denial).
        } else {
          transport_.dead_letter(dead_ctl, req.parent, pe, 0,
                                 "_INITIATE " + req.tasktype);
        }
      }
      cl->pending.clear();
      reclaim_controllers(*cl, pe);
    }
    // A task with a force member on the dead PE can never pass its next
    // barrier; abort the whole task so the surviving members unwind instead
    // of wedging. (The lost member's process dies with the kernel below.)
    for (auto& recp : cl->slots) {
      TaskRecord& rec = *recp;
      if (rec.state == TaskState::free_slot || rec.proc == nullptr) continue;
      if (rec.pe == pe) continue;  // dies with its kernel anyway
      for (auto* member : rec.force_members) {
        if (member->pe() == pe) {
          rec.proc->kill();
          break;
        }
      }
    }
  }
  // The watchdog sweep: the halted kernel kills every process it hosts;
  // each task's exit callback runs finish_task, which reclaims the slot,
  // releases queued-message heap storage, and notifies the parent.
  sys_->kernel(pe).halt();
  if (!sys_->kernel(pe).live_count_consistent()) {
    throw std::logic_error("PE " + std::to_string(pe) +
                           " live counter drifted after halt sweep");
  }
}

void Runtime::reclaim_controllers(Cluster& cl, int pe) {
  // Controllers have no exit callbacks (they never finish normally), so
  // without this sweep their records would stay `running` with dead
  // processes: posts to them would "deliver" into queues nobody drains and
  // the heap storage would leak. Free the slots (ids stay, so stale sends
  // dead-letter with the old id in the trace) and settle every queued
  // message exactly once — migrated or dead-lettered.
  for (int s = 0; s < kFirstUserSlot && s < static_cast<int>(cl.slots.size());
       ++s) {
    auto& rec = cl.slot(s);
    if (rec.state == TaskState::free_slot) continue;
    for (const Message& m : rec.in_queue) {
      const int target = (migrate_work_ && m.type == "_INITIATE")
                             ? pick_survivor(cl.cfg.number)
                             : -1;
      if (target >= 0) {
        trace_event(trace::EventKind::supervision, rec.id, m.sender, pe, m.seq,
                    "migrate-message _INITIATE cluster=" +
                        std::to_string(target));
        if (post_initiate(read_initiate(m), nullptr, target)) {
          ++stats_.messages_migrated;
        }
      } else {
        transport_.dead_letter(rec.id, m.sender, pe, m.seq, m.type);
      }
      transport_.heap_release(m.heap_offset);
    }
    rec.in_queue.clear();
    for (const Message& m : rec.replies) {
      transport_.dead_letter(rec.id, m.sender, pe, m.seq, m.type);
      transport_.heap_release(m.heap_offset);
    }
    rec.replies.clear();
    rec.proc = nullptr;  // the process dies with the kernel
    rec.state = TaskState::free_slot;
  }
}

void Runtime::on_pe_recover(int pe) {
  if (faults_ == nullptr || !faults_->pe_halted(pe)) return;
  faults_->mark_recovered(pe);
  trace_event(trace::EventKind::fault, {}, {}, pe, 0, "pe-recover");
  console().write_line(sys_->engine().now(),
                       "PISCES FAULT: PE " + std::to_string(pe) + " REJOINED");
  sys_->kernel(pe).restart();
  if (!sys_->kernel(pe).live_count_consistent()) {
    throw std::logic_error("PE " + std::to_string(pe) +
                           " live counter drifted across halt/recover");
  }
  // Clusters that lost their primary rejoin cold: fresh controllers with
  // new unique ids. Taskids minted before the halt keep dead-lettering —
  // the old incarnation's state is gone.
  for (auto& cl : clusters_) {
    if (cl->cfg.primary_pe == pe && cl->dead) {
      cl->dead = false;
      start_controllers(*cl);
      trace_event(trace::EventKind::supervision, cl->controller_id(), {}, pe,
                  0, "cluster-rejoin " + std::to_string(cl->cfg.number));
      // Kick the fresh task controller: slots freed while the cluster was
      // dead may already be waiting for work.
      if (auto* ctl = cl->slot(kTaskControllerSlot).proc) ctl->wake();
    }
  }
}

int Runtime::pick_survivor(int dead_cluster) const {
  const int c = resolve_where(Where::Any(), dead_cluster);
  auto it = by_number_.find(c);
  return (it != by_number_.end() && !it->second->dead) ? c : -1;
}

int Runtime::halted_pe_count(const Cluster& cl) const {
  int n = pe_usable(cl.cfg.primary_pe) ? 0 : 1;
  for (int pe : cl.cfg.secondary_pes) {
    if (!pe_usable(pe)) ++n;
  }
  return n;
}

// ---- controllers ----

void Runtime::start_controllers(Cluster& cl) {
  auto make_controller = [this, &cl](int slot, const std::string& tasktype,
                                     void (Runtime::*body)(Cluster&, TaskContext&)) {
    auto& rec = cl.slot(slot);
    rec.id = TaskId{cl.cfg.number, slot, ++next_unique_};
    rec.tasktype = tasktype;
    rec.state = TaskState::running;
    rec.pe = cl.cfg.primary_pe;  // controllers always run on the primary
    rec.initiated_at = sys_->engine().now();
    auto& proc = sys_->kernel(cl.cfg.primary_pe)
                     .create_process(tasktype + "@" + std::to_string(cl.cfg.number),
                                     [this, &cl, slot, body](mmos::Proc& p) {
                                       TaskContext ctx(*this, cl.slot(slot), p);
                                       (this->*body)(cl, ctx);
                                     });
    rec.proc = &proc;
  };
  make_controller(kTaskControllerSlot, "_TCONTR", &Runtime::task_controller_body);
  if (cl.cfg.has_terminal) {
    make_controller(kUserControllerSlot, "_UCONTR", &Runtime::user_controller_body);
  }
  if (windows_.file_stores().count(cl.cfg.number) != 0) {
    make_controller(kFileControllerSlot, "_FCONTR", &Runtime::file_controller_body);
  }
}

int Runtime::place_task_pe(Cluster& cl) {
  switch (cl.cfg.place) {
    case config::PlacePolicy::primary:
      return cl.cfg.primary_pe;
    case config::PlacePolicy::least_loaded: {
      // Strict < over the primary-first order: ties go to the earlier PE, so
      // an idle configuration places exactly like `primary` would. Halted
      // PEs are skipped so new initiates degrade onto the survivors, and a
      // PE inside a slowdown window carries its load scaled by the clock
      // stretch (an idle half-speed PE loses to an idle healthy one).
      const sim::Tick now = sys_->engine().now();
      int best = -1;
      double best_load = 0.0;
      auto consider = [&](int pe) {
        if (!pe_usable(pe)) return;
        const double factor =
            faults_ != nullptr ? faults_->slowdown_factor(pe, now) : 1.0;
        const double load =
            static_cast<double>(sys_->kernel(pe).live_count() + 1) * factor;
        if (best < 0 || load < best_load) {
          best = pe;
          best_load = load;
        }
      };
      consider(cl.cfg.primary_pe);
      for (int pe : cl.cfg.secondary_pes) consider(pe);
      return best < 0 ? cl.cfg.primary_pe : best;
    }
    case config::PlacePolicy::round_robin: {
      const std::size_t n = 1 + cl.cfg.secondary_pes.size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t k = cl.rr_next++ % n;
        const int pe = k == 0 ? cl.cfg.primary_pe
                              : cl.cfg.secondary_pes[k - 1];
        if (pe_usable(pe)) return pe;
      }
      return cl.cfg.primary_pe;
    }
  }
  return cl.cfg.primary_pe;
}

void Runtime::task_controller_body(Cluster& cl, TaskContext& ctx) {
  while (true) {
    // Drain held initiate requests into freed slots first.
    while (!cl.pending.empty() && !cl.free_slots.empty()) {
      PendingInitiate req = std::move(cl.pending.front());
      cl.pending.pop_front();
      start_task(cl, ctx, *cl.free_slots.begin(), std::move(req));
    }
    if (ctx.record().in_queue.empty()) {
      ctx.proc().block();
      continue;
    }
    Message m = ctx.wait_any_message();
    if (m.type == "_INITIATE") {
      handle_initiate(cl, ctx, read_initiate(m));
    } else if (!windows_.serve(ctx, m)) {
      ++stats_.controller_unknown_messages;
    }
  }
}

void Runtime::handle_initiate(Cluster& cl, TaskContext& ctl, PendingInitiate req) {
  if (cl.free_slots.empty()) {
    cl.pending.push_back(std::move(req));
    ++stats_.initiates_held;
    return;
  }
  start_task(cl, ctl, *cl.free_slots.begin(), std::move(req));
}

void Runtime::start_task(Cluster& cl, TaskContext& ctl, int slot, PendingInitiate req) {
  auto it = tasktypes_.find(req.tasktype);
  if (it == tasktypes_.end()) {
    console().write_line(sys_->engine().now(),
                         "PISCES ERROR: unknown tasktype '" + req.tasktype + "'");
    return;
  }
  ctl.proc().compute(costs().task_setup);
  cl.free_slots.erase(slot);
  auto& rec = cl.slot(slot);
  rec.id = TaskId{cl.cfg.number, slot, ++next_unique_};
  rec.tasktype = req.tasktype;
  rec.parent = req.parent;
  rec.state = TaskState::starting;
  rec.initiated_at = sys_->engine().now();
  rec.init_args = std::move(req.args);
  ++stats_.tasks_started;
  const TaskId id = rec.id;
  const int pe = place_task_pe(cl);
  rec.pe = pe;
  TaskBody body = it->second;
  auto& proc = sys_->kernel(pe)
                   .create_process(req.tasktype + id.str(),
                                   [this, &cl, slot, body](mmos::Proc& p) {
                                     auto& r = cl.slot(slot);
                                     TaskContext task_ctx(*this, r, p);
                                     r.state = TaskState::running;
                                     body(task_ctx);
                                   });
  rec.proc = &proc;
  proc.on_exit([this, &cl, slot, id] { finish_task(cl, slot, id); });
  trace_event(trace::EventKind::task_init, id, req.parent, pe, 0, req.tasktype);
  if (task_start_hook_) {
    task_start_hook_({id, req.parent, req.tasktype, req.tag.value_or(0), pe});
  }
}

void Runtime::finish_task(Cluster& cl, int slot, TaskId id) {
  auto& rec = cl.slot(slot);
  if (rec.id != id || rec.state == TaskState::free_slot) return;
  trace_event(trace::EventKind::task_term, id, {}, rec.pe, 0, rec.tasktype);
  const bool abnormal = rec.proc != nullptr && rec.proc->was_killed();
  const TaskId parent = rec.parent;
  const int pe = rec.pe;
  const std::string tasktype = rec.tasktype;
  // The supervision layer restarts from the original initiate arguments;
  // capture them before the record is scrubbed below.
  std::vector<Value> saved_args;
  if (abnormal && termination_hook_) saved_args = rec.init_args;
  // Reap force members left behind by a kill mid-force.
  for (auto* member : rec.force_members) member->kill();
  rec.force_members.clear();
  for (const Message& m : rec.in_queue) transport_.heap_release(m.heap_offset);
  for (const Message& m : rec.replies) transport_.heap_release(m.heap_offset);
  rec.in_queue.clear();
  rec.replies.clear();
  rec.arrays.clear();
  rec.array_names.clear();
  rec.shared_blocks.clear();  // frees the SHARED COMMON area
  rec.locks.clear();
  rec.init_args.clear();
  if (abnormal) ++stats_.tasks_killed;
  rec.proc = nullptr;
  rec.state = TaskState::free_slot;
  if (slot >= kFirstUserSlot) cl.free_slots.insert(slot);
  ++stats_.tasks_finished;
  if (abnormal) {
    // Abnormal termination is reported to the parent (_CHILDTERM carries the
    // child's taskid — first-class data — so parents can react in ACCEPT
    // handlers). Posted after the slot is reclaimed so a parent reacting
    // immediately sees the freed slot.
    const std::string reason =
        (faults_ != nullptr && faults_->pe_halted(pe)) ? "pe-halt" : "killed";
    trace_event(trace::EventKind::child_term, id, parent, pe, 0, reason);
    // Only a parent that can still consume its in-queue gets the
    // notification. A parent whose record survives but whose process was
    // killed with its PE (its own finish_task just hasn't run yet — halt
    // sweeps are same-tick) would queue the message into a record about to
    // be scrubbed; that must be a dead letter, exactly once, not a
    // phantom delivery.
    TaskRecord* prec = find_record(parent);
    const bool parent_viable = prec != nullptr && prec->proc != nullptr &&
                               !prec->proc->finished() &&
                               !prec->proc->was_killed() &&
                               pe_usable(prec->pe);
    if (parent_viable) {
      ++stats_.childterms_posted;
      transport_.post(id, nullptr, parent, "_CHILDTERM", {Value(id), Value(reason)});
    } else if (parent.valid()) {
      transport_.dead_letter(parent, id, pe, 0, "_CHILDTERM");
    }
    if (termination_hook_) {
      termination_hook_({id, parent, tasktype, std::move(saved_args), pe,
                         reason});
    }
  }
  // Wake the cluster's task controller so held initiates can proceed.
  if (auto* ctl = cl.slot(kTaskControllerSlot).proc) ctl->wake();
}

void Runtime::user_controller_body(Cluster& /*cl*/, TaskContext& ctx) {
  while (true) {
    Message m = ctx.wait_any_message();
    std::string text;
    if (m.type == "_PRINT" && m.args.size() == 1) {
      text = m.args[0].as_str();
    } else {
      std::ostringstream os;
      os << "FROM " << m.sender.str() << ": " << m.type << "(";
      for (std::size_t i = 0; i < m.args.size(); ++i) {
        if (i > 0) os << ", ";
        os << m.args[i].str();
      }
      os << ")";
      text = os.str();
    }
    ctx.proc().compute(static_cast<sim::Tick>(text.size()) *
                       costs().console_per_char);
    console().write_line(sys_->engine().now(), text);
  }
}

void Runtime::file_controller_body(Cluster& /*cl*/, TaskContext& ctx) {
  while (true) {
    if (!windows_.serve(ctx, ctx.wait_any_message())) {
      ++stats_.controller_unknown_messages;
    }
  }
}

int Runtime::resolve_where(const Where& where, int my_cluster) const {
  switch (where.kind) {
    case Where::Kind::cluster:
      if (by_number_.find(where.cluster) == by_number_.end()) {
        throw std::out_of_range("INITIATE names unconfigured cluster " +
                                std::to_string(where.cluster));
      }
      return where.cluster;
    case Where::Kind::same:
      return my_cluster;
    case Where::Kind::any:
    case Where::Kind::other: {
      // "ANY -- run in a system-chosen cluster": pick the most free slots;
      // equal free-slot counts tie-break on the shorter held-initiate
      // backlog (a congested cluster's free count says nothing about the
      // requests already queued for its slots), then on fewer halted PEs
      // (survivor rebalancing: a cluster that lost secondaries serves what
      // it accepts more slowly), then lowest number (deterministic).
      // free_user_slots()/pending are O(1) and the halted count only scans
      // the configured PE list, so the whole choice stays O(clusters · PEs).
      int best = -1;
      int best_free = -1;
      std::size_t best_backlog = 0;
      int best_halted = 0;
      for (const auto& cl : clusters_) {
        if (where.kind == Where::Kind::other && cl->cfg.number == my_cluster) {
          continue;
        }
        if (cl->dead) continue;  // primary PE halted: nobody to serve it
        const int f = cl->free_user_slots();
        const std::size_t backlog = cl->pending.size();
        const int halted = faults_ != nullptr ? halted_pe_count(*cl) : 0;
        if (f > best_free ||
            (f == best_free &&
             (backlog < best_backlog ||
              (backlog == best_backlog && halted < best_halted)))) {
          best_free = f;
          best_backlog = backlog;
          best_halted = halted;
          best = cl->cfg.number;
        }
      }
      if (best < 0) return my_cluster;  // single-cluster OTHER degenerates
      return best;
    }
  }
  return my_cluster;
}

// ---- execution-environment operations ----

void Runtime::user_initiate(int cluster, std::string tasktype,
                            std::vector<Value> args) {
  if (!booted_) throw std::logic_error("user_initiate before boot");
  // Throws std::out_of_range, counting nothing, for an unconfigured cluster.
  post_initiate({std::move(tasktype), user_controller_id(), std::move(args)},
                nullptr, cluster);
  ++stats_.initiates_requested;
}

bool Runtime::supervised_initiate(std::string tasktype, TaskId parent,
                                  std::vector<Value> args, std::uint64_t tag) {
  if (!booted_) throw std::logic_error("supervised_initiate before boot");
  const int target = pick_survivor(clusters_.front()->cfg.number);
  if (target < 0) {
    transport_.dead_letter({}, parent, 0, 0,
                           "_INITIATE " + tasktype + " (no live cluster)");
    return false;
  }
  ++stats_.initiates_requested;
  return post_initiate({std::move(tasktype), parent, std::move(args), tag},
                       nullptr, target);
}

bool Runtime::post_initiate(PendingInitiate req, mmos::Proc* proc, int target) {
  // Message bytes are billed: user and task initiates send two arguments,
  // supervised and migrated ones add their tag as a third.
  std::vector<Value> args{Value(std::move(req.tasktype)),
                          Value::list(std::move(req.args))};
  if (req.tag.has_value()) args.emplace_back(static_cast<std::int64_t>(*req.tag));
  return transport_.post(req.parent, proc, cluster(target).controller_id(),
                         "_INITIATE", std::move(args));
}

bool Runtime::post_system(TaskId from, TaskId to, std::string type,
                          std::vector<Value> args) {
  return transport_.post(from, nullptr, to, std::move(type), std::move(args));
}

bool Runtime::user_send(TaskId to, std::string type, std::vector<Value> args) {
  return transport_.post(user_controller_id(), nullptr, to, std::move(type),
                         std::move(args));
}

KillResult Runtime::try_kill_task(TaskId id) {
  TaskRecord* rec = find_record(id);
  if (rec == nullptr || rec->proc == nullptr) return KillResult::not_found;
  if (id.slot < kFirstUserSlot) return KillResult::protected_controller;
  rec->proc->kill();
  return KillResult::killed;
}

int Runtime::delete_messages(TaskId id, const std::string& type) {
  TaskRecord* rec = find_record(id);
  if (rec == nullptr) return 0;
  int deleted = 0;
  for (auto it = rec->in_queue.begin(); it != rec->in_queue.end();) {
    if (type.empty() || it->type == type) {
      transport_.heap_release(it->heap_offset);
      it = rec->in_queue.erase(it);
      ++deleted;
    } else {
      ++it;
    }
  }
  stats_.messages_deleted += static_cast<std::uint64_t>(deleted);
  return deleted;
}

TaskId Runtime::user_controller_id() const {
  if (!terminal_cluster_.has_value()) return {};
  auto it = by_number_.find(*terminal_cluster_);
  if (it == by_number_.end()) return {};
  return it->second->slot(kUserControllerSlot).id;
}

sim::Tick Runtime::run() {
  if (!booted_) boot();
  sys_->engine().run_until(deadline_);
  if (sys_->engine().pending_events() > 0) {
    timed_out_ = true;
    console().write_line(sys_->engine().now(), "PISCES: EXECUTION TIME LIMIT REACHED");
  }
  return sys_->engine().now();
}

sim::Tick Runtime::run_for(sim::Tick dt) {
  if (!booted_) boot();
  return sys_->engine().run_until(std::min(deadline_, sys_->engine().now() + dt));
}

// ---- introspection ----

std::vector<Runtime::TaskInfo> Runtime::running_tasks() const {
  std::vector<TaskInfo> out;
  for (const auto& cl : clusters_) {
    for (const auto& rec : cl->slots) {
      if (rec->state == TaskState::free_slot) continue;
      out.push_back({rec->id, rec->tasktype, rec->state, rec->pe,
                     rec->in_queue.size(), rec->initiated_at});
    }
  }
  return out;
}

const Cluster& Runtime::cluster(int number) const {
  auto it = by_number_.find(number);
  if (it == by_number_.end()) {
    throw std::out_of_range("no cluster " + std::to_string(number));
  }
  return *it->second;
}

Cluster& Runtime::cluster(int number) {
  return const_cast<Cluster&>(std::as_const(*this).cluster(number));
}

TaskRecord* Runtime::find_record(TaskId id) { return record_of(by_number_, id); }

const TaskRecord* Runtime::find_record(TaskId id) const {
  return record_of(by_number_, id);
}

SharedBlock& Runtime::shared_common(TaskRecord& rec, const std::string& name,
                                    std::size_t words) {
  auto& slot = rec.shared_blocks[name];
  if (!slot) slot = std::make_unique<SharedBlock>(*common_heap_, name, words);
  if (slot->words() != words) {
    throw std::logic_error("SHARED COMMON /" + name + "/ redeclared with size " +
                           std::to_string(words) + " (was " +
                           std::to_string(slot->words()) + ")");
  }
  return *slot;
}

LockVar& Runtime::lock_var(TaskRecord& rec, const std::string& name) {
  auto& slot = rec.locks[name];
  if (!slot) slot = std::make_unique<LockVar>(*this, name);
  return *slot;
}

void Runtime::trace_event(trace::EventKind kind, TaskId task, TaskId other,
                          int pe, std::uint64_t seq, std::string info) {
  tracer_.record(trace::Record{kind, sys_->engine().now(), pe, task, other, seq,
                               std::move(info)});
}

}  // namespace pisces::rt
