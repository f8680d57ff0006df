#include "exec/execution_env.hpp"

#include <charconv>
#include <iomanip>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>

namespace pisces::exec {

namespace {
const char* state_name(rt::TaskState s) {
  switch (s) {
    case rt::TaskState::free_slot: return "FREE";
    case rt::TaskState::starting: return "STARTING";
    case rt::TaskState::running: return "RUNNING";
  }
  return "?";
}

/// Prompt for arguments and return the words of the next input line; none
/// at the end of the input.
std::vector<std::string> ask(std::istream& in, std::ostream& out, const char* prompt) {
  out << prompt << std::flush;
  std::vector<std::string> words;
  std::string line;
  if (!std::getline(in, line)) return words;
  std::istringstream is(line);
  for (std::string w; is >> w;) words.push_back(std::move(w));
  return words;
}

/// `word` as a number in full; nullopt otherwise.
std::optional<int> number(const std::string& word) {
  int value = 0;
  const char* end = word.data() + word.size();
  const auto [stop, ec] = std::from_chars(word.data(), end, value);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  return value;
}

/// The taskid `words` holds at `i`, when it has `min`..`max` words.
std::optional<rt::TaskId> taskid_at(const std::vector<std::string>& words,
                                    std::size_t i, std::size_t min, std::size_t max) {
  if (words.size() < min || words.size() > max) return std::nullopt;
  return trace::parse_taskid(words[i]);
}

/// The kind `name` names; nullopt once `out` has been told the names.
std::optional<trace::EventKind> known_kind(std::ostream& out, const std::string& name) {
  const auto kind = trace::kind_from_name(name);
  if (!kind) {
    out << "unknown event kind '" << name << "' (use";
    for (int k = 0; k < trace::kEventKindCount; ++k) {
      out << (k == 0 ? " " : ", ") << trace::kind_name(static_cast<trace::EventKind>(k));
    }
    out << ")\n";
  }
  return kind;
}
}  // namespace

void ExecutionEnvironment::show_menu(std::ostream& out) const {
  out << "PISCES EXECUTION ENVIRONMENT  t=" << rt_->engine().now() << "\n"
      << " 0 TERMINATE THE RUN\n"
      << " 1 INITIATE A TASK\n"
      << " 2 KILL A TASK\n"
      << " 3 SEND A MESSAGE\n"
      << " 4 DELETE MESSAGES\n"
      << " 5 DISPLAY RUNNING TASKS\n"
      << " 6 DISPLAY MESSAGE QUEUE\n"
      << " 7 DUMP SYSTEM STATE\n"
      << " 8 DISPLAY PE LOADING\n"
      << " 9 CHANGE TRACE OPTIONS\n"
      << "choice> " << std::flush;
}

void ExecutionEnvironment::repl(std::istream& in, std::ostream& out,
                                sim::Tick step_ticks) {
  std::string line;
  while (true) {
    rt_->run_for(step_ticks);
    show_menu(out);
    if (!std::getline(in, line)) return;
    std::istringstream ls(line);
    int choice = -1;
    if (!(ls >> choice)) continue;
    switch (choice) {
      case 0:
        out << "RUN TERMINATED at t=" << rt_->engine().now() << "\n";
        return;
      case 1: {
        const auto words = ask(in, out, "cluster tasktype> ");
        const auto cluster = words.size() == 2 ? number(words[0]) : std::nullopt;
        if (cluster) initiate_task(out, *cluster, words[1]);
        else out << "bad arguments\n";
        break;
      }
      case 2: {
        if (const auto id = taskid_at(ask(in, out, "taskid (c:s:u)> "), 0, 1, 1)) {
          kill_task(out, *id);
        } else {
          out << "bad taskid\n";
        }
        break;
      }
      case 3: {
        const auto words = ask(in, out, "taskid type> ");
        if (const auto id = taskid_at(words, 0, 2, 2)) send_message(out, *id, words[1]);
        else out << "bad arguments\n";
        break;
      }
      case 4: {
        const auto words = ask(in, out, "taskid [type]> ");
        if (const auto id = taskid_at(words, 0, 1, 2)) {
          delete_messages(out, *id, words.size() == 2 ? words[1] : "");
        } else {
          out << "bad taskid\n";
        }
        break;
      }
      case 5: display_tasks(out); break;
      case 6: {
        if (const auto id = taskid_at(ask(in, out, "taskid (c:s:u)> "), 0, 1, 1)) {
          display_queue(out, *id);
        } else {
          out << "bad taskid\n";
        }
        break;
      }
      case 7: dump_state(out); break;
      case 8: display_pe_loading(out); break;
      case 9: {
        const auto words = ask(in, out, "event-kind on|off [taskid]> ");
        const auto id = taskid_at(words, 2, 3, 3);
        if (words.size() < 2 || words.size() > 3 || (words.size() == 3 && !id)) {
          out << "bad arguments\n";
        } else if (words[1] != "on" && words[1] != "off") {
          out << "error: expected on or off, got '" << words[1] << "'\n";
        } else if (id) {
          change_trace_for_task(out, *id, words[0], words[1] == "on");
        } else {
          change_trace(out, words[0], words[1] == "on");
        }
        break;
      }
      default: out << "unknown choice\n"; break;
    }
  }
}

void ExecutionEnvironment::initiate_task(std::ostream& out, int cluster,
                                         const std::string& tasktype,
                                         const std::vector<rt::Value>& args) {
  try {
    rt_->user_initiate(cluster, tasktype, args);
    out << "initiate request sent to task controller of cluster " << cluster << "\n";
  } catch (const std::exception& e) {
    out << "INITIATE failed: " << e.what() << "\n";
  }
}

void ExecutionEnvironment::kill_task(std::ostream& out, rt::TaskId id) {
  switch (rt_->try_kill_task(id)) {
    case rt::KillResult::killed: out << "task killed\n"; break;
    case rt::KillResult::protected_controller:
      out << "cannot kill a controller task\n";
      break;
    case rt::KillResult::not_found: out << "no such running user task\n"; break;
  }
}

void ExecutionEnvironment::send_message(std::ostream& out, rt::TaskId to,
                                        const std::string& type,
                                        const std::vector<rt::Value>& args) {
  out << (rt_->user_send(to, type, args) ? "message queued\n"
                                         : "destination not running\n");
}

void ExecutionEnvironment::delete_messages(std::ostream& out, rt::TaskId id,
                                           const std::string& type) {
  out << rt_->delete_messages(id, type) << " message(s) deleted\n";
}

void ExecutionEnvironment::display_tasks(std::ostream& out) const {
  out << "RUNNING TASKS at t=" << rt_->engine().now() << "\n";
  out << std::left << std::setw(14) << "  taskid" << std::setw(14) << "tasktype"
      << std::setw(10) << "state" << std::setw(5) << "pe" << std::setw(8)
      << "queue" << "initiated\n";
  for (const auto& info : rt_->running_tasks()) {
    out << "  " << std::left << std::setw(12) << info.id.str() << std::setw(14)
        << info.tasktype << std::setw(10) << state_name(info.state)
        << std::setw(5) << info.pe << std::setw(8) << info.queue_length
        << info.initiated_at << "\n";
  }
}

void ExecutionEnvironment::display_queue(std::ostream& out, rt::TaskId id) const {
  const rt::TaskRecord* rec = rt_->find_record(id);
  if (rec == nullptr) {
    out << "no such task " << id.str() << "\n";
    return;
  }
  out << "MESSAGE QUEUE of " << id.str() << " (" << rec->in_queue.size()
      << " messages)\n";
  for (const auto& m : rec->in_queue) {
    out << "  " << m.type << " from " << m.sender.str() << " arrived=" << m.arrived_at
        << " bytes=" << m.heap_bytes << "\n";
  }
}

void ExecutionEnvironment::dump_state(std::ostream& out) const {
  const auto& stats = rt_->stats();
  const auto& heap = rt_->message_heap();
  out << "SYSTEM STATE DUMP t=" << rt_->engine().now() << "\n";
  out << "  messages: sent=" << stats.messages_sent
      << " accepted=" << stats.messages_accepted
      << " dead-letters=" << stats.dead_letters
      << " deleted=" << stats.messages_deleted << "\n";
  out << "  tasks: started=" << stats.tasks_started
      << " finished=" << stats.tasks_finished << " killed=" << stats.tasks_killed
      << " initiates-held=" << stats.initiates_held << "\n";
  out << "  forces: splits=" << stats.forcesplits << "\n";
  out << "  windows: reads=" << stats.window_reads
      << " writes=" << stats.window_writes << "\n";
  if (rt_->configuration().reliable.enabled) {
    out << "  reliable: sends=" << stats.reliable_sends
        << " retransmits=" << stats.retransmits
        << " dup-drops=" << stats.dup_drops << " acks=" << stats.acks_sent
        << " send-failures=" << stats.send_failures << "\n";
  }
  out << "  message heap: in-use=" << heap.in_use() << "/" << heap.capacity()
      << " peak=" << heap.peak_in_use() << " blocks=" << heap.live_blocks()
      << " failed-allocs=" << heap.failed_allocations() << "\n";
  auto& shared = rt_->machine().shared_memory();
  out << "  shared memory:";
  for (const auto& [label, bytes] : shared.by_label()) {
    out << " " << label << "=" << bytes;
  }
  out << "\n";
  const auto& ic = rt_->machine().interconnect();
  const auto totals = ic.totals();
  out << "  bus: transfers=" << totals.transfers << " busy=" << totals.busy_ticks
      << " waited=" << totals.wait_ticks << "\n";
  if (ic.bus_count() > 1) {
    for (std::size_t i = 0; i < ic.bus_count(); ++i) {
      const auto& b = ic.bus_at(i);
      out << "    " << ic.bus_label(i) << ": transfers=" << b.transfers()
          << " busy=" << b.busy_ticks() << " waited=" << b.wait_ticks()
          << " faulted=" << b.faulted_transfers() << "\n";
    }
  }
  for (const auto& cl : rt_->clusters()) {
    out << "  cluster " << cl->cfg.number << ": free-slots=" << cl->free_user_slots()
        << " held-initiates=" << cl->pending.size() << "\n";
  }
}

void ExecutionEnvironment::display_pe_loading(std::ostream& out) const {
  out << "PE LOADING t=" << rt_->engine().now() << "\n";
  auto& sys = rt_->system();
  const sim::Tick now = rt_->engine().now();
  for (const auto& k : sys.kernels()) {
    if (k->live_count() == 0 && k->dispatches() == 0) continue;
    out << "  PE " << std::setw(2) << k->pe() << ": live=" << k->live_count()
        << " ready=" << k->ready_count() << " dispatches=" << k->dispatches()
        << " util=" << std::fixed << std::setprecision(2)
        << 100.0 * k->utilization(now) << "% running="
        << (k->current() != nullptr ? k->current()->name() : std::string("-"))
        << "\n";
  }
}

void ExecutionEnvironment::change_trace(std::ostream& out,
                                        const std::string& kind_name_str,
                                        bool on) {
  if (const auto kind = known_kind(out, kind_name_str)) {
    rt_->tracer().set_kind(*kind, on);
    out << "trace " << kind_name_str << " " << (on ? "on" : "off") << "\n";
  }
}

void ExecutionEnvironment::change_trace_for_task(std::ostream& out,
                                                 rt::TaskId task,
                                                 const std::string& kind_name_str,
                                                 bool on) {
  if (const auto kind = known_kind(out, kind_name_str)) {
    rt_->tracer().set_task(task, *kind, on);
    out << "trace " << kind_name_str << " for " << task.str() << " "
        << (on ? "on" : "off") << "\n";
  }
}

void ExecutionEnvironment::display_organization(std::ostream& out) const {
  out << "PISCES 2 VIRTUAL MACHINE ORGANIZATION (configuration '"
      << rt_->configuration().name << "')\n";
  out << "+------------------------------------------------------------+\n";
  for (const auto& cl : rt_->clusters()) {
    out << "| CLUSTER " << cl->cfg.number << "  (primary PE " << cl->cfg.primary_pe
        << ", " << cl->cfg.slots << " user slots";
    if (cl->cfg.place != config::PlacePolicy::primary) {
      out << ", place " << config::place_policy_name(cl->cfg.place);
    }
    if (cl->dead) out << ", DEAD: primary PE halted";
    out << ")\n";
    for (std::size_t s = 0; s < cl->slots.size(); ++s) {
      const auto& rec = *cl->slots[s];
      out << "|   slot " << s << ": ";
      if (rec.state == rt::TaskState::free_slot) {
        if (s == rt::kTaskControllerSlot) out << "<task controller slot, idle>";
        else if (s == rt::kUserControllerSlot) out << "<no user controller>";
        else if (s == rt::kFileControllerSlot) out << "<no file controller>";
        else out << "<not in use>";
      } else {
        out << rec.tasktype << " " << rec.id.str();
        if (s >= rt::kFirstUserSlot) out << " @PE" << rec.pe;
        if (s == rt::kUserControllerSlot) out << " <-- terminal";
        if (s == rt::kFileControllerSlot) {
          out << " <-- disk PE "
              << rt_->windows().file_stores().at(cl->cfg.number).disk_pe;
        }
      }
      out << "\n";
    }
    if (!cl->cfg.secondary_pes.empty()) {
      out << "|   force PEs:";
      for (int pe : cl->cfg.secondary_pes) out << " " << pe;
      out << "\n";
    }
    out << "|------------------------------- intra-cluster network -----|\n";
  }
  out << "|            message-passing network (shared memory)         |\n";
  out << "+------------------------------------------------------------+\n";
  const auto& ic = rt_->machine().interconnect();
  out << "interconnect: " << flex::topology_name(ic.kind());
  if (ic.kind() != flex::Topology::shared) {
    out << " (" << ic.cluster_count() << " hardware clusters, "
        << ic.spec().pes_per_cluster << " PEs each)";
  }
  out << "\n";
  for (std::size_t i = 0; i < ic.bus_count(); ++i) {
    const auto& b = ic.bus_at(i);
    out << "  " << ic.bus_label(i) << ": transfers=" << b.transfers()
        << " busy=" << b.busy_ticks() << " waited=" << b.wait_ticks()
        << " faulted=" << b.faulted_transfers() << "\n";
  }
  out << "dead-letters: " << rt_->stats().dead_letters << "\n";
  if (const auto* fi = rt_->fault_injector()) {
    const auto& fs = fi->stats();
    out << "faults: pe-halts=" << fs.pe_halts << " bus-lost=" << fs.bus_lost
        << " bus-dup=" << fs.bus_duplicated << " bus-delayed=" << fs.bus_delayed
        << " heap-denials=" << fs.heap_denials
        << " disk-errors=" << fs.disk_errors << "\n";
  }
}

}  // namespace pisces::exec
