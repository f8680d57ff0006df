#pragma once

#include <iosfwd>
#include <string>

#include "core/runtime.hpp"

namespace pisces::exec {

/// The PISCES execution environment (Section 11): the menu-driven program
/// that controls a run on the MMOS PEs. All ten menu options are
/// implemented; displays are also exposed as plain methods so tests and
/// tools can call them without driving the menu.
///
///   0 TERMINATE THE RUN        5 DISPLAY RUNNING TASKS
///   1 INITIATE A TASK          6 DISPLAY MESSAGE QUEUE
///   2 KILL A TASK              7 DUMP SYSTEM STATE
///   3 SEND A MESSAGE           8 DISPLAY PE LOADING
///   4 DELETE MESSAGES          9 CHANGE TRACE OPTIONS
///
/// Between commands the environment advances the simulation by a
/// configurable step (the real system ran concurrently with the menu; here
/// virtual time advances explicitly and deterministically).
class ExecutionEnvironment {
 public:
  explicit ExecutionEnvironment(rt::Runtime& runtime) : rt_(&runtime) {}

  /// Read commands from `in`, write everything to `out`. Returns when the
  /// user picks 0 (terminate) or input ends. Each iteration advances the
  /// simulation by `step_ticks` before showing the menu.
  void repl(std::istream& in, std::ostream& out, sim::Tick step_ticks = 1'000'000);

  // ---- individual operations (menu numbers in comments) ----
  void show_menu(std::ostream& out) const;
  void initiate_task(std::ostream& out, int cluster, const std::string& tasktype,
                     const std::vector<rt::Value>& args = {});      // 1
  void kill_task(std::ostream& out, rt::TaskId id);                 // 2
  void send_message(std::ostream& out, rt::TaskId to,
                    const std::string& type,
                    const std::vector<rt::Value>& args = {});       // 3
  void delete_messages(std::ostream& out, rt::TaskId id,
                       const std::string& type);                    // 4
  void display_tasks(std::ostream& out) const;                      // 5
  void display_queue(std::ostream& out, rt::TaskId id) const;       // 6
  void dump_state(std::ostream& out) const;                         // 7
  void display_pe_loading(std::ostream& out) const;                 // 8
  void change_trace(std::ostream& out, const std::string& kind_name,
                    bool on);                                       // 9
  /// Per-task variant of option 9 ("Tracing may be turned on and off for
  /// each type of event and each task", Section 12).
  void change_trace_for_task(std::ostream& out, rt::TaskId task,
                             const std::string& kind_name, bool on);

  /// Render the virtual-machine organization (Figure 1) for the current
  /// configuration: clusters, slots, controllers, message network.
  void display_organization(std::ostream& out) const;

 private:
  rt::Runtime* rt_;
};

}  // namespace pisces::exec
