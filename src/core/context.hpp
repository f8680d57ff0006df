#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/accept.hpp"
#include "core/force.hpp"
#include "core/ids.hpp"
#include "core/task.hpp"
#include "core/window.hpp"

namespace pisces::rt {

class Runtime;
class TaskContext;

/// A HANDLER subroutine: "A message type with a 'handler' is processed by a
/// HANDLER subroutine before it is deleted from the in-queue ... Any
/// arguments that arrive in the message are provided to the handler"
/// (Section 6).
using Handler = std::function<void(TaskContext&, const Message&)>;

/// The body of a tasktype definition.
using TaskBody = std::function<void(TaskContext&)>;

/// Thrown by window operations that the owner rejects (dead owner, unknown
/// array, rectangle out of bounds).
class WindowError : public std::runtime_error {
 public:
  explicit WindowError(const std::string& what) : std::runtime_error(what) {}
};

/// The Pisces Fortran statement surface, as seen from inside a task. One
/// TaskContext exists per running task; the run-time library passes it to
/// the tasktype body.
class TaskContext {
 public:
  TaskContext(Runtime& rt, TaskRecord& rec, mmos::Proc& proc)
      : rt_(&rt), rec_(&rec), proc_(&proc) {}
  TaskContext(const TaskContext&) = delete;
  TaskContext& operator=(const TaskContext&) = delete;

  // ---- identity ----
  [[nodiscard]] TaskId self() const { return rec_->id; }
  [[nodiscard]] TaskId parent() const { return rec_->parent; }
  /// Taskid of the sender of the last accepted message.
  [[nodiscard]] TaskId sender() const { return sender_; }
  [[nodiscard]] int cluster() const { return rec_->id.cluster; }
  [[nodiscard]] const std::string& tasktype() const { return rec_->tasktype; }
  /// Arguments passed in the INITIATE statement.
  [[nodiscard]] const std::vector<Value>& args() const { return rec_->init_args; }

  // ---- ON <cluster> INITIATE <tasktype>(<args>) ----
  /// Asynchronous: sends an initiate request to the target cluster's task
  /// controller. The new task learns its parent; the parent learns the
  /// child's taskid only if the child sends it one (Section 6).
  void initiate(Where where, std::string tasktype, std::vector<Value> args = {});

  // ---- TO <taskid> SEND <type>(<args>) ----
  /// Returns false if the destination taskid no longer names a live task
  /// (the message is dropped; a dead-letter count is kept).
  bool send(Dest dest, std::string type, std::vector<Value> args = {});
  /// TO ALL [CLUSTER <n>] SEND: broadcast to every running user task (in
  /// one cluster, or everywhere), excluding this task. Copies fan out over
  /// a k-ary distribution tree (fan-out = Configuration::collective_fanout):
  /// the sender posts the first tree level itself, interior targets relay
  /// the rest. Returns the number of tasks in the broadcast snapshot — the
  /// tree commits to all of them; per-copy outcomes show up in the
  /// broadcast_copies and dead_letters statistics once delivery completes.
  int broadcast(std::string type, std::vector<Value> args = {},
                std::optional<int> cluster = std::nullopt);

  // ---- ACCEPT ----
  /// Declare a handler for a message type; types without handlers are
  /// "signal" types (counted only).
  void on_message(std::string type, Handler handler);
  AcceptResult accept(AcceptSpec spec);
  /// Queue length (messages waiting, not yet accepted).
  [[nodiscard]] std::size_t pending_messages() const { return rec_->in_queue.size(); }

  // ---- forces ----
  /// FORCESPLIT: replicate this task onto the cluster's secondary PEs and
  /// run `region` in every member (this task becomes member 1, the
  /// primary). Returns when every member has finished the region (implicit
  /// end barrier + join). With no secondary PEs the region simply runs
  /// inline ("no parallel splitting", Section 9).
  void forcesplit(const std::function<void(ForceContext&)>& region);
  SharedBlock& shared_common(const std::string& name, std::size_t words);
  LockVar& lock_var(const std::string& name);

  // ---- windows ----
  /// Register (or look up) a task-local 2-D array other tasks may window.
  LocalArray& local_array(const std::string& name, int rows, int cols);
  [[nodiscard]] Matrix& array_data(const std::string& name);
  /// A window covering the whole of one of this task's arrays.
  [[nodiscard]] Window make_window(const std::string& array_name) const;
  /// Ask cluster `cluster`'s file controller for a window on file array
  /// `file_array` (owner will be the file controller).
  Window file_window(int cluster, const std::string& file_array);
  /// Read/write the subarray visible in a window, "by sending a message to
  /// the owner". Local windows (owner == self) copy directly. These three
  /// are the requesting side of the window protocol (core/windows).
  Matrix window_read(const Window& w);
  void window_write(const Window& w, const Matrix& data);

  // ---- misc ----
  /// Consume CPU (the application's own work, in ticks).
  void compute(sim::Tick ticks) { proc_->compute(ticks); }
  /// Convenience: TO USER SEND _PRINT(text).
  void print(const std::string& text);

  [[nodiscard]] Runtime& runtime() { return *rt_; }
  [[nodiscard]] mmos::Proc& proc() { return *proc_; }
  [[nodiscard]] TaskRecord& record() { return *rec_; }

  // ---- controller-level interface (used by the built-in controllers) ----
  /// Block until any message arrives, then pop and return it (charging
  /// accept costs). Used by controller service loops.
  Message wait_any_message();

 private:
  /// Take an accepted message out of storage, make its sender SENDER,
  /// count it and trace MSG-ACCEPT.
  void take_accepted(const Message& msg);
  /// Process one matched message (handler or signal); updates result.
  void consume(Message msg, AcceptResult& res);
  [[nodiscard]] TaskId resolve(const Dest& dest) const;

  Runtime* rt_;
  TaskRecord* rec_;
  mmos::Proc* proc_;
  TaskId sender_{};
  std::map<std::string, Handler> handlers_;
  bool in_accept_ = false;
};

}  // namespace pisces::rt
