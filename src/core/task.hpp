#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "core/matrix.hpp"
#include "core/message.hpp"
#include "core/msg_queue.hpp"
#include "core/value.hpp"
#include "mmos/proc.hpp"

namespace pisces::rt {

class SharedBlock;
class LockVar;
struct ForceState;

enum class TaskState {
  free_slot,  ///< no task in this slot
  starting,   ///< controller has created the process, body not yet entered
  running,    ///< body executing
};

/// A task-local array registered with the run-time system so windows can
/// point into it. Lives in the owning PE's local memory.
struct LocalArray {
  std::uint32_t id = 0;
  std::string name;
  Matrix data;
};

/// The per-slot task record kept in the shared-memory system tables
/// (Section 11: "Each running task is represented by a record that contains
/// the 'state' information for the task, including pointers to the task's
/// in-queue, free space lists, trace flags, and so forth").
///
/// The record is reused when a new task runs in the slot; the `unique`
/// component of the taskid distinguishes incarnations, so stale taskids
/// held by other tasks never reach the wrong incarnation.
struct TaskRecord {
  TaskId id{};          ///< valid only while occupied
  std::string tasktype;
  TaskId parent{};
  TaskState state = TaskState::free_slot;
  mmos::Proc* proc = nullptr;
  int pe = 0;  ///< PE the task's process was placed on (see PlacePolicy)
  sim::Tick initiated_at = 0;

  MessageQueue in_queue;          ///< user-visible messages, arrival order
  std::vector<Message> replies;   ///< internal system replies (window service)

  std::vector<Value> init_args;   ///< arguments from the INITIATE statement

  // Window support: arrays this task owns.
  std::map<std::uint32_t, LocalArray> arrays;
  std::map<std::string, std::uint32_t> array_names;
  std::uint32_t next_array_id = 1;

  // Force support: shared COMMON blocks and LOCK variables, by name, and
  // the force the task is running, while it lasts (its members are killed
  // if the task ends mid-force).
  std::map<std::string, std::unique_ptr<SharedBlock>> shared_blocks;
  std::map<std::string, std::unique_ptr<LockVar>> locks;
  std::weak_ptr<ForceState> force;

  /// Modelled size of one task record in the shared system tables.
  static constexpr std::size_t kTableBytes = 64;
};

}  // namespace pisces::rt
