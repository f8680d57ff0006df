#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "flex/shared_heap.hpp"
#include "mmos/proc.hpp"
#include "sim/time.hpp"

namespace pisces::rt {

class Runtime;
struct TaskRecord;

/// A SHARED COMMON block (Section 7): "An ordinary Fortran COMMON block,
/// but allocated in shared memory so that all force members see the same
/// block." Its storage is allocated in the SHARED COMMON area `heap`.
/// Element accesses through read/write charge shared-memory and bus costs;
/// raw() gives unmetered access for initialization, paired with
/// charge_bulk() to account a whole transfer at once.
class SharedBlock {
 public:
  SharedBlock(flex::SharedHeap& heap, std::string name, std::size_t words);
  ~SharedBlock();
  SharedBlock(const SharedBlock&) = delete;
  SharedBlock& operator=(const SharedBlock&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t words() const { return data_.size(); }
  [[nodiscard]] std::size_t bytes() const { return data_.size() * 8; }

  /// Metered element access from a force member.
  [[nodiscard]] double read(mmos::Proc& p, std::size_t idx);
  void write(mmos::Proc& p, std::size_t idx, double v);

  /// Unmetered view; use charge_bulk() to account the traffic explicitly.
  [[nodiscard]] std::span<double> raw() { return data_; }
  /// Charge the cost of moving `words` 64-bit words through shared memory.
  void charge_bulk(mmos::Proc& p, std::size_t words);

 private:
  flex::SharedHeap* heap_;
  std::string name_;
  std::vector<double> data_;
  std::size_t heap_offset_ = 0;
};

/// A LOCK variable (Section 7): "Variables whose values are 'locks' that may
/// be used to control entry and exit of CRITICAL statements." FIFO handoff;
/// lock/unlock events are traced. A waiter that is killed leaves the queue
/// as it unwinds, so the queue only holds processes still waiting; the
/// lock outlives every force member that can reach it (see
/// ForceState::task_locks).
class LockVar {
 public:
  LockVar(Runtime& rt, std::string name) : rt_(&rt), name_(std::move(name)) {}

  /// Block until the lock is held by `p`.
  void acquire(mmos::Proc& p, const TaskRecord& rec);
  /// Release; ownership passes to the longest-waiting acquirer, if any.
  void release(mmos::Proc& p, const TaskRecord& rec);

  [[nodiscard]] bool locked() const { return locked_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t contended_acquires() const { return contended_; }

 private:
  /// Pass ownership to the oldest waiter not killed, or unlock if none
  /// remain. A waiter killed but not yet unwound can never enter its
  /// critical section, so handing it the lock would deadlock everyone
  /// queued behind it.
  void hand_off();

  Runtime* rt_;
  std::string name_;
  bool locked_ = false;
  mmos::Proc* owner_ = nullptr;
  std::deque<mmos::Proc*> waiters_;
  std::uint64_t contended_ = 0;
};

/// State shared by the members of one force (one FORCESPLIT execution),
/// held by the primary's FORCESPLIT frame and by each member's body. It goes
/// when the whole force is done: after the primary's join, or, when a kill
/// ended the task first, once its last member has unwound. Going, it
/// releases the members' records, so they stay valid for as long as anyone
/// can reach them through `procs`.
struct ForceState {
  ForceState() = default;
  ForceState(const ForceState&) = delete;
  ForceState& operator=(const ForceState&) = delete;
  ~ForceState();

  int members = 1;
  TaskRecord* rec = nullptr;
  /// Index 0 is the primary, the task's own process: Runtime::finish_task
  /// releases it, after it has killed every member, so no member reaches it
  /// once it may be gone.
  std::vector<mmos::Proc*> procs;
  /// For the destructor: once the engine has shut down, nothing is
  /// released (the members' kernels may already be gone).
  sim::Engine* engine = nullptr;
  /// The task's LOCK variables when the task ended before its members had
  /// unwound (Runtime::finish_task hands them over): a member killed in a
  /// CRITICAL wait or body leaves its lock on the way out.
  std::map<std::string, std::unique_ptr<LockVar>> task_locks;

  // Combining-tree collectives (barrier/reduce): members form a k-ary tree
  // over member indices (member 1 at the root, node p's children are
  // k*p+1..k*p+k). Arrivals are gathered per node in a locally-polled
  // counter; only the root's generation publish crosses the global bus, so
  // a collective charges O(log_k members) serialized hops.
  int fanout = 4;  ///< Configuration::collective_fanout, >= 2
  std::uint64_t barrier_generation = 0;
  struct TreeNode {
    int arrived = 0;         ///< children of this node that have arrived
    bool gathering = false;  ///< node is blocked waiting for arrivals
  };
  std::vector<TreeNode> nodes;  ///< indexed by member - 1
  std::vector<double> partial;  ///< per-node partial reduction values
  double reduce_result = 0.0;

  // Self-scheduled loop occurrences, in program order. All members must
  // execute the same sequence of SELFSCHED loops (Jordan's force model).
  struct SelfschedLoop {
    std::int64_t next = 0;
    std::int64_t lo = 0;    ///< loop identity: members pairing to the same
    std::int64_t hi = 0;    ///< occurrence must be at the same source loop,
    std::int64_t step = 0;  ///< not merely share an iteration total
    std::int64_t total = 0;
  };
  std::vector<std::unique_ptr<SelfschedLoop>> loops;

  SelfschedLoop& loop(std::size_t occurrence, std::int64_t lo, std::int64_t hi,
                      std::int64_t step, std::int64_t total);
};

/// The API available to a force member inside a forcesplit region. Mirrors
/// the Pisces Fortran force constructs: BARRIER, CRITICAL, PRESCHED DO,
/// SELFSCHED DO, PARSEG, SHARED COMMON, LOCK.
class ForceContext {
 public:
  ForceContext(Runtime& rt, TaskRecord& rec, std::shared_ptr<ForceState> st,
               int member, mmos::Proc& proc)
      : rt_(&rt), rec_(&rec), st_(std::move(st)), member_(member), proc_(&proc) {}

  /// 1-based member index; member 1 is the primary (the original task).
  [[nodiscard]] int member() const { return member_; }
  [[nodiscard]] int members() const { return st_->members; }
  [[nodiscard]] bool is_primary() const { return member_ == 1; }
  [[nodiscard]] mmos::Proc& proc() { return *proc_; }

  /// Consume CPU on this member's PE.
  void compute(sim::Tick ticks) { proc_->compute(ticks); }

  /// BARRIER ... END BARRIER: all members pause; when all have arrived the
  /// *primary* executes `body` (may be null), then all continue.
  void barrier(const std::function<void(ForceContext&)>& body = nullptr);

  /// Combining operator for reduce/allreduce.
  enum class ReduceOp { sum, min, max };

  /// Tree reduction of one scalar per member: combines `value` across all
  /// members with `op` on the way up the barrier tree. Every member returns
  /// the combined result; the primary additionally deposits it into
  /// out[idx] with a metered shared write.
  double reduce(ReduceOp op, double value, SharedBlock& out, std::size_t idx);
  /// As reduce, without the SharedBlock deposit.
  double allreduce(ReduceOp op, double value);

  /// CRITICAL <lock> ... END CRITICAL.
  void critical(LockVar& lock, const std::function<void()>& body);

  /// PRESCHED DO: "in a force of N members, each member should take 1/N of
  /// the loop iterations. The Ith force member takes iterations I, N+I,
  /// 2*N+I, etc." Iterates i = lo, lo+step, ... while i <= hi (step > 0) or
  /// i >= hi (step < 0).
  void presched(std::int64_t lo, std::int64_t hi, std::int64_t step,
                const std::function<void(std::int64_t)>& body);

  /// SELFSCHED DO: "each force member takes the 'next' iteration when it
  /// arrives at the loop ... until all iterations are complete."
  void selfsched(std::int64_t lo, std::int64_t hi, std::int64_t step,
                 const std::function<void(std::int64_t)>& body);

  /// PARSEG / NEXTSEG / ENDSEG: parallel segments, distributed to members
  /// like a prescheduled loop over segment indices.
  void parseg(const std::vector<std::function<void()>>& segments);

  /// SHARED COMMON and LOCK declarations (delegate to the task's registry,
  /// so any member — or the task before splitting — may declare them).
  SharedBlock& shared_common(const std::string& name, std::size_t words);
  LockVar& lock_var(const std::string& name);

 private:
  static std::int64_t iteration_count(std::int64_t lo, std::int64_t hi,
                                      std::int64_t step);

  /// One collective episode over the member tree: gather arrivals (and,
  /// when `contribute` is non-null, partial values) up to the root, run
  /// `body` there, then release down the tree. Returns the reduction
  /// result (0 for plain barriers).
  double collective_sync(const std::function<void(ForceContext&)>& body,
                         const double* contribute, ReduceOp op);

  Runtime* rt_;
  TaskRecord* rec_;
  std::shared_ptr<ForceState> st_;
  int member_;
  mmos::Proc* proc_;
  std::size_t selfsched_seq_ = 0;
};

}  // namespace pisces::rt
