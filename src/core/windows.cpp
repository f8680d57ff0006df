#include "core/windows.hpp"

#include <algorithm>

#include "core/runtime.hpp"
#include "sim/backoff.hpp"

namespace pisces::rt {

namespace {
/// Window requests sent before giving up, when faults are enabled.
constexpr int kRequestAttempts = 4;
/// Disk passes (1 initial + retries) before an injected error surfaces.
constexpr int kDiskIoAttempts = 3;

/// A request being served: the controller answering, the task asking and
/// the id every reply carries first, with where the answer is posted and
/// counted.
struct Request {
  Transport* transport;
  RuntimeStats* stats;
  TaskId service;
  TaskId requester;
  std::int64_t id;

  void reply(mmos::Proc* proc, std::string type, std::vector<Value> args) const {
    transport->post(service, proc, requester, std::move(type), std::move(args),
                    /*to_reply_queue=*/true);
  }
  void refuse(mmos::Proc* proc, std::string reason) const {
    reply(proc, "_WINERR", {Value(id), Value(std::move(reason))});
  }
  /// The step both stores end with: copy `rect` out of `arr` (a read,
  /// `data` null) or paste `data` into it, and answer.
  void complete(mmos::Proc* proc, Matrix& arr, const Rect& rect,
                const std::vector<double>* data) const {
    if (data == nullptr) {
      Matrix part = fsim::copy_rect(arr, rect);
      ++stats->window_reads;
      reply(proc, "_WINDATA", {Value(id), Value(std::move(part.data()))});
      return;
    }
    Matrix part(rect.rows, rect.cols);
    part.data() = *data;
    fsim::paste_rect(arr, rect, part);
    ++stats->window_writes;
    reply(proc, "_WINACK", {Value(id)});
  }
};

/// The caller's own array under `w`, billed for a direct copy: a window on
/// the caller's own array sends no message.
Matrix& own_array(TaskContext& ctx, const Window& w) {
  auto& arrays = ctx.record().arrays;
  auto it = arrays.find(w.array);
  if (it == arrays.end()) throw WindowError("window names a dropped array");
  ctx.compute(static_cast<sim::Tick>(w.elements()) *
              ctx.proc().kernel().costs().local_access * 2);
  return it->second.data;
}

/// The in-memory array `w` names; null once its owner or the array is gone.
Matrix* task_array(Runtime& rt, const Window& w) {
  TaskRecord* owner = rt.find_record(w.owner);
  if (owner == nullptr) return nullptr;
  auto it = owner->arrays.find(w.array);
  return it == owner->arrays.end() ? nullptr : &it->second.data;
}

// The copy steps, the only part of serving a request that differs between
// the two stores. `data` is the payload of a write, null for a read.

/// The controller copies out of its own local memory, or pulls the window
/// across the bus when the owner's task was placed on another PE. The
/// charge blocks it, so the array is found again afterwards: the owner may
/// have been killed while the copy was in flight.
void copy_in_memory(Runtime& rt, TaskContext& ctl, const Request& rq,
                    const Window& w, int owner_pe, const std::vector<double>* data) {
  mmos::Proc& proc = ctl.proc();
  if (owner_pe != proc.pe()) {
    proc.charge_transfer(w.bytes(), owner_pe, proc.pe());
  } else {
    proc.compute(static_cast<sim::Tick>(w.elements()) *
                 proc.kernel().costs().local_access);
  }
  Matrix* arr = task_array(rt, w);
  if (arr == nullptr) {
    rq.refuse(&proc, "window owner " + w.owner.str() + " died during the transfer");
    return;
  }
  rq.complete(&proc, *arr, w.rect, data);
}

/// Overlap-aware scheduling: conflicting operations wait; disjoint ones
/// pipeline through the disk. The controller does not block on the disk:
/// the copy and the reply, or a typed error, happen at the tick the disk
/// finishes.
void copy_on_disk(Runtime& rt, flex::FaultInjector* faults, TaskContext& ctl,
                  const Request& rq, FileArrays& fa, const Window& w,
                  const std::vector<double>* data) {
  const bool is_write = data != nullptr;
  const std::string name = fa.names.at(w.array - 1);
  auto& sched = fa.schedulers[w.array];
  auto& disk = rt.machine().disk(fa.disk_pe);
  const sim::Tick now = rt.engine().now();
  sim::Tick done = disk.transfer(sched.earliest_start(w.rect, is_write, now), w.bytes());
  // Fault injection: each pass over the platter may fail; a failed pass
  // still occupied the disk, and the bounded retry re-runs the transfer.
  int failed_passes = 0;
  while (failed_passes < kDiskIoAttempts && faults != nullptr &&
         faults->plan().disk_error > 0.0 && faults->next_disk_error()) {
    disk.note_io_error();
    rt.trace_event(trace::EventKind::fault, rq.requester, rq.service, fa.disk_pe,
                   0, "disk-error " + name);
    if (++failed_passes < kDiskIoAttempts) done = disk.transfer(done, w.bytes());
  }
  const bool io_failed = failed_passes == kDiskIoAttempts;
  sched.record(w.rect, is_write, now, done);
  // Request bookkeeping.
  ctl.proc().compute(ctl.proc().kernel().costs().msg_accept_overhead);
  rt.engine().schedule(done, [rq, &fa, name, rect = w.rect, io_failed, is_write,
                              written = is_write ? *data : std::vector<double>{}] {
    if (io_failed) {
      rq.refuse(nullptr, "disk I/O error on '" + name + "'");
    } else {
      rq.complete(nullptr, fa.store.get(name), rect, is_write ? &written : nullptr);
    }
  });
}
}  // namespace

void Windows::attach(int cluster, fsim::FileStore store, int disk_pe) {
  files_[cluster] = FileArrays{std::move(store), disk_pe};
}

// ---- the requesting task ----

Message Windows::transact(TaskContext& ctx, TaskId service, const char* op,
                          const std::vector<Value>& args, const std::string& what) {
  // A fresh request id per attempt: a late reply to an abandoned attempt
  // must never satisfy a newer one. Abandoned replies sit in the replies
  // queue until task end, where finish_task releases their storage.
  const int attempts = faults_ != nullptr ? kRequestAttempts : 1;
  // Patience doubles per attempt, from the ACCEPT default; the cap is never
  // reached.
  const sim::Backoff patience{rt_->configuration().accept_default_timeout, 2.0};
  mmos::Proc& proc = ctx.proc();
  auto& replies = ctx.record().replies;
  for (int a = 1; a <= attempts; ++a) {
    const auto rid = static_cast<std::int64_t>(++next_request_id_);
    proc.compute(proc.kernel().costs().msg_send_overhead);
    std::vector<Value> request{Value(rid)};
    request.insert(request.end(), args.begin(), args.end());
    if (!transport_->post(ctx.self(), &proc, service, op, std::move(request))) {
      throw WindowError("window service unreachable for " + what);
    }
    const sim::Tick deadline = attempts == 1
                                   ? sim::kForever
                                   : rt_->engine().now() + patience.delay(a);
    // The reply carries the request id as its first argument.
    do {
      auto it = std::find_if(replies.begin(), replies.end(), [rid](const Message& m) {
        return !m.args.empty() && m.args[0].is_int() && m.args[0].as_int() == rid;
      });
      if (it != replies.end()) {
        Message m = std::move(*it);
        replies.erase(it);
        transport_->release_accepted(proc, m);
        if (m.type == "_WINERR") throw WindowError(m.args.at(1).as_str());
        return m;
      }
    } while (!proc.block_with_timeout(deadline));
    ++stats_->window_retries;
  }
  throw WindowError("no reply from window service for " + what + " after " +
                    std::to_string(attempts) + " attempts");
}

Window TaskContext::file_window(int cluster, const std::string& file_array) {
  const TaskId fc = rt_->cluster(cluster).slot(kFileControllerSlot).id;
  if (!fc.valid()) {
    throw WindowError("cluster " + std::to_string(cluster) +
                      " has no file controller");
  }
  return rt_->windows_
      .transact(*this, fc, "_FWIN", {Value(file_array)},
                "file array '" + file_array + "'")
      .args.at(1)
      .as_window();
}

Matrix TaskContext::window_read(const Window& w) {
  if (!w.valid()) throw WindowError("reading through an invalid window");
  if (w.owner == self()) return fsim::copy_rect(own_array(*this, w), w.rect);
  const TaskId service =
      w.is_file_window() ? w.owner : resolve(Dest::TContr(w.owner.cluster));
  const Message rep =
      rt_->windows_.transact(*this, service, "_WINREAD", {Value(w)}, w.owner.str());
  Matrix out(w.rect.rows, w.rect.cols);
  const auto& data = rep.args.at(1).as_real_array();
  if (data.size() != out.size()) throw WindowError("window read size mismatch");
  out.data() = data;
  return out;
}

void TaskContext::window_write(const Window& w, const Matrix& data) {
  if (!w.valid()) throw WindowError("writing through an invalid window");
  if (data.rows() != w.rect.rows || data.cols() != w.rect.cols) {
    throw WindowError("window write: data shape does not match the window");
  }
  if (w.owner == self()) {
    fsim::paste_rect(own_array(*this, w), w.rect, data);
    return;
  }
  const TaskId service =
      w.is_file_window() ? w.owner : resolve(Dest::TContr(w.owner.cluster));
  rt_->windows_.transact(*this, service, "_WINWRITE", {Value(w), Value(data.data())},
                         w.owner.str());
}

// ---- the service ----

bool Windows::serve(TaskContext& ctl, const Message& m) {
  const bool on_disk = ctl.self().slot == kFileControllerSlot;
  const bool is_write = m.type == "_WINWRITE";
  if (!is_write && m.type != "_WINREAD" && !(on_disk && m.type == "_FWIN")) {
    return false;
  }
  mmos::Proc& proc = ctl.proc();
  const Request rq{transport_, stats_, ctl.self(), m.sender, m.args.at(0).as_int()};
  FileArrays* fa = on_disk ? &files_.at(ctl.cluster()) : nullptr;
  if (m.type == "_FWIN") {
    // A window on a whole file array; the array's id is minted on first use.
    const std::string& name = m.args.at(1).as_str();
    if (!fa->store.exists(name)) {
      rq.refuse(&proc, "no file array '" + name + "'");
      return true;
    }
    auto it = std::find(fa->names.begin(), fa->names.end(), name);
    if (it == fa->names.end()) it = fa->names.insert(it, name);
    const auto id = static_cast<std::uint32_t>(it - fa->names.begin() + 1);
    const Matrix& arr = fa->store.get(name);
    const Window w{rq.service, id, Rect{0, 0, arr.rows(), arr.cols()}, arr.rows(),
                   arr.cols()};
    rq.reply(&proc, "_FWINDATA", {Value(rq.id), Value(w)});
    return true;
  }
  const Window w = m.args.at(1).as_window();
  // Find the array the window names (each store refuses a miss its own
  // way), then validate the request before the copy step: a refused
  // request must not be billed for a copy that never happens.
  const TaskRecord* owner = on_disk ? nullptr : rt_->find_record(w.owner);
  Matrix* arr = nullptr;
  std::string miss;
  if (on_disk) {
    if (w.array >= 1 && w.array <= fa->names.size()) {
      arr = &fa->store.get(fa->names[w.array - 1]);
    } else {
      miss = "unknown file array id " + std::to_string(w.array);
    }
  } else if (owner == nullptr) {
    miss = "window owner " + w.owner.str() + " is not running";
  } else if ((arr = task_array(*rt_, w)) == nullptr) {
    miss = "owner has no array id " + std::to_string(w.array);
  }
  if (arr == nullptr) {
    rq.refuse(&proc, std::move(miss));
  } else if (!w.rect.valid() || !Rect{0, 0, arr->rows(), arr->cols()}.contains(w.rect)) {
    rq.refuse(&proc, "window " + w.rect.str() +
                         (on_disk ? " outside file array" : " outside array"));
  } else if (is_write && m.args.at(2).as_real_array().size() != w.elements()) {
    rq.refuse(&proc, "write data size mismatch");
  } else {
    const std::vector<double>* data = is_write ? &m.args.at(2).as_real_array() : nullptr;
    if (on_disk) {
      copy_on_disk(*rt_, faults_, ctl, rq, *fa, w, data);
    } else {
      copy_in_memory(*rt_, ctl, rq, w, owner->pe, data);
    }
  }
  return true;
}

}  // namespace pisces::rt
