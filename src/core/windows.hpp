#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/message.hpp"
#include "flex/fault.hpp"
#include "fsim/file_store.hpp"
#include "fsim/rw_scheduler.hpp"

namespace pisces::rt {

class Runtime;
class TaskContext;
class Transport;
struct RuntimeStats;

/// A cluster's file-controller state: the attached store, the disk that
/// holds it, the arrays windowed so far (array id n names names[n - 1]),
/// and one overlap-aware scheduler per array id.
struct FileArrays {
  fsim::FileStore store;
  int disk_pe = 1;
  std::vector<std::string> names{};
  std::map<std::uint32_t, fsim::RwScheduler> schedulers{};
};

/// The window protocol (Section 8): a task reads or writes the subarray a
/// window shows "by sending a message to the owner". Both ends live in
/// this unit: the requesting task's side (TaskContext::file_window,
/// window_read and window_write are defined in windows.cpp) and the service
/// run by task controllers, for arrays in their tasks' memory, and by file
/// controllers, for arrays on disk. Replies travel through the transport
/// to the requester's reply queue.
class Windows {
 public:
  Windows(Runtime& rt, Transport& transport, RuntimeStats& stats)
      : rt_(&rt), transport_(&transport), stats_(&stats) {}
  Windows(const Windows&) = delete;
  Windows& operator=(const Windows&) = delete;

  /// Give `cluster` a file store on the disk of `disk_pe` (before boot).
  void attach(int cluster, fsim::FileStore store, int disk_pe);
  /// The attached file stores, by cluster number.
  [[nodiscard]] const std::map<int, FileArrays>& file_stores() const {
    return files_;
  }
  /// The run's fault injector (boot); null on fault-free runs.
  void set_fault_injector(flex::FaultInjector* faults) { faults_ = faults; }

  /// The requesting task's side: send `op` to `service` with a fresh
  /// request id ahead of `args` and wait for the reply, throwing
  /// WindowError when the service refuses. Fault-free runs send once and
  /// wait forever (the service always answers); under fault injection the
  /// request is retried with a doubling patience window, then fails.
  Message transact(TaskContext& ctx, TaskId service, const char* op,
                   const std::vector<Value>& args, const std::string& what);

  /// The service: serve `m` if it is a window request for the controller
  /// running `ctl`; false when it is not one.
  bool serve(TaskContext& ctl, const Message& m);

 private:
  Runtime* rt_;
  Transport* transport_;
  RuntimeStats* stats_;
  flex::FaultInjector* faults_ = nullptr;
  std::map<int, FileArrays> files_;
  std::uint64_t next_request_id_ = 0;
};

}  // namespace pisces::rt
