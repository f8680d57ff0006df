#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/runtime.hpp"
#include "sim/random.hpp"
#include "trace/sink.hpp"

namespace perfbench {

using namespace pisces;

namespace {

constexpr sim::Tick kTimeLimit = 50'000'000'000;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// SplitMix64 over (seed, stream): one decorrelated input stream per use.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// One assembled simulator: engine, machine, MMOS, PISCES runtime.
struct Rig {
  sim::Engine engine{sim::Backend::fibers};
  flex::Machine machine{engine};
  mmos::System system{machine};
  rt::Runtime runtime;

  explicit Rig(config::Configuration cfg) : runtime(system, std::move(cfg)) {}
};

/// Formats every record that passes the tracer's filter with
/// Record::format(), exactly as FileSink does, and folds the lines into a
/// byte count and a hash instead of writing them out.
class HashSink : public trace::Sink {
 public:
  void attach(Spans* spans) { spans_ = spans; }
  void emit(const trace::Record& r) override {
    Scope scope(spans_, Span::trace_format, nullptr);
    const std::string line = r.format();
    hash_ = fnv1a(hash_, line.data(), line.size());
    hash_ = fnv1a(hash_, "\n", 1);
    bytes_ += line.size() + 1;
    ++emitted_;
  }
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  Spans* spans_ = nullptr;
  std::uint64_t emitted_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t hash_ = kFnvBasis;
};

/// A task body's calls into the runtime, each inside its layer's span.
class Calls {
 public:
  Calls(Spans* spans, rt::TaskContext& ctx, std::uint64_t& sends)
      : spans_(spans), ctx_(&ctx), owner_(&ctx.proc()), sends_(&sends) {}

  bool send(rt::Dest dest, std::string type, std::vector<rt::Value> args) {
    ++*sends_;
    return timed(spans_, Span::send, owner_, [&] {
      return ctx_->send(dest, std::move(type), std::move(args));
    });
  }
  rt::AcceptResult accept(rt::AcceptSpec spec) {
    return timed(spans_, Span::accept, owner_,
                 [&] { return ctx_->accept(std::move(spec)); });
  }
  void initiate(rt::Where where, std::string type,
                std::vector<rt::Value> args = {}) {
    timed(spans_, Span::initiate, owner_, [&] {
      ctx_->initiate(where, std::move(type), std::move(args));
    });
  }
  void compute(sim::Tick ticks) {
    timed(spans_, Span::compute, owner_, [&] { ctx_->compute(ticks); });
  }
  void forcesplit(const std::function<void(rt::ForceContext&)>& region) {
    timed(spans_, Span::forcesplit, owner_, [&] { ctx_->forcesplit(region); });
  }
  rt::Matrix window_read(const rt::Window& w) {
    return timed(spans_, Span::window_read, owner_,
                 [&] { return ctx_->window_read(w); });
  }
  void window_write(const rt::Window& w, const rt::Matrix& data) {
    timed(spans_, Span::window_write, owner_,
          [&] { ctx_->window_write(w, data); });
  }

 private:
  Spans* spans_;
  rt::TaskContext* ctx_;
  const void* owner_;
  std::uint64_t* sends_;
};

/// Host timestamps of workload-step ends, taken in the application.
class StepClock {
 public:
  explicit StepClock(std::size_t expected) { stamps_.reserve(expected + 1); }
  void tick() { stamps_.push_back(now_ns()); }
  [[nodiscard]] std::vector<double> step_us() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < stamps_.size(); ++i) {
      out.push_back(static_cast<double>(stamps_[i] - stamps_[i - 1]) * 1e-3);
    }
    return out;
  }

 private:
  std::vector<std::int64_t> stamps_;
};

config::Configuration base_config(int clusters) {
  config::Configuration cfg = config::Configuration::simple(clusters);
  cfg.time_limit = kTimeLimit;
  return cfg;
}

/// Run the booted simulation to completion, untraced through
/// Runtime::run(), traced by stepping the engine under `spans`. False when
/// the run hit the configured time limit.
bool drive(Rig& rig, Spans* spans, HashSink& sink, RunResult& out) {
  const std::int64_t t0 = now_ns();
  bool completed = false;
  if (spans == nullptr) {
    rig.runtime.run();
    completed = !rig.runtime.timed_out();
  } else {
    sink.attach(spans);
    while (rig.engine.pending_events() > 0) {
      spans->begin_step();
      rig.engine.step();
      spans->end_step();
    }
    sink.attach(nullptr);
    completed = rig.engine.now() <= rig.runtime.configuration().time_limit;
  }
  out.run_s = seconds_since(t0);
  if (spans != nullptr) {
    out.spans = spans->totals();
    out.open_span_owners = spans->open_owners();
  }
  return completed;
}

/// Fill the digest and the per-layer counters from the finished run.
void collect(Rig& rig, const HashSink& sink, RunResult& out) {
  rig.engine.reap_finished();  // so live + reaped counts every process spawned
  auto add = [&out](std::string name, std::uint64_t v) {
    out.digest.emplace_back(std::move(name), v);
  };
  const rt::RuntimeStats& s = rig.runtime.stats();
  const auto ticks = static_cast<std::uint64_t>(out.sim_ticks);
  const std::uint64_t processes =
      rig.engine.live_process_count() + rig.engine.reaped_process_count();
  add("sim.completion_tick", ticks);
  add("sim.final_tick", static_cast<std::uint64_t>(rig.engine.now()));
  add("sim.events", rig.engine.events_fired());
  add("sim.processes", processes);
#define PERFBENCH_STAT(field) add("rt." #field, s.field)
  PERFBENCH_STAT(messages_sent);
  PERFBENCH_STAT(messages_accepted);
  PERFBENCH_STAT(broadcast_copies);
  PERFBENCH_STAT(initiates_requested);
  PERFBENCH_STAT(initiates_held);
  PERFBENCH_STAT(tasks_started);
  PERFBENCH_STAT(tasks_finished);
  PERFBENCH_STAT(tasks_killed);
  PERFBENCH_STAT(accept_timeouts);
  PERFBENCH_STAT(dead_letters);
  PERFBENCH_STAT(heap_full_waits);
  PERFBENCH_STAT(window_reads);
  PERFBENCH_STAT(window_writes);
  PERFBENCH_STAT(forcesplits);
  PERFBENCH_STAT(controller_unknown_messages);
  PERFBENCH_STAT(messages_deleted);
  PERFBENCH_STAT(message_bytes_sent);
  PERFBENCH_STAT(childterms_posted);
  PERFBENCH_STAT(window_retries);
  PERFBENCH_STAT(initiates_migrated);
  PERFBENCH_STAT(messages_migrated);
  PERFBENCH_STAT(reliable_sends);
  PERFBENCH_STAT(reliable_copies_sent);
  PERFBENCH_STAT(reliable_copies_lost);
  PERFBENCH_STAT(reliable_copies_arrived);
  PERFBENCH_STAT(reliable_delivered);
  PERFBENCH_STAT(reliable_dead_letters);
  PERFBENCH_STAT(retransmits);
  PERFBENCH_STAT(dup_drops);
  PERFBENCH_STAT(acks_sent);
  PERFBENCH_STAT(send_failures);
#undef PERFBENCH_STAT

  std::uint64_t dispatches = 0;
  std::uint64_t busy = 0;
  std::uint64_t busy_max = 0;
  for (const auto& k : rig.system.kernels()) {
    dispatches += k->dispatches();
    busy += static_cast<std::uint64_t>(k->busy_ticks());
    busy_max = std::max(busy_max, static_cast<std::uint64_t>(k->busy_ticks()));
  }
  add("mmos.dispatches", dispatches);
  add("mmos.busy_ticks", busy);
  add("mmos.busy_max", busy_max);

  const flex::Interconnect& ic = rig.machine.interconnect();
  const flex::Interconnect::Totals bus = ic.totals();
  add("flex.bus.transfers", bus.transfers);
  add("flex.bus.busy_ticks", static_cast<std::uint64_t>(bus.busy_ticks));
  add("flex.bus.wait_ticks", static_cast<std::uint64_t>(bus.wait_ticks));
  add("flex.bus.faulted", bus.faulted_transfers);
  const flex::SharedHeap& heap = rig.runtime.message_heap();
  add("flex.heap.allocs", heap.total_allocations());
  add("flex.heap.failed", heap.failed_allocations());
  add("flex.heap.peak_bytes", heap.peak_in_use());
  add("flex.heap.in_use_end", heap.in_use());
  add("flex.heap.free_blocks_end", heap.free_block_count());
  add("flex.heap.largest_free_end", heap.largest_free_block());
  if (const flex::FaultInjector* f = rig.runtime.fault_injector()) {
    add("flex.fault.bus_lost", f->stats().bus_lost);
    add("flex.fault.bus_duplicated", f->stats().bus_duplicated);
  }

  std::uint64_t records = 0;
  for (int k = 0; k < trace::kEventKindCount; ++k) {
    const auto kind = static_cast<trace::EventKind>(k);
    const std::uint64_t n = rig.runtime.tracer().count(kind);
    records += n;
    add("trace.count." + std::string(trace::kind_name(kind)), n);
  }
  add("trace.emitted", sink.emitted());
  add("trace.bytes", sink.bytes());
  add("trace.line_hash", sink.hash());

  auto put = [&out](const char* name, double v) { out.counters.emplace_back(name, v); };
  const double dticks = static_cast<double>(std::max<std::uint64_t>(ticks, 1));
  const double accepted = static_cast<double>(std::max<std::uint64_t>(s.messages_accepted, 1));
  put("sim.events", static_cast<double>(rig.engine.events_fired()));
  put("sim.events_per_msg", static_cast<double>(rig.engine.events_fired()) / accepted);
  put("sim.processes", static_cast<double>(processes));
  put("mmos.dispatches", static_cast<double>(dispatches));
  put("mmos.busy_ticks", static_cast<double>(busy));
  put("mmos.util_max", static_cast<double>(busy_max) / dticks);
  put("core.msgs_sent", static_cast<double>(s.messages_sent));
  put("core.msg_bytes", static_cast<double>(s.message_bytes_sent));
  put("core.heap_full_waits", static_cast<double>(s.heap_full_waits));
  put("core.dead_letters", static_cast<double>(s.dead_letters));
  put("core.reliable.sends", static_cast<double>(s.reliable_sends));
  put("core.reliable.copies_sent", static_cast<double>(s.reliable_copies_sent));
  put("core.reliable.delivered", static_cast<double>(s.reliable_delivered));
  put("core.reliable.retransmits", static_cast<double>(s.retransmits));
  put("core.reliable.acks", static_cast<double>(s.acks_sent));
  put("core.reliable.dup_drops", static_cast<double>(s.dup_drops));
  put("core.reliable.send_failures", static_cast<double>(s.send_failures));
  put("core.reliable.useful_ratio",
      s.reliable_copies_sent == 0
          ? 0.0
          : static_cast<double>(s.reliable_delivered) /
                static_cast<double>(s.reliable_copies_sent));
  put("core.force.barriers",
      static_cast<double>(rig.runtime.tracer().count(trace::EventKind::barrier_enter)));
  put("flex.bus.transfers", static_cast<double>(bus.transfers));
  put("flex.bus.busy_ticks", static_cast<double>(bus.busy_ticks));
  put("flex.bus.wait_ticks", static_cast<double>(bus.wait_ticks));
  put("flex.bus.faulted", static_cast<double>(bus.faulted_transfers));
  put("flex.bus.util", static_cast<double>(bus.busy_ticks) /
                           (dticks * static_cast<double>(ic.bus_count())));
  put("flex.heap.allocs", static_cast<double>(heap.total_allocations()));
  put("flex.heap.failed", static_cast<double>(heap.failed_allocations()));
  put("flex.heap.peak_bytes", static_cast<double>(heap.peak_in_use()));
  put("flex.heap.frag_end", heap.fragmentation());
  put("trace.records", static_cast<double>(records));
  put("trace.emitted", static_cast<double>(sink.emitted()));
  put("trace.bytes", static_cast<double>(sink.bytes()));

  out.failures = s.dead_letters + s.send_failures + s.accept_timeouts;
}

/// What the task bodies of one run report back to the harness.
struct AppState {
  explicit AppState(std::size_t expected_steps) : steps(expected_steps) {}
  std::uint64_t sends = 0;  ///< application sends attempted
  sim::Tick done_at = 0;    ///< tick at which the master finished
  StepClock steps;
};

/// The shared skeleton of every workload run: time set-up from Engine
/// construction through boot() and the first user_initiate of "master",
/// run, collect. `install(rig, spans, app)` registers the tasktypes;
/// `check(out)` runs the workload's output checks.
template <typename Install, typename Check>
RunResult run_program(const config::Configuration& cfg, Mode mode,
                      std::size_t expected_steps, Install&& install,
                      Check&& check) {
  RunResult out;
  AppState app(expected_steps);
  // The sink and the spans outlive the rig: a body unwinding at shutdown
  // may still emit a record or close a span.
  HashSink sink;
  std::optional<Spans> spans;
  const std::int64_t t0 = now_ns();
  auto rig = std::make_unique<Rig>(cfg);
  if (mode == Mode::traced) spans.emplace(rig->engine);
  Spans* traced = spans ? &*spans : nullptr;
  rig->runtime.tracer().add_sink(&sink);
  install(*rig, traced, app);
  rig->runtime.boot();
  rig->runtime.user_initiate(1, "master");
  out.setup_s = seconds_since(t0);
  if (mode == Mode::setup_only) return out;

  const bool completed = drive(*rig, traced, sink, out);
  out.sim_ticks = app.done_at;
  out.app_sends = app.sends;
  out.step_us = app.steps.step_us();
  collect(*rig, sink, out);
  if (!completed) {
    out.problem = "run hit the configured time limit";
  } else if (app.done_at == 0) {
    out.problem = "master did not finish";
  }
  if (out.problem.empty()) check(out);
  return out;
}

// ---------------------------------------------------------------------------
// pingpong: two tasks on clusters 1 and 2 pass one small message back and
// forth, one outstanding at a time. Reliable transport and tracing off.
// ---------------------------------------------------------------------------

struct PingPongInput {
  int rounds = 0;
  std::vector<std::int64_t> values;  ///< the payload of each round
};

PingPongInput make_pingpong(std::uint64_t seed) {
  sim::Rng rng(mix(seed, 1));
  PingPongInput in;
  in.rounds = 200'000 + static_cast<int>(rng.below(1000));
  in.values.resize(static_cast<std::size_t>(in.rounds));
  for (auto& v : in.values) v = rng.range(0, std::int64_t{1} << 40);
  return in;
}

RunResult pingpong(const PingPongInput& in, Mode mode) {
  std::int64_t echoed = 0;
  std::int64_t mismatches = 0;
  auto install = [&](Rig& rig, Spans* spans, AppState& app) {
    rig.runtime.register_tasktype("echo", [&in, &app, spans](rt::TaskContext& ctx) {
      Scope body(spans, Span::app, &ctx.proc());
      Calls call(spans, ctx, app.sends);
      std::int64_t v = 0;
      ctx.on_message("ping", [&v, spans](rt::TaskContext& c, const rt::Message& m) {
        Scope handler(spans, Span::app, &c.proc());
        v = m.args.at(0).as_int();
      });
      call.send(rt::Dest::Parent(), "hello", {rt::Value(ctx.self())});
      for (int i = 0; i < in.rounds; ++i) {
        call.accept(rt::AcceptSpec{}.of("ping").forever());
        call.send(rt::Dest::Parent(), "pong", {rt::Value(v + 1)});
      }
    });
    rig.runtime.register_tasktype("master", [&, spans](rt::TaskContext& ctx) {
      Scope body(spans, Span::app, &ctx.proc());
      Calls call(spans, ctx, app.sends);
      rt::TaskId peer{};
      std::int64_t got = 0;
      ctx.on_message("hello", [&peer, spans](rt::TaskContext& c, const rt::Message& m) {
        Scope handler(spans, Span::app, &c.proc());
        peer = m.args.at(0).as_taskid();
      });
      ctx.on_message("pong", [&got, spans](rt::TaskContext& c, const rt::Message& m) {
        Scope handler(spans, Span::app, &c.proc());
        got = m.args.at(0).as_int();
      });
      call.initiate(rt::Where::Cluster(2), "echo");
      call.accept(rt::AcceptSpec{}.of("hello").forever());
      app.steps.tick();
      for (const std::int64_t v : in.values) {
        call.send(rt::Dest::To(peer), "ping", {rt::Value(v)});
        call.accept(rt::AcceptSpec{}.of("pong").forever());
        if (got != v + 1) ++mismatches;
        ++echoed;
        app.steps.tick();
      }
      app.done_at = ctx.runtime().engine().now();
    });
  };
  auto check = [&](RunResult& out) {
    if (mismatches != 0) {
      out.problem = std::to_string(mismatches) + " echoed values differ";
    } else if (echoed != in.rounds) {
      out.problem = "round count " + std::to_string(echoed) + " != " +
                    std::to_string(in.rounds);
    }
  };
  return run_program(base_config(2), mode, static_cast<std::size_t>(in.rounds),
                     install, check);
}

// ---------------------------------------------------------------------------
// farm_reliable: a master on cluster 1 keeps 16 workers busy, 4 per PE on
// clusters 2-5, one ~4 KB work unit each per round; every unit returns a
// ~4 KB result. Reliable transport on, with seeded bus loss and duplication.
// ---------------------------------------------------------------------------

constexpr int kFarmWorkers = 16;
constexpr std::size_t kFarmPayloadWords = 512;  // 4 KB of REALs
constexpr std::size_t kFarmPayloadPool = 64;

struct FarmInput {
  int rounds = 0;
  std::vector<sim::Tick> costs;           ///< compute ticks of each unit
  std::vector<std::vector<double>> pool;  ///< unit u carries pool[u % size]
  std::uint64_t fault_seed = 1;
};

FarmInput make_farm(std::uint64_t seed) {
  sim::Rng rng(mix(seed, 2));
  FarmInput in;
  in.rounds = 3'000 + static_cast<int>(rng.below(16));
  in.costs.resize(static_cast<std::size_t>(in.rounds) * kFarmWorkers);
  for (auto& c : in.costs) c = rng.range(4'000, 12'000);
  in.pool.resize(kFarmPayloadPool);
  for (auto& p : in.pool) {
    p.resize(kFarmPayloadWords);
    for (double& x : p) x = rng.unit() * 1000.0;
  }
  in.fault_seed = mix(seed, 3);
  return in;
}

RunResult farm_reliable(const FarmInput& in, Mode mode) {
  const std::size_t units = in.costs.size();
  std::vector<std::uint8_t> seen;
  std::uint64_t id_sum = 0;
  std::uint64_t bad_results = 0;

  config::Configuration cfg = base_config(5);
  cfg.reliable.enabled = true;
  cfg.faults.seed = in.fault_seed;
  cfg.faults.bus_loss = 0.01;
  cfg.faults.bus_duplication = 0.005;

  auto install = [&](Rig& rig, Spans* spans, AppState& app) {
    seen.assign(units, 0);
    rig.runtime.register_tasktype("worker", [&app, spans](rt::TaskContext& ctx) {
      Scope body(spans, Span::app, &ctx.proc());
      Calls call(spans, ctx, app.sends);
      std::int64_t id = 0;
      sim::Tick cost = 0;
      std::vector<double> payload;
      ctx.on_message("unit", [&, spans](rt::TaskContext& c, const rt::Message& m) {
        Scope handler(spans, Span::app, &c.proc());
        id = m.args.at(0).as_int();
        cost = m.args.at(1).as_int();
        payload = m.args.at(2).as_real_array();
      });
      call.send(rt::Dest::Parent(), "hello", {rt::Value(ctx.self())});
      while (true) {
        call.accept(rt::AcceptSpec{}.of("unit").forever());
        if (id < 0) break;
        call.compute(cost);
        std::vector<double> result(payload.size());
        for (std::size_t i = 0; i < payload.size(); ++i) result[i] = 2.0 * payload[i];
        call.send(rt::Dest::Parent(), "result", {rt::Value(id), rt::Value(std::move(result))});
      }
    });
    rig.runtime.register_tasktype("master", [&, spans](rt::TaskContext& ctx) {
      Scope body(spans, Span::app, &ctx.proc());
      Calls call(spans, ctx, app.sends);
      std::vector<rt::TaskId> kids;
      ctx.on_message("hello", [&kids, spans](rt::TaskContext& c, const rt::Message& m) {
        Scope handler(spans, Span::app, &c.proc());
        kids.push_back(m.args.at(0).as_taskid());
      });
      ctx.on_message("result", [&, spans](rt::TaskContext& c, const rt::Message& m) {
        Scope handler(spans, Span::app, &c.proc());
        const std::int64_t id = m.args.at(0).as_int();
        if (id < 0 || static_cast<std::size_t>(id) >= units ||
            seen[static_cast<std::size_t>(id)]++ != 0) {
          ++bad_results;
          return;
        }
        id_sum += static_cast<std::uint64_t>(id);
        const auto& got = m.args.at(1).as_real_array();
        const auto& sent = in.pool[static_cast<std::size_t>(id) % in.pool.size()];
        bool same = got.size() == sent.size();
        for (std::size_t i = 0; same && i < got.size(); ++i) same = got[i] == 2.0 * sent[i];
        if (!same) ++bad_results;
      });
      for (int c = 2; c <= 5; ++c) {
        for (int k = 0; k < kFarmWorkers / 4; ++k) {
          call.initiate(rt::Where::Cluster(c), "worker");
        }
      }
      call.accept(rt::AcceptSpec{}.of("hello", kFarmWorkers).forever());
      // Hand out units by taskid, not by hello arrival order, which a lost
      // hello would change for the whole run.
      std::sort(kids.begin(), kids.end());
      app.steps.tick();
      for (int r = 0; r < in.rounds; ++r) {
        for (int k = 0; k < kFarmWorkers; ++k) {
          const auto u = static_cast<std::size_t>(r) * kFarmWorkers + static_cast<std::size_t>(k);
          call.send(rt::Dest::To(kids[static_cast<std::size_t>(k)]), "unit",
                    {rt::Value(static_cast<std::int64_t>(u)), rt::Value(in.costs[u]),
                     rt::Value(in.pool[u % in.pool.size()])});
        }
        call.accept(rt::AcceptSpec{}.of("result", kFarmWorkers).forever());
        app.steps.tick();
      }
      for (const rt::TaskId kid : kids) {
        call.send(rt::Dest::To(kid), "unit",
                  {rt::Value(-1), rt::Value(0), rt::Value(std::vector<double>{})});
      }
      app.done_at = ctx.runtime().engine().now();
    });
  };
  auto check = [&](RunResult& out) {
    const auto stat = [&out](const std::string& name) {
      for (const auto& [k, v] : out.digest) {
        if (k == name) return v;
      }
      throw std::logic_error("no digest entry " + name);
    };
    const std::size_t once = static_cast<std::size_t>(std::count(seen.begin(), seen.end(), 1));
    if (bad_results != 0 || once != units) {
      out.problem = std::to_string(bad_results) + " bad results, " +
                    std::to_string(units - once) + " units not accepted exactly once";
    } else if (id_sum != units * (units - 1) / 2) {
      out.problem = "sum of unit ids does not match n(n-1)/2";
    } else if (stat("rt.reliable_copies_sent") !=
               stat("rt.reliable_copies_lost") + stat("rt.reliable_copies_arrived")) {
      out.problem = "copies_sent != copies_lost + copies_arrived";
    } else if (stat("rt.reliable_copies_arrived") !=
               stat("rt.dup_drops") + stat("rt.reliable_delivered") +
                   stat("rt.reliable_dead_letters")) {
      out.problem = "copies_arrived != dup_drops + delivered + dead_letters";
    }
  };
  return run_program(cfg, mode, static_cast<std::size_t>(in.rounds), install, check);
}

// ---------------------------------------------------------------------------
// heat2d: examples/heat2d scaled up. 4 worker clusters, each a 3-member
// force; row-band windows from the master, halo messages, a FORCESPLIT /
// PRESCHED Jacobi sweep, window write-back. Every Section 12 event kind is
// traced into the HashSink.
// ---------------------------------------------------------------------------

struct HeatInput {
  int rows = 96;
  int cols = 64;
  int workers = 4;
  int sweeps = 0;
  std::vector<double> field;        ///< initial plate, row-major
  std::uint64_t expected_hash = 0;  ///< hash of the serial Jacobi result
};

std::uint64_t plate_hash(const std::vector<double>& plate) {
  return fnv1a(kFnvBasis, plate.data(), plate.size() * sizeof(double));
}

/// Serial Jacobi over the whole plate with the per-element arithmetic of
/// the band workers, so the two results are bit-for-bit equal.
std::vector<double> serial_jacobi(const HeatInput& in) {
  const int rows = in.rows;
  const int cols = in.cols;
  std::vector<double> cur = in.field;
  auto at = [cols](std::vector<double>& m, int i, int j) -> double& {
    return m[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols) +
             static_cast<std::size_t>(j)];
  };
  for (int s = 0; s < in.sweeps; ++s) {
    std::vector<double> next = cur;
    for (int i = 0; i < rows; ++i) {
      for (int j = 1; j + 1 < cols; ++j) {
        const double north = i > 0 ? at(cur, i - 1, j) : at(cur, 0, j);
        const double south = i + 1 < rows ? at(cur, i + 1, j) : at(cur, rows - 1, j);
        at(next, i, j) = 0.25 * (north + south + at(cur, i, j - 1) + at(cur, i, j + 1));
      }
    }
    cur = std::move(next);
  }
  return cur;
}

HeatInput make_heat(std::uint64_t seed) {
  sim::Rng rng(mix(seed, 4));
  HeatInput in;
  in.sweeps = 1'000 + static_cast<int>(rng.below(16));
  in.field.resize(static_cast<std::size_t>(in.rows) * static_cast<std::size_t>(in.cols));
  for (std::size_t k = 0; k < in.field.size(); ++k) {
    in.field[k] = k < static_cast<std::size_t>(in.cols) ? 100.0 : rng.unit() * 50.0;
  }
  in.expected_hash = plate_hash(serial_jacobi(in));
  return in;
}

RunResult heat2d(const HeatInput& in, Mode mode) {
  std::uint64_t got_hash = 0;

  config::Configuration cfg = base_config(in.workers + 1);
  int next_pe = 3 + in.workers + 1;
  for (int w = 1; w <= in.workers; ++w) {
    auto& cl = cfg.clusters[static_cast<std::size_t>(w)];
    for (int k = 0; k < 2; ++k) cl.secondary_pes.push_back(next_pe++);
  }
  for (int k = 0; k < trace::kEventKindCount; ++k) {
    cfg.trace.set(static_cast<trace::EventKind>(k), true);
  }

  auto install = [&](Rig& rig, Spans* spans, AppState& app) {
    rig.runtime.register_tasktype("worker", [&in, &app, spans](rt::TaskContext& ctx) {
      Scope body(spans, Span::app, &ctx.proc());
      Calls call(spans, ctx, app.sends);
      rt::Window band;
      rt::TaskId up;
      rt::TaskId down;
      ctx.on_message("band", [&, spans](rt::TaskContext& c, const rt::Message& m) {
        Scope handler(spans, Span::app, &c.proc());
        band = m.args.at(0).as_window();
        up = m.args.at(1).as_taskid();
        down = m.args.at(2).as_taskid();
      });
      call.send(rt::Dest::Parent(), "hello", {rt::Value(ctx.self())});
      call.accept(rt::AcceptSpec{}.of("band").forever());

      rt::Matrix mine = call.window_read(band);
      const int br = mine.rows();
      const int bc = mine.cols();
      std::vector<double> halo_up(static_cast<std::size_t>(bc), 0.0);
      std::vector<double> halo_dn(static_cast<std::size_t>(bc), 0.0);
      ctx.on_message("halo_from_up", [&, spans](rt::TaskContext& c, const rt::Message& m) {
        Scope handler(spans, Span::app, &c.proc());
        halo_up = m.args.at(0).as_real_array();
      });
      ctx.on_message("halo_from_down", [&, spans](rt::TaskContext& c, const rt::Message& m) {
        Scope handler(spans, Span::app, &c.proc());
        halo_dn = m.args.at(0).as_real_array();
      });
      const bool top = !up.valid();
      if (top) app.steps.tick();

      for (int sweep = 0; sweep < in.sweeps; ++sweep) {
        // Exchange halo rows with the neighbours that exist; per-type
        // counts, so a fast neighbour's next halo waits for the next sweep.
        rt::AcceptSpec spec;
        if (up.valid()) {
          call.send(rt::Dest::To(up), "halo_from_down",
                    {rt::Value(std::vector<double>(mine.data().begin(),
                                                   mine.data().begin() + bc))});
          spec.of("halo_from_up");
        }
        if (down.valid()) {
          call.send(rt::Dest::To(down), "halo_from_up",
                    {rt::Value(std::vector<double>(mine.data().end() - bc,
                                                   mine.data().end()))});
          spec.of("halo_from_down");
        }
        if (!spec.types.empty()) call.accept(spec.forever());

        // One Jacobi sweep over the band, as a force (PRESCHED over rows).
        rt::Matrix next = mine;
        call.forcesplit([&](rt::ForceContext& fc) {
          Scope member(spans, Span::app, &fc.proc());
          timed(spans, Span::presched, &fc.proc(), [&] {
            fc.presched(0, br - 1, 1, [&](std::int64_t row) {
              Scope stencil(spans, Span::app, &fc.proc());
              timed(spans, Span::compute, &fc.proc(), [&] { fc.compute(6 * bc); });
              const int i = static_cast<int>(row);
              for (int j = 1; j + 1 < bc; ++j) {
                const double north =
                    i > 0 ? mine.at(i - 1, j)
                          : (up.valid() ? halo_up[static_cast<std::size_t>(j)] : mine.at(0, j));
                const double south =
                    i + 1 < br ? mine.at(i + 1, j)
                               : (down.valid() ? halo_dn[static_cast<std::size_t>(j)]
                                               : mine.at(br - 1, j));
                next.at(i, j) = 0.25 * (north + south + mine.at(i, j - 1) + mine.at(i, j + 1));
              }
            });
          });
        });
        mine = std::move(next);
        if (top) app.steps.tick();
      }
      call.window_write(band, mine);
      call.send(rt::Dest::Parent(), "done", {});
    });

    rig.runtime.register_tasktype("master", [&, spans](rt::TaskContext& ctx) {
      Scope body(spans, Span::app, &ctx.proc());
      Calls call(spans, ctx, app.sends);
      auto& plate = ctx.local_array("plate", in.rows, in.cols);
      plate.data.data() = in.field;
      std::vector<rt::TaskId> kids;
      ctx.on_message("hello", [&kids, spans](rt::TaskContext& c, const rt::Message& m) {
        Scope handler(spans, Span::app, &c.proc());
        kids.push_back(m.args.at(0).as_taskid());
      });
      for (int w = 0; w < in.workers; ++w) {
        call.initiate(rt::Where::Cluster(2 + w), "worker");
      }
      call.accept(rt::AcceptSpec{}.of("hello", in.workers).forever());

      // Partition the plate into row bands by shrinking one window.
      const rt::Window whole = ctx.make_window("plate");
      const int band_rows = in.rows / in.workers;
      for (int w = 0; w < in.workers; ++w) {
        const int r0 = w * band_rows;
        const int nr = (w == in.workers - 1) ? in.rows - r0 : band_rows;
        const rt::Window band = whole.shrink(rt::Rect{r0, 0, nr, in.cols});
        const rt::TaskId up = w > 0 ? kids[static_cast<std::size_t>(w - 1)] : rt::TaskId{};
        const rt::TaskId down =
            w + 1 < in.workers ? kids[static_cast<std::size_t>(w + 1)] : rt::TaskId{};
        call.send(rt::Dest::To(kids[static_cast<std::size_t>(w)]), "band",
                  {rt::Value(band), rt::Value(up), rt::Value(down)});
      }
      call.accept(rt::AcceptSpec{}.of("done", in.workers).forever());
      got_hash = plate_hash(ctx.array_data("plate").data());
      app.done_at = ctx.runtime().engine().now();
    });
  };
  auto check = [&](RunResult& out) {
    out.digest.emplace_back("app.plate_hash", got_hash);
    if (got_hash != in.expected_hash) {
      out.problem = "plate differs from the serial Jacobi result";
    }
  };
  return run_program(cfg, mode, static_cast<std::size_t>(in.sweeps), install, check);
}

}  // namespace

std::uint64_t RunResult::digest_hash() const {
  std::uint64_t h = kFnvBasis;
  for (const auto& [name, value] : digest) {
    h = fnv1a(h, name.data(), name.size());
    h = fnv1a(h, &value, sizeof value);
  }
  return h;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"pingpong", "farm_reliable", "heat2d"};
  return names;
}

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "pingpong") {
    auto in = std::make_shared<const PingPongInput>(make_pingpong(seed));
    return Workload([in](Mode mode) { return pingpong(*in, mode); });
  }
  if (name == "farm_reliable") {
    auto in = std::make_shared<const FarmInput>(make_farm(seed));
    return Workload([in](Mode mode) { return farm_reliable(*in, mode); });
  }
  if (name == "heat2d") {
    auto in = std::make_shared<const HeatInput>(make_heat(seed));
    return Workload([in](Mode mode) { return heat2d(*in, mode); });
  }
  return std::nullopt;
}

}  // namespace perfbench
