#include "config/menu.hpp"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>

#include "config/line_reader.hpp"

namespace pisces::config {

namespace {

/// The commands whose arguments are the values of a saved line: each reads
/// them through read_line() under the saved key.
struct SavedLine {
  const char* command;
  const char* key;
  const char* usage;
};
constexpr SavedLine kSavedLines[] = {
    {"timelimit", "timelimit", "timelimit <ticks>"},
    {"heap", "heap", "heap <bytes>"},
    {"fanout", "collective-fanout", "fanout <k>  (k >= 2)"},
    {"fault seed", "fault-seed", "fault seed <n>"},
    {"fault halt", "fault-halt", "fault halt <pe> <tick>"},
    {"fault bus", "fault-bus",
     "fault bus <loss> <dup> <delay-prob> <delay-ticks>\n"
     "  (one draw per transfer picks at most one fault, so the\n"
     "   probabilities must sum to <= 1; with `reliable on`, loss\n"
     "   and duplication still compose across retries of one send)"},
    {"fault heap", "fault-heap", "fault heap <from> <until>"},
    {"fault disk", "fault-disk", "fault disk <prob>"},
    {"fault slow", "fault-slow", "fault slow <pe> <from> <until> <factor>"},
    {"fault partition", "fault-partition",
     "fault partition <cluster-a> <cluster-b> <from> <until>"},
    {"fault recover", "fault-recover", "fault recover <pe> <tick>"},
};

/// The value of `key` as a flag: "on" or "off"; anything else fails the line.
bool on_off(LineReader& r, const std::string& key) {
  std::string setting;
  r.values(key, setting);
  if (setting != "on" && setting != "off") {
    r.fail("expected on or off, got '" + setting + "'");
  }
  return setting == "on";
}

}  // namespace

bool ConfigMenu::apply(const std::string& line, std::ostream& out) {
  // Commands edit `next`, which replaces cfg_ only after the whole line has
  // parsed and the knob check at the end has passed; every refusal throws.
  LineReader r(line, "");
  std::string cmd = r.next().value_or("");
  if (cmd.empty()) return true;
  std::string usage;  // set by each command before it reads its arguments
  Configuration next = cfg_;
  // The cluster whose number `key` reads, added on the next MMOS PE if new.
  auto cluster = [&](const std::string& key) -> ClusterConfig& {
    int number = 0;
    r.values(key, number);
    for (auto& c : next.clusters) {
      if (c.number == number) return c;
    }
    if (number < 0) r.fail("cluster numbers must be non-negative");
    ClusterConfig c;
    c.number = number;
    c.primary_pe = spec_.first_mmos_pe() + next.cluster_count();
    return next.clusters.emplace_back(c);
  };
  try {
    const bool group = cmd == "fault" || cmd == "supervise" || cmd == "reliable";
    if (group) {
      usage = cmd == "fault"
                  ? "fault seed|halt|bus|heap|disk|slow|partition|recover|clear ..."
              : cmd == "supervise"
                  ? "supervise on|off|restarts|backoff|migrate ..."
                  : "reliable on|off|retries|backoff|ack-flush|deadline ...";
      std::string sub;
      r.values(cmd, sub);
      cmd += " " + sub;
    }
    const auto* saved =
        std::find_if(std::begin(kSavedLines), std::end(kSavedLines),
                     [&cmd](const SavedLine& s) { return cmd == s.command; });
    if (saved != std::end(kSavedLines)) {
      usage = saved->usage;
      read_line(r, next, saved->key);
    } else if (cmd == "done") {
      usage = cmd;
      r.done();
      return false;
    } else if (cmd == "show") {
      usage = cmd;
      r.done();
      cfg_.save(out);
    } else if (cmd == "validate") {
      usage = cmd;
      r.done();
      const auto errors = cfg_.validate(spec_);
      if (errors.empty()) out << "configuration OK\n";
      for (const auto& e : errors) out << "error: " << e << "\n";
    } else if (cmd == "name") {
      usage = "name <text>";
      next.name = r.rest();  // names may hold spaces, as in load
      if (next.name.empty()) r.fail("'name' is missing its text");
    } else if (cmd == "cluster") {
      usage = "cluster <n>";
      cluster(cmd);
    } else if (cmd == "primary" || cmd == "slots" || cmd == "place") {
      usage = cmd == "primary" ? "primary <cluster> <pe>"
              : cmd == "slots" ? "slots <cluster> <count>"
                               : "place <cluster> <primary|least-loaded|round-robin>";
      read_cluster_field(r, cluster(cmd), cmd);
    } else if (cmd == "secondaries") {
      usage = "secondaries <cluster> <pe|lo-hi>...";
      auto& pes = cluster(cmd).secondary_pes;
      pes.clear();
      while (auto tok = r.next()) {
        const auto dash = tok->find('-');
        if (dash == std::string::npos) {
          pes.push_back(r.parse<int>(*tok, "PE"));
          continue;
        }
        const int lo = r.parse<int>(tok->substr(0, dash), "PE range start");
        const int hi = r.parse<int>(tok->substr(dash + 1), "PE range end");
        if (hi < lo || hi > spec_.pe_count) {
          r.fail("PE range '" + *tok + "' is empty or past the machine's PEs");
        }
        for (int pe = lo; pe <= hi; ++pe) pes.push_back(pe);
      }
    } else if (cmd == "terminal") {
      usage = "terminal <cluster>";
      ClusterConfig& c = cluster(cmd);
      for (auto& other : next.clusters) other.has_terminal = false;
      c.has_terminal = true;
    } else if (cmd == "topology") {
      usage = "topology <shared|hier|numa> [pes-per-cluster <n>] "
              "[backbone-access <t>] [backbone-per-word <t>] "
              "[hop-per-word <t>]";
      std::string kind;
      r.values(cmd, kind);
      const auto t = flex::topology_from_name(kind);
      if (!t) r.fail("unknown topology '" + kind + "' (use shared, hier, numa)");
      auto& topo = next.topology;
      topo.kind = *t;
      while (auto opt = r.next()) {
        if (*opt == "pes-per-cluster") r.values(*opt, topo.pes_per_cluster);
        else if (*opt == "backbone-access") r.values(*opt, topo.backbone_access);
        else if (*opt == "backbone-per-word") r.values(*opt, topo.backbone_per_word);
        else if (*opt == "hop-per-word") r.values(*opt, topo.numa_hop_per_word);
        else r.fail("unknown topology option '" + *opt + "'");
      }
    } else if (cmd == "trace") {
      usage = "trace <kind> on|off";
      std::string kind;
      r.values(cmd, kind);
      const auto known = trace::kind_from_name(kind);
      if (!known) r.fail("unknown event kind '" + kind + "'");
      next.trace.set(*known, on_off(r, cmd));
    } else if (cmd == "fault clear") {
      usage = cmd;
      next.faults = flex::FaultPlan{};
    } else if (cmd == "supervise on" || cmd == "supervise off") {
      usage = "supervise on|off";
      next.supervision.enabled = cmd == "supervise on";
    } else if (cmd == "supervise restarts") {
      usage = "supervise restarts <n>";
      r.values(cmd, next.supervision.max_restarts);
    } else if (cmd == "supervise backoff" || cmd == "reliable backoff") {
      usage = cmd + " <base> <factor> <cap>";
      auto& b = cmd == "supervise backoff" ? next.supervision.backoff
                                           : next.reliable.backoff;
      r.values(cmd, b.base, b.factor, b.cap);
    } else if (cmd == "supervise migrate") {
      usage = "supervise migrate on|off";
      next.supervision.migrate = on_off(r, cmd);
    } else if (cmd == "reliable on" || cmd == "reliable off") {
      usage = "reliable on|off";
      next.reliable.enabled = cmd == "reliable on";
    } else if (cmd == "reliable retries") {
      usage = "reliable retries <n>  (n >= 0)";
      r.values(cmd, next.reliable.max_retries);
    } else if (cmd == "reliable ack-flush") {
      usage = "reliable ack-flush <ticks>  (ticks > 0)";
      r.values(cmd, next.reliable.ack_flush_ticks);
    } else if (cmd == "reliable deadline") {
      usage = "reliable deadline <ticks>  (0 disables)";
      r.values(cmd, next.reliable.send_deadline);
    } else if (group) {
      r.fail("unknown subcommand '" + cmd + "'");
    } else {
      out << "unknown command '" << cmd << "'\n";
      return true;
    }
    r.done();
    // Only problems cfg_ did not have refuse the line, so a configuration
    // that arrived invalid (edit()) can still be mended one knob at a time.
    std::vector<std::string> had = cfg_.validate_knobs(spec_);
    std::string added;
    for (const auto& problem : next.validate_knobs(spec_)) {
      const auto it = std::find(had.begin(), had.end(), problem);
      if (it != had.end()) {
        had.erase(it);
      } else {
        added += (added.empty() ? "" : "\nerror: ") + problem;
      }
    }
    if (!added.empty()) r.fail(added);
    cfg_ = std::move(next);
  } catch (const std::runtime_error& e) {
    out << "error: " << e.what() << "\nusage: " << usage << "\n";
  }
  return true;
}

Configuration ConfigMenu::repl(std::istream& in, std::ostream& out) {
  out << "PISCES CONFIGURATION ENVIRONMENT (type 'done' to finish)\n";
  std::string line;
  while (true) {
    out << "config> " << std::flush;
    if (!std::getline(in, line)) break;
    if (!apply(line, out)) break;
  }
  return cfg_;
}

}  // namespace pisces::config
