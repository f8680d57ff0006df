#include "config/menu.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "config/line_reader.hpp"

namespace pisces::config {

namespace {
/// "on" or "off" as a flag; anything else fails the line.
bool on_off(const LineReader& r, const std::string& setting) {
  if (setting != "on" && setting != "off") {
    r.fail("expected on or off, got '" + setting + "'");
  }
  return setting == "on";
}
}  // namespace

ClusterConfig* ConfigMenu::find_or_add(int number, std::ostream& out) {
  for (auto& c : cfg_.clusters) {
    if (c.number == number) return &c;
  }
  if (number < 0) {
    out << "cluster numbers must be non-negative\n";
    return nullptr;
  }
  ClusterConfig c;
  c.number = number;
  c.primary_pe = spec_.first_mmos_pe() + static_cast<int>(cfg_.clusters.size());
  cfg_.clusters.push_back(c);
  return &cfg_.clusters.back();
}

bool ConfigMenu::apply(const std::string& line, std::ostream& out) {
  // Each command reads all of its arguments and the end of the line before
  // it assigns anything: a malformed line throws from the reader, prints the
  // command's usage and leaves the configuration as it was.
  LineReader r(line, "");
  const std::optional<std::string> cmd = r.next();
  if (!cmd) return true;
  std::string usage;  // set by each command before it reads its arguments
  try {
    if (*cmd == "done") {
      usage = "done";
      r.done();
      return false;
    }
    if (*cmd == "name") {
      usage = "name <text>";
      std::string name = r.rest();  // names may hold spaces, as in load
      if (name.empty()) r.fail("'name' is missing its text");
      cfg_.name = std::move(name);
    } else if (*cmd == "cluster") {
      usage = "cluster <n>";
      int n = 0;
      r.exactly(n);
      find_or_add(n, out);
    } else if (*cmd == "primary") {
      usage = "primary <cluster> <pe>";
      int n = 0;
      int pe = 0;
      r.exactly(n, pe);
      if (auto* c = find_or_add(n, out)) c->primary_pe = pe;
    } else if (*cmd == "secondaries") {
      usage = "secondaries <cluster> <pe|lo-hi>...";
      int n = 0;
      r.values(n);
      std::vector<int> pes;
      while (auto tok = r.next()) {
        const auto dash = tok->find('-');
        if (dash == std::string::npos) {
          pes.push_back(r.number<int>(*tok, "PE"));
          continue;
        }
        const int lo = r.number<int>(tok->substr(0, dash), "PE range start");
        const int hi = r.number<int>(tok->substr(dash + 1), "PE range end");
        if (hi < lo || hi > spec_.pe_count) {
          r.fail("PE range '" + *tok + "' is empty or past the machine's PEs");
        }
        for (int pe = lo; pe <= hi; ++pe) pes.push_back(pe);
      }
      if (auto* c = find_or_add(n, out)) c->secondary_pes = std::move(pes);
    } else if (*cmd == "place") {
      usage = "place <cluster> <primary|least-loaded|round-robin>";
      int n = 0;
      std::string policy;
      r.exactly(n, policy);
      const auto p = place_policy_from_name(policy);
      if (!p.has_value()) {
        r.fail("unknown placement policy '" + policy +
               "' (use primary, least-loaded, round-robin)");
      }
      if (auto* c = find_or_add(n, out)) c->place = *p;
    } else if (*cmd == "slots") {
      usage = "slots <cluster> <count>";
      int n = 0;
      int count = 0;
      r.exactly(n, count);
      if (auto* c = find_or_add(n, out)) c->slots = count;
    } else if (*cmd == "terminal") {
      usage = "terminal <cluster>";
      int n = 0;
      r.exactly(n);
      if (auto* c = find_or_add(n, out)) {
        for (auto& other : cfg_.clusters) other.has_terminal = false;
        c->has_terminal = true;
      }
    } else if (*cmd == "timelimit") {
      usage = "timelimit <ticks>";
      sim::Tick limit = 0;
      r.exactly(limit);
      cfg_.time_limit = limit;
    } else if (*cmd == "heap") {
      usage = "heap <bytes>";
      std::size_t bytes = 0;
      r.exactly(bytes);
      cfg_.message_heap_bytes = bytes;
    } else if (*cmd == "fanout") {
      usage = "fanout <k>  (k >= 2)";
      int k = 0;
      r.exactly(k);
      if (k < 2) r.fail("collective fan-out must be at least 2");
      cfg_.collective_fanout = k;
    } else if (*cmd == "topology") {
      usage = "topology <shared|hier|numa> [pes-per-cluster <n>] "
              "[backbone-access <t>] [backbone-per-word <t>] "
              "[hop-per-word <t>]";
      std::string kind;
      r.values(kind);
      const auto t = flex::topology_from_name(kind);
      if (!t.has_value()) {
        r.fail("unknown topology '" + kind + "' (use shared, hier, numa)");
      }
      auto next = cfg_.topology;
      next.kind = *t;
      while (auto opt = r.next()) {
        if (*opt == "pes-per-cluster") r.values(next.pes_per_cluster);
        else if (*opt == "backbone-access") r.values(next.backbone_access);
        else if (*opt == "backbone-per-word") r.values(next.backbone_per_word);
        else if (*opt == "hop-per-word") r.values(next.numa_hop_per_word);
        else r.fail("unknown topology option '" + *opt + "'");
      }
      const auto problems = next.validate(spec_.pe_count);
      for (const auto& p : problems) out << "error: " << p << "\n";
      if (problems.empty()) cfg_.topology = next;
    } else if (*cmd == "trace") {
      usage = "trace <kind> on|off";
      std::string kind;
      std::string setting;
      r.exactly(kind, setting);
      const bool on = on_off(r, setting);
      int k = 0;
      while (k < trace::kEventKindCount &&
             trace::kind_name(static_cast<trace::EventKind>(k)) != kind) {
        ++k;
      }
      if (k == trace::kEventKindCount) r.fail("unknown event kind '" + kind + "'");
      cfg_.trace.set(static_cast<trace::EventKind>(k), on);
    } else if (*cmd == "fault") {
      usage = "fault seed|halt|bus|heap|disk|slow|partition|recover|clear ...";
      std::string sub;
      r.values(sub);
      auto& f = cfg_.faults;
      if (sub == "seed") {
        usage = "fault seed <n>";
        std::uint64_t seed = 0;
        r.exactly(seed);
        f.seed = seed;
      } else if (sub == "halt") {
        usage = "fault halt <pe> <tick>";
        flex::FaultPlan::PeHalt h;
        r.exactly(h.pe, h.at);
        f.pe_halts.push_back(h);
      } else if (sub == "bus") {
        // One uniform draw per physical transfer picks at most one of
        // loss/dup/delay, so the three probabilities share a single unit
        // budget. Duplication and loss still compose on one *logical*
        // transfer once retransmission is on: each retry is its own draw.
        usage = "fault bus <loss> <dup> <delay-prob> <delay-ticks>\n"
                "  (one draw per transfer picks at most one fault, so the\n"
                "   probabilities must sum to <= 1; with `reliable on`, loss\n"
                "   and duplication still compose across retries of one send)";
        double loss = 0;
        double dup = 0;
        double delay_prob = 0;
        sim::Tick delay_ticks = 0;
        r.exactly(loss, dup, delay_prob, delay_ticks);
        std::ostringstream why;
        if (loss < 0 || loss > 1 || dup < 0 || dup > 1 || delay_prob < 0 ||
            delay_prob > 1) {
          why << "each bus fault probability must be in [0, 1] (got loss="
              << loss << " dup=" << dup << " delay-prob=" << delay_prob << ")";
        } else if (loss + dup + delay_prob > 1.0) {
          why << "bus fault probabilities must sum to <= 1 because one draw "
                 "per transfer picks at most one fault: loss "
              << loss << " + dup " << dup << " + delay-prob " << delay_prob
              << " = " << loss + dup + delay_prob;
        }
        if (!why.str().empty()) r.fail(why.str());
        f.bus_loss = loss;
        f.bus_duplication = dup;
        f.bus_delay_probability = delay_prob;
        f.bus_delay_ticks = delay_ticks;
      } else if (sub == "heap") {
        usage = "fault heap <from> <until>";
        flex::FaultPlan::HeapOutage w;
        r.exactly(w.from, w.until);
        f.heap_outages.push_back(w);
      } else if (sub == "disk") {
        usage = "fault disk <prob>";
        double prob = 0;
        r.exactly(prob);
        f.disk_error = prob;
      } else if (sub == "slow") {
        usage = "fault slow <pe> <from> <until> <factor>";
        flex::FaultPlan::PeSlowdown s;
        r.exactly(s.pe, s.from, s.until, s.factor);
        f.pe_slowdowns.push_back(s);
      } else if (sub == "partition") {
        usage = "fault partition <cluster-a> <cluster-b> <from> <until>";
        flex::FaultPlan::BusPartition p;
        r.exactly(p.cluster_a, p.cluster_b, p.from, p.until);
        f.bus_partitions.push_back(p);
      } else if (sub == "recover") {
        usage = "fault recover <pe> <tick>";
        flex::FaultPlan::PeRecover rc;
        r.exactly(rc.pe, rc.at);
        f.pe_recoveries.push_back(rc);
      } else if (sub == "clear") {
        usage = "fault clear";
        r.done();
        f = flex::FaultPlan{};
      } else {
        r.fail("unknown fault subcommand '" + sub + "'");
      }
    } else if (*cmd == "supervise") {
      usage = "supervise on|off|restarts|backoff|migrate ...";
      std::string sub;
      r.values(sub);
      auto& sup = cfg_.supervision;
      if (sub == "on" || sub == "off") {
        usage = "supervise on|off";
        r.done();
        sup.enabled = sub == "on";
      } else if (sub == "restarts") {
        usage = "supervise restarts <n>";
        int n = 0;
        r.exactly(n);
        sup.max_restarts = n;
      } else if (sub == "backoff") {
        usage = "supervise backoff <base> <factor> <cap>";
        sim::Tick base = 0;
        double factor = 0;
        sim::Tick cap = 0;
        r.exactly(base, factor, cap);
        sup.backoff_base = base;
        sup.backoff_factor = factor;
        sup.backoff_cap = cap;
      } else if (sub == "migrate") {
        usage = "supervise migrate on|off";
        std::string setting;
        r.exactly(setting);
        sup.migrate = on_off(r, setting);
      } else {
        r.fail("unknown supervise subcommand '" + sub + "'");
      }
    } else if (*cmd == "reliable") {
      usage = "reliable on|off|retries|backoff|ack-flush|deadline ...";
      std::string sub;
      r.values(sub);
      auto& rel = cfg_.reliable;
      if (sub == "on" || sub == "off") {
        usage = "reliable on|off";
        r.done();
        rel.enabled = sub == "on";
      } else if (sub == "retries") {
        usage = "reliable retries <n>  (n >= 0)";
        int n = 0;
        r.exactly(n);
        if (n < 0) r.fail("reliable retry budget must be >= 0");
        rel.max_retries = n;
      } else if (sub == "backoff") {
        usage = "reliable backoff <base> <factor> <cap>";
        sim::Tick base = 0;
        double factor = 0;
        sim::Tick cap = 0;
        r.exactly(base, factor, cap);
        if (base <= 0 || factor < 1.0 || cap < base) {
          r.fail("reliable backoff needs base > 0, factor >= 1, cap >= base");
        }
        rel.backoff_base = base;
        rel.backoff_factor = factor;
        rel.backoff_cap = cap;
      } else if (sub == "ack-flush") {
        usage = "reliable ack-flush <ticks>  (ticks > 0)";
        sim::Tick t = 0;
        r.exactly(t);
        if (t <= 0) r.fail("reliable ack flush window must be > 0");
        rel.ack_flush_ticks = t;
      } else if (sub == "deadline") {
        usage = "reliable deadline <ticks>  (0 disables)";
        sim::Tick t = 0;
        r.exactly(t);
        if (t < 0) r.fail("reliable send deadline must be >= 0");
        rel.send_deadline = t;
      } else {
        r.fail("unknown reliable subcommand '" + sub + "'");
      }
    } else if (*cmd == "show") {
      usage = "show";
      r.done();
      cfg_.save(out);
    } else if (*cmd == "validate") {
      usage = "validate";
      r.done();
      auto errors = cfg_.validate(spec_);
      if (errors.empty()) {
        out << "configuration OK\n";
      } else {
        for (const auto& e : errors) out << "error: " << e << "\n";
      }
    } else {
      out << "unknown command '" << *cmd << "'\n";
    }
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
