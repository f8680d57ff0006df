#include "config/configuration.hpp"

#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "config/line_reader.hpp"

namespace pisces::config {

const char* place_policy_name(PlacePolicy p) {
  switch (p) {
    case PlacePolicy::primary: return "primary";
    case PlacePolicy::least_loaded: return "least-loaded";
    case PlacePolicy::round_robin: return "round-robin";
  }
  return "?";
}

std::optional<PlacePolicy> place_policy_from_name(const std::string& name) {
  for (PlacePolicy p : {PlacePolicy::primary, PlacePolicy::least_loaded,
                        PlacePolicy::round_robin}) {
    if (name == place_policy_name(p)) return p;
  }
  return std::nullopt;
}

const ClusterConfig* Configuration::find_cluster(int number) const {
  for (const auto& c : clusters) {
    if (c.number == number) return &c;
  }
  return nullptr;
}

std::vector<std::string> Configuration::validate(const flex::MachineSpec& spec) const {
  std::vector<std::string> errors;
  auto err = [&errors](std::string msg) { errors.push_back(std::move(msg)); };

  if (name.find('\n') != std::string::npos) err("name must be one line");
  if (clusters.empty()) err("configuration has no clusters");
  const int max_clusters = spec.pe_count - spec.unix_pe_count;
  if (static_cast<int>(clusters.size()) > max_clusters) {
    err("more clusters (" + std::to_string(clusters.size()) + ") than MMOS PEs (" +
        std::to_string(max_clusters) + ")");
  }

  auto is_mmos = [&spec](int pe) {
    return pe > spec.unix_pe_count && pe <= spec.pe_count;
  };

  std::set<int> numbers;
  std::set<int> primaries;
  int terminals = 0;
  for (const auto& c : clusters) {
    const std::string tag = "cluster " + std::to_string(c.number) + ": ";
    if (c.number < 0) err(tag + "cluster numbers must be non-negative");
    if (!numbers.insert(c.number).second) err(tag + "duplicate cluster number");
    if (!is_mmos(c.primary_pe)) {
      err(tag + "primary PE " + std::to_string(c.primary_pe) +
          " is not an MMOS PE (PEs 1-" + std::to_string(spec.unix_pe_count) +
          " run Unix only)");
    }
    if (!primaries.insert(c.primary_pe).second) {
      err(tag + "primary PE " + std::to_string(c.primary_pe) +
          " already primary for another cluster");
    }
    if (c.slots < 1) err(tag + "needs at least one user slot");
    std::set<int> secs;
    for (int pe : c.secondary_pes) {
      if (!is_mmos(pe)) {
        err(tag + "secondary PE " + std::to_string(pe) + " is not an MMOS PE");
      }
      if (pe == c.primary_pe) {
        err(tag + "secondary PE " + std::to_string(pe) +
            " is the cluster's own primary");
      }
      if (!secs.insert(pe).second) {
        err(tag + "secondary PE " + std::to_string(pe) + " listed twice");
      }
    }
    if (c.has_terminal) ++terminals;
  }
  if (!clusters.empty() && terminals == 0) {
    err("no cluster has a terminal (user controller)");
  }
  // Partition windows are cluster-level faults: cross-check the pair
  // against the configured cluster numbers (FaultPlan::validate only sees
  // the machine description).
  for (const auto& p : faults.bus_partitions) {
    for (int c : {p.cluster_a, p.cluster_b}) {
      if (find_cluster(c) == nullptr) {
        err("fault-partition names unconfigured cluster " + std::to_string(c));
      }
    }
  }
  for (auto& problem : validate_knobs(spec)) errors.push_back(std::move(problem));
  return errors;
}

std::vector<std::string> Configuration::validate_knobs(
    const flex::MachineSpec& spec) const {
  std::vector<std::string> errors;
  auto err = [&errors](std::string msg) { errors.push_back(std::move(msg)); };

  if (time_limit <= 0) err("time limit must be positive");
  if (collective_fanout < 2) err("collective fan-out must be at least 2");
  if (message_heap_bytes < 4096) err("message heap under 4 KB is unusable");
  if (message_heap_bytes > spec.shared_memory_bytes) {
    err("message heap exceeds shared memory");
  }
  for (auto& problem : topology.validate(spec.pe_count)) {
    errors.push_back("topology: " + std::move(problem));
  }
  for (auto& problem : faults.validate(spec)) errors.push_back(std::move(problem));
  if (supervision.max_restarts < 0) {
    err("supervision restart budget must be >= 0");
  }
  auto check_backoff = [&err](const sim::Backoff& b, const std::string& policy) {
    if (b.base <= 0) err(policy + " backoff base must be > 0");
    if (b.factor < 1.0) err(policy + " backoff factor must be >= 1");
    if (b.cap < b.base) err(policy + " backoff cap must be >= the base");
  };
  check_backoff(supervision.backoff, "supervision");
  if (reliable.max_retries < 0) err("reliable retry budget must be >= 0");
  check_backoff(reliable.backoff, "reliable");
  if (reliable.ack_flush_ticks <= 0) err("reliable ack flush window must be > 0");
  if (reliable.send_deadline < 0) {
    err("reliable send deadline must be >= 0 (0 disables it)");
  }
  return errors;
}

void Configuration::save(std::ostream& os) const {
  os << "pisces-config v1\n";
  os << "name " << name << "\n";
  os << "timelimit " << time_limit << "\n";
  os << "accept-timeout " << accept_default_timeout << "\n";
  os << "heap " << message_heap_bytes << "\n";
  os << "loadfile " << loadfile.name << " " << loadfile.mmos_kernel_bytes << " "
     << loadfile.pisces_code_bytes << " " << loadfile.user_code_bytes << "\n";
  for (const auto& c : clusters) {
    os << "cluster " << c.number << " primary " << c.primary_pe << " slots "
       << c.slots << " terminal " << (c.has_terminal ? 1 : 0);
    if (c.place != PlacePolicy::primary) {
      os << " place " << place_policy_name(c.place);
    }
    os << " secondaries";
    for (int pe : c.secondary_pes) os << " " << pe;
    os << "\n";
  }
  if (collective_fanout != 4) {
    os << "collective-fanout " << collective_fanout << "\n";
  }
  if (topology != flex::TopologySpec{}) {
    os << "topology " << flex::topology_name(topology.kind) << " "
       << topology.pes_per_cluster << " " << topology.backbone_access << " "
       << topology.backbone_per_word << " " << topology.numa_hop_per_word
       << "\n";
  }
  os << "trace";
  for (int k = 0; k < trace::kEventKindCount; ++k) {
    os << " " << (trace.kind_on[static_cast<std::size_t>(k)] ? 1 : 0);
  }
  os << "\n";
  // max_digits10 keeps probabilities and factors bit-exact across the
  // round-trip.
  auto prob = [](double p) {
    std::ostringstream s;
    s << std::setprecision(std::numeric_limits<double>::max_digits10) << p;
    return s.str();
  };
  if (faults.any() || faults.seed != 1) {
    os << "fault-seed " << faults.seed << "\n";
    for (const auto& h : faults.pe_halts) {
      os << "fault-halt " << h.pe << " " << h.at << "\n";
    }
    if (faults.bus_loss > 0 || faults.bus_duplication > 0 ||
        faults.bus_delay_probability > 0) {
      os << "fault-bus " << prob(faults.bus_loss) << " "
         << prob(faults.bus_duplication) << " "
         << prob(faults.bus_delay_probability) << " " << faults.bus_delay_ticks
         << "\n";
    }
    for (const auto& w : faults.heap_outages) {
      os << "fault-heap " << w.from << " " << w.until << "\n";
    }
    if (faults.disk_error > 0) {
      os << "fault-disk " << prob(faults.disk_error) << "\n";
    }
    for (const auto& s : faults.pe_slowdowns) {
      os << "fault-slow " << s.pe << " " << s.from << " " << s.until << " "
         << prob(s.factor) << "\n";
    }
    for (const auto& p : faults.bus_partitions) {
      os << "fault-partition " << p.cluster_a << " " << p.cluster_b << " "
         << p.from << " " << p.until << "\n";
    }
    for (const auto& r : faults.pe_recoveries) {
      os << "fault-recover " << r.pe << " " << r.at << "\n";
    }
  }
  if (supervision.enabled) {
    os << "supervision " << supervision.max_restarts << " "
       << supervision.backoff.base << " " << prob(supervision.backoff.factor)
       << " " << supervision.backoff.cap << " "
       << (supervision.migrate ? 1 : 0) << "\n";
  }
  if (reliable.enabled) {
    os << "reliable " << reliable.max_retries << " " << reliable.backoff.base
       << " " << prob(reliable.backoff.factor) << " " << reliable.backoff.cap
       << " " << reliable.ack_flush_ticks << " " << reliable.send_deadline
       << "\n";
  }
  os << "end\n";
}

void read_cluster_field(LineReader& r, ClusterConfig& c, const std::string& field) {
  if (field == "primary") {
    r.values(field, c.primary_pe);
  } else if (field == "slots") {
    r.values(field, c.slots);
  } else if (field == "terminal") {
    r.values(field, c.has_terminal);
  } else if (field == "place") {
    std::string policy;
    r.values(field, policy);
    const auto p = place_policy_from_name(policy);
    if (!p) {
      r.fail("unknown placement policy '" + policy +
             "' (use primary, least-loaded, round-robin)");
    }
    c.place = *p;
  } else if (field == "secondaries") {
    while (auto pe = r.next()) c.secondary_pes.push_back(r.parse<int>(*pe, "secondary PE"));
  } else {
    r.fail("unknown cluster field '" + field + "'");
  }
}

void read_line(LineReader& r, Configuration& cfg, const std::string& key) {
  auto& f = cfg.faults;
  if (key == "name") {
    cfg.name = r.rest();  // names may hold spaces: the rest of the line
  } else if (key == "timelimit") {
    r.values(key, cfg.time_limit);
  } else if (key == "accept-timeout") {
    r.values(key, cfg.accept_default_timeout);
  } else if (key == "heap") {
    r.values(key, cfg.message_heap_bytes);
  } else if (key == "loadfile") {
    r.values(key, cfg.loadfile.name, cfg.loadfile.mmos_kernel_bytes,
             cfg.loadfile.pisces_code_bytes, cfg.loadfile.user_code_bytes);
  } else if (key == "cluster") {
    ClusterConfig& c = cfg.clusters.emplace_back();
    r.values(key, c.number);
    std::set<std::string> fields;
    while (auto field = r.next()) {
      if (!fields.insert(*field).second) r.fail("repeated cluster field '" + *field + "'");
      read_cluster_field(r, c, *field);
    }
    for (const std::string needed : {"primary", "slots", "terminal", "secondaries"}) {
      if (fields.count(needed) == 0) r.fail("cluster line is missing '" + needed + "'");
    }
  } else if (key == "collective-fanout") {
    r.values(key, cfg.collective_fanout);
  } else if (key == "topology") {
    std::string kind;
    r.values(key, kind);
    const auto t = flex::topology_from_name(kind);
    if (!t) r.fail("unknown topology '" + kind + "'");
    cfg.topology.kind = *t;
    r.values(key, cfg.topology.pes_per_cluster, cfg.topology.backbone_access,
             cfg.topology.backbone_per_word, cfg.topology.numa_hop_per_word);
  } else if (key == "trace") {
    // Older files carry fewer flags: kinds a file predates load as off.
    for (bool& on : cfg.trace.kind_on) {
      const auto tok = r.next();
      if (!tok) break;
      on = r.parse<bool>(*tok, "trace flag");
    }
  } else if (key == "fault-seed") {
    r.values(key, f.seed);
  } else if (key == "fault-halt") {
    auto& h = f.pe_halts.emplace_back();
    r.values(key, h.pe, h.at);
  } else if (key == "fault-bus") {
    r.values(key, f.bus_loss, f.bus_duplication, f.bus_delay_probability,
             f.bus_delay_ticks);
  } else if (key == "fault-heap") {
    auto& w = f.heap_outages.emplace_back();
    r.values(key, w.from, w.until);
  } else if (key == "fault-disk") {
    r.values(key, f.disk_error);
  } else if (key == "fault-slow") {
    auto& s = f.pe_slowdowns.emplace_back();
    r.values(key, s.pe, s.from, s.until, s.factor);
  } else if (key == "fault-partition") {
    auto& p = f.bus_partitions.emplace_back();
    r.values(key, p.cluster_a, p.cluster_b, p.from, p.until);
  } else if (key == "fault-recover") {
    auto& rc = f.pe_recoveries.emplace_back();
    r.values(key, rc.pe, rc.at);
  } else if (key == "supervision") {
    auto& s = cfg.supervision;
    r.values(key, s.max_restarts, s.backoff.base, s.backoff.factor, s.backoff.cap,
             s.migrate);
    s.enabled = true;
  } else if (key == "reliable") {
    auto& rel = cfg.reliable;
    r.values(key, rel.max_retries, rel.backoff.base, rel.backoff.factor,
             rel.backoff.cap, rel.ack_flush_ticks, rel.send_deadline);
    rel.enabled = true;
  } else {
    r.fail("unknown key '" + key + "'");
  }
}

Configuration Configuration::load(std::istream& is) {
  auto where = [](int number) {
    return "Configuration::load: line " + std::to_string(number) + ": ";
  };
  Configuration cfg;
  std::string line;
  if (!std::getline(is, line) || line != "pisces-config v1") {
    throw std::runtime_error(where(1) + "missing 'pisces-config v1' header");
  }
  // Only the keys that append to a list may repeat; every other is set once.
  static const std::set<std::string> kListKeys{
      "cluster",         "fault-halt", "fault-heap", "fault-slow",
      "fault-partition", "fault-recover"};
  std::set<std::string> keys;
  bool ended = false;
  int number = 2;
  for (; std::getline(is, line); ++number) {
    LineReader r(line, where(number));
    const std::optional<std::string> key = r.next();
    if (!key) continue;
    if (ended) r.fail("'" + *key + "' after 'end'");
    if (!kListKeys.contains(*key) && !keys.insert(*key).second) {
      r.fail("repeated key '" + *key + "'");
    }
    ended = *key == "end";
    if (!ended) read_line(r, cfg, *key);
    r.done();
  }
  if (!ended) throw std::runtime_error(where(number) + "missing 'end'");
  return cfg;
}

Configuration Configuration::simple(int n_clusters, int slots) {
  Configuration cfg;
  cfg.name = "simple" + std::to_string(n_clusters);
  for (int i = 0; i < n_clusters; ++i) {
    ClusterConfig c;
    c.number = i + 1;
    c.primary_pe = 3 + i;
    c.slots = slots;
    c.has_terminal = (i == 0);
    cfg.clusters.push_back(std::move(c));
  }
  return cfg;
}

Configuration Configuration::section9_example() {
  Configuration cfg = simple(4, 4);
  cfg.name = "section9";
  // "Use PE's 7-15 to run forces for both clusters 3 and 4."
  for (int pe = 7; pe <= 15; ++pe) {
    cfg.clusters[2].secondary_pes.push_back(pe);
    cfg.clusters[3].secondary_pes.push_back(pe);
  }
  // "Use PE's 16-20 to run forces for cluster 2."
  for (int pe = 16; pe <= 20; ++pe) {
    cfg.clusters[1].secondary_pes.push_back(pe);
  }
  // "Allocate no secondary PE's to run forces for cluster 1."
  return cfg;
}

}  // namespace pisces::config
