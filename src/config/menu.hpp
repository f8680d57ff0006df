#pragma once

#include <iosfwd>
#include <string>

#include "config/configuration.hpp"

namespace pisces::config {

/// The PISCES configuration environment (Sections 9, 11): an interactive,
/// menu/command-driven editor for run configurations. "In creating a
/// configuration on the FLEX/32, the programmer chooses: how many clusters
/// to use and their numbers; the primary FLEX PE for each cluster; the
/// secondary FLEX PEs to run force members; the number of slots."
///
/// Commands (one per line):
///   name <text>                  set the configuration name
///   cluster <n>                  add cluster n (or select it for editing)
///   primary <n> <pe>             set cluster n's primary PE
///   secondaries <n> <pe...>      set cluster n's force PEs (ranges ok: 7-15)
///   slots <n> <count>            set cluster n's user slots
///   terminal <n>                 put the user terminal on cluster n
///   timelimit <ticks>            execution time limit
///   heap <bytes>                 message-heap size
///   trace <kind> on|off          default trace settings
///   show                         print the configuration
///   validate                     check against the machine
///   done                         finish (returns the configuration)
/// (plus place, fanout, topology, fault, supervise and reliable). A command
/// reads all of its arguments and the whole line before it changes
/// anything: a malformed line prints an error and the command's usage and
/// leaves the configuration unchanged.
class ConfigMenu {
 public:
  explicit ConfigMenu(flex::MachineSpec spec = {}) : spec_(std::move(spec)) {}

  /// Start from an existing configuration ("edited as desired for later
  /// runs").
  void edit(Configuration base) { cfg_ = std::move(base); }

  /// Drive the command loop; returns the resulting configuration.
  Configuration repl(std::istream& in, std::ostream& out);

  /// Apply one command line; returns false on "done".
  bool apply(const std::string& line, std::ostream& out);

  [[nodiscard]] const Configuration& current() const { return cfg_; }

 private:
  ClusterConfig* find_or_add(int number, std::ostream& out);

  flex::MachineSpec spec_;
  Configuration cfg_ = [] { Configuration c; c.clusters.clear(); return c; }();
};

}  // namespace pisces::config
