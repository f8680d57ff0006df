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
/// (plus place, fanout, topology, fault, supervise and reliable). timelimit,
/// heap, fanout and `fault seed|halt|bus|...` take the values of the saved
/// line of the same key (collective-fanout, fault-*) and read them with the
/// loader's reader; primary, slots and place read the cluster line's field.
/// A command edits a copy of the configuration, kept only if the whole line
/// parses and the copy has no knob problem (Configuration::validate_knobs)
/// that the configuration did not have; otherwise the menu prints
/// `error: ...` and the command's usage and changes nothing. The cluster
/// table's rules (a terminal, distinct primaries, partitions between
/// configured clusters) wait for `validate`, so a configuration can be
/// built one command at a time.
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
  flex::MachineSpec spec_;
  Configuration cfg_;
};

}  // namespace pisces::config
