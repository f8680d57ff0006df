#include "trace/analyzer.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace pisces::trace {

std::string Record::format() const {
  std::ostringstream os;
  os << "TRACE " << kind_name(kind) << " t=" << at << " pe=" << pe
     << " task=" << task.cluster << ':' << task.slot << ':' << task.unique;
  if (other.valid()) {
    os << " other=" << other.cluster << ':' << other.slot << ':' << other.unique;
  }
  if (seq != 0) os << " seq=" << seq;
  if (!info.empty()) os << " info=" << info;
  return os.str();
}

Analyzer::Analyzer(std::vector<Record> records) : records_(std::move(records)) {}

std::uint64_t Analyzer::count(EventKind k) const {
  return static_cast<std::uint64_t>(
      std::count_if(records_.begin(), records_.end(),
                    [k](const Record& r) { return r.kind == k; }));
}

std::vector<Analyzer::TaskTiming> Analyzer::task_timings() const {
  std::map<rt::TaskId, TaskTiming> by_task;
  for (const Record& r : records_) {
    if (r.kind == EventKind::task_init) {
      auto& t = by_task[r.task];
      t.task = r.task;
      t.initiated = r.at;
    } else if (r.kind == EventKind::task_term) {
      auto& t = by_task[r.task];
      t.task = r.task;
      t.terminated = r.at;
    }
  }
  std::vector<TaskTiming> out;
  out.reserve(by_task.size());
  for (auto& [id, t] : by_task) out.push_back(t);
  return out;
}

std::vector<Analyzer::MessageTiming> Analyzer::message_timings() const {
  std::map<std::uint64_t, MessageTiming> by_seq;
  for (const Record& r : records_) {
    if (r.seq == 0) continue;
    if (r.kind == EventKind::msg_send) {
      auto& m = by_seq[r.seq];
      m.seq = r.seq;
      m.from = r.task;
      m.to = r.other;
      m.sent = r.at;
    } else if (r.kind == EventKind::msg_accept) {
      auto& m = by_seq[r.seq];
      m.seq = r.seq;
      m.accepted = r.at;
    }
  }
  std::vector<MessageTiming> out;
  for (auto& [seq, m] : by_seq) {
    if (m.sent != 0 && m.accepted != 0) out.push_back(m);
  }
  return out;
}

double Analyzer::mean_message_latency() const {
  auto ms = message_timings();
  if (ms.empty()) return 0.0;
  double sum = 0;
  for (const auto& m : ms) sum += static_cast<double>(m.latency());
  return sum / static_cast<double>(ms.size());
}

std::map<rt::TaskId, std::uint64_t> Analyzer::barrier_entries() const {
  std::map<rt::TaskId, std::uint64_t> out;
  for (const Record& r : records_) {
    if (r.kind == EventKind::barrier_enter) ++out[r.task];
  }
  return out;
}

std::map<std::string, std::uint64_t> Analyzer::message_type_counts() const {
  std::map<std::string, std::uint64_t> out;
  for (const Record& r : records_) {
    if (r.kind == EventKind::msg_send && !r.info.empty()) ++out[r.info];
  }
  return out;
}

std::map<rt::TaskId, std::string> Analyzer::abnormal_terminations() const {
  std::map<rt::TaskId, std::string> out;
  for (const Record& r : records_) {
    if (r.kind == EventKind::child_term) out[r.task] = r.info;
  }
  return out;
}

std::map<int, std::uint64_t> Analyzer::pe_activity() const {
  std::map<int, std::uint64_t> out;
  for (const Record& r : records_) {
    if (r.pe > 0) ++out[r.pe];
  }
  return out;
}

std::string Analyzer::report() const {
  std::ostringstream os;
  os << "=== trace analysis (" << records_.size() << " records) ===\n";
  static constexpr EventKind kAll[] = {
      EventKind::task_init,  EventKind::task_term, EventKind::msg_send,
      EventKind::msg_accept, EventKind::lock,      EventKind::unlock,
      EventKind::barrier_enter, EventKind::force_split,
      EventKind::dead_letter, EventKind::fault, EventKind::child_term};
  for (EventKind k : kAll) {
    os << "  " << kind_name(k) << ": " << count(k) << '\n';
  }
  const auto tasks = task_timings();
  os << "tasks observed: " << tasks.size() << '\n';
  for (const auto& t : tasks) {
    os << "  task " << t.task.str();
    if (t.initiated) os << " init=" << *t.initiated;
    if (t.terminated) os << " term=" << *t.terminated;
    if (auto lt = t.lifetime()) os << " lifetime=" << *lt;
    os << '\n';
  }
  const auto msgs = message_timings();
  os << "matched messages: " << msgs.size()
     << " mean latency=" << mean_message_latency() << " ticks\n";
  const auto types = message_type_counts();
  if (!types.empty()) {
    os << "messages by type:";
    for (const auto& [type, n] : types) os << " " << type << "=" << n;
    os << '\n';
  }
  const auto pes = pe_activity();
  if (!pes.empty()) {
    os << "events by PE:";
    for (const auto& [pe, n] : pes) os << " pe" << pe << "=" << n;
    os << '\n';
  }
  return os.str();
}

namespace {

/// Parse `text` in full as a number into `out`; false if it does not parse.
template <typename T>
bool parse_into(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && stop == end;
}

bool parse_into(std::string_view text, rt::TaskId& out) {
  const auto a = text.find(':');
  if (a == std::string_view::npos) return false;
  const auto b = text.find(':', a + 1);
  if (b == std::string_view::npos) return false;
  return parse_into(text.substr(0, a), out.cluster) &&
         parse_into(text.substr(a + 1, b - a - 1), out.slot) &&
         parse_into(text.substr(b + 1), out.unique);
}

/// Split the next whitespace-delimited token off the front of `rest`.
std::string_view next_token(std::string_view& rest) {
  rest.remove_prefix(std::min(rest.find_first_not_of(" \t"), rest.size()));
  const auto end = std::min(rest.find_first_of(" \t"), rest.size());
  const std::string_view token = rest.substr(0, end);
  rest.remove_prefix(end);
  return token;
}

/// The key=value fields other than info; the first three are required.
constexpr std::array<std::string_view, 5> kFields = {"t", "pe", "task", "other",
                                                     "seq"};

bool set_field(Record& r, std::size_t field, std::string_view value) {
  switch (field) {
    case 0: return parse_into(value, r.at);
    case 1: return parse_into(value, r.pe);
    case 2: return parse_into(value, r.task);
    case 3: return parse_into(value, r.other);
    default: return parse_into(value, r.seq);
  }
}

}  // namespace

std::optional<rt::TaskId> parse_taskid(std::string_view text) {
  rt::TaskId id;
  if (!parse_into(text, id)) return std::nullopt;
  return id;
}

std::vector<Record> Analyzer::parse(std::istream& is) {
  std::vector<Record> out;
  std::string line;
  for (int number = 1; std::getline(is, line); ++number) {
    std::string_view rest = line;
    if (next_token(rest) != "TRACE") continue;
    auto fail = [number](const std::string& what, std::string_view token) {
      throw std::runtime_error("trace::Analyzer::parse: line " +
                               std::to_string(number) + ": " + what + " '" +
                               std::string(token) + "'");
    };
    Record r;
    const std::string_view kind = next_token(rest);
    const auto known = kind_from_name(kind);
    if (!known) fail("unknown event kind", kind);
    r.kind = *known;
    std::array<bool, kFields.size()> seen{};
    for (std::string_view token = next_token(rest); !token.empty();
         token = next_token(rest)) {
      const auto eq = token.find('=');
      if (eq == std::string_view::npos) fail("field without '='", token);
      const std::string_view key = token.substr(0, eq);
      const std::string_view value = token.substr(eq + 1);
      if (key == "info") {
        // Record::format writes info last: it is the rest of the line.
        r.info = line.substr(static_cast<std::size_t>(value.data() - line.data()));
        break;
      }
      const auto field = static_cast<std::size_t>(
          std::find(kFields.begin(), kFields.end(), key) - kFields.begin());
      if (field == kFields.size()) fail("unknown field", token);
      if (seen[field]) fail("duplicate field", token);
      seen[field] = true;
      if (!set_field(r, field, value)) fail("malformed value", token);
    }
    for (std::size_t field = 0; field < 3; ++field) {
      if (!seen[field]) fail("missing field", std::string(kFields[field]) + "=");
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace pisces::trace
