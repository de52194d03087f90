// effitest_cli — command-line front end for the EffiTest library.
//
// One table, commands() at the end of this file, declares every command:
// its handler, the summary `effitest_cli help` prints, and its options,
// mostly by shared groups (circuit, tuner, flow, log, listen). Each option
// is declared once, with the kind its value is parsed and range-checked as
// and the placeholder the usage shows, so usage, validation and parsing
// cannot drift apart. parse_cli() checks the whole command line against the
// table before any command runs: an unknown command, option or flag, a
// stray argument, or a malformed or out-of-range value exits 2 naming the
// offending --opt=value — a typo like --chip=200 must not silently run the
// defaults, and a bad number must not wait for a circuit to be built.
// Commands read the typed values through Cli::get.
//
// The log group (--log-format=text|json, --log-file=path; ssta, run,
// campaign, tune, serve and balance) enables a structured event log
// (obs::StructuredLog, effitest-log-v1 JSON lines or the same data as text)
// of run/job/session/chip transitions, written to the file or to stderr
// when no file is given. Purely observational — results are bit-identical
// with logging on or off, and the perf gates run with it off (one
// null-pointer test per would-be event).
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error (bad options,
// scenario spec or checkpoint), 3 campaign stopped with jobs left.
//
// Examples:
//   effitest_cli generate --circuit=s9234 --out=/tmp/s9234_like.bench
//   effitest_cli run --circuit=s13207 --chips=2000 --json=run.json
//   effitest_cli campaign --circuits=s9234,s13207 --quantiles=0.5,0.8413
//   effitest_cli tune --circuit=s9234 --chips=3 --simulate --log=resp.log
//   effitest_cli tune --circuit=s9234 --chips=3 --responses=resp.log

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "analytic/engine.hpp"
#include "core/campaign.hpp"
#include "core/flow.hpp"
#include "core/table.hpp"
#include "core/tuner_service.hpp"
#include "core/yield.hpp"
#include "fleet/balancer.hpp"
#include "fleet/registry.hpp"
#include "fleet/supervisor.hpp"
#include "io/bench_json.hpp"
#include "io/checkpoint_json.hpp"
#include "io/json.hpp"
#include "io/scenario_json.hpp"
#include "io/tune_protocol.hpp"
#include "net/client.hpp"
#include "net/serve.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "netlist/bench_writer.hpp"
#include "netlist/generator.hpp"
#include "scenario/circuit_catalog.hpp"
#include "stats/distributions.hpp"
#include "timing/graph.hpp"
#include "timing/ssta.hpp"

namespace {

using namespace effitest;

/// Usage errors — an unknown or malformed option, a bad value, a
/// conflicting or inapplicable combination — exit with code 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// How an option's value is parsed and range-checked (parse_value).
enum class Kind {
  kFlag,       ///< bare --switch, no value
  kText,       ///< any string
  kChoice,     ///< one of the placeholder's '|'-separated words
  kNames,      ///< non-empty comma-separated list
  kU64,        ///< unsigned integer
  kSize,       ///< unsigned integer that fits std::size_t
  kCount,      ///< kSize, at least 1
  kPort,       ///< TCP port, 0-65535
  kPeriod,     ///< finite number > 0
  kSeconds,    ///< finite number >= 0
  kFactor,     ///< finite number >= 1
  kQuantile,   ///< finite number in [0, 1]
  kQuantiles,  ///< comma-separated kQuantile list (may be empty)
  kEndpoint,   ///< host:port with a nonzero port
  kEndpoints,  ///< comma-separated kEndpoint list
};

struct Option {
  const char* name;
  Kind kind;
  const char* placeholder;  ///< the usage's --name=<placeholder>; flags: ""
};

using OptionList = std::vector<const Option*>;

/// The parts in order, each option once (the circuit and tuner groups
/// share --seed).
OptionList join(std::initializer_list<OptionList> parts) {
  OptionList out;
  for (const OptionList& part : parts) {
    for (const Option* option : part) {
      if (std::find(out.begin(), out.end(), option) == out.end()) {
        out.push_back(option);
      }
    }
  }
  return out;
}

// Every option, declared once.
const Option kBench{"bench", Kind::kText, "file"};
const Option kBuffers{"buffers", Kind::kSize, "N"};
const Option kPolicy{"policy", Kind::kChoice, "hub-count|worst-delay"};
const Option kCircuit{"circuit", Kind::kText, "<name>"};
const Option kSeed{"seed", Kind::kU64, "S"};
const Option kChips{"chips", Kind::kCount, "N"};
const Option kTd{"td", Kind::kPeriod, "ps"};
const Option kQuantile{"quantile", Kind::kQuantile, "q"};
const Option kThreads{"threads", Kind::kSize, "N"};
const Option kLogFormat{"log-format", Kind::kChoice, "text|json"};
const Option kLogFile{"log-file", Kind::kText, "path"};
const Option kHost{"host", Kind::kText, "H"};
const Option kPort{"port", Kind::kPort, "P"};
const Option kMaxPending{"max-pending", Kind::kSize, "N"};
const Option kMaxSessions{"max-sessions", Kind::kSize, "N"};
const Option kIoTimeout{"io-timeout", Kind::kSeconds, "secs"};
const Option kStatusPort{"status-port", Kind::kPort, "P"};
const Option kOut{"out", Kind::kText, "file.bench"};
const Option kJson{"json", Kind::kText, "file"};
const Option kTuned{"tuned", Kind::kFlag, ""};
const Option kCriticality{"criticality", Kind::kFlag, ""};
const Option kNoPrediction{"no-prediction", Kind::kFlag, ""};
const Option kNoAlignment{"no-alignment", Kind::kFlag, ""};
const Option kSpec{"spec", Kind::kText, "file.json"};
const Option kCircuits{"circuits", Kind::kNames, "a,b,..."};
const Option kQuantiles{"quantiles", Kind::kQuantiles, "q1,q2,..."};
const Option kModes{"modes", Kind::kText, "flow,analytic"};
const Option kInflation{"inflation", Kind::kFactor, "k"};
const Option kCheckpoint{"checkpoint", Kind::kText, "file"};
const Option kResume{"resume", Kind::kFlag, ""};
const Option kStopAfter{"stop-after", Kind::kCount, "K"};
const Option kSimulate{"simulate", Kind::kFlag, ""};
const Option kLenient{"lenient", Kind::kFlag, ""};
const Option kLog{"log", Kind::kText, "file"};
const Option kResponses{"responses", Kind::kText, "file"};
const Option kWindow{"window", Kind::kSize, "W"};
const Option kConnect{"connect", Kind::kEndpoint, "host:port"};
const Option kConnectRetries{"connect-retries", Kind::kSize, "N"};
const Option kServeWorkers{"workers", Kind::kCount, "N"};
const Option kMaxChips{"max-chips", Kind::kSize, "N"};
const Option kFleetWorkers{"workers", Kind::kEndpoints, "host:port,..."};
const Option kSpawn{"spawn", Kind::kSize, "N"};
const Option kRelayWorkers{"relay-workers", Kind::kCount, "N"};
const Option kRetries{"retries", Kind::kSize, "N"};
const Option kProbeInterval{"probe-interval", Kind::kSeconds, "secs"};
const Option kFormat{"format", Kind::kChoice, "json|prometheus"};

/// One circuit: a .bench import (--buffers/--policy shape it) or a named
/// generated one (--seed also steers its generation).
const OptionList kCircuitGroup = {&kBench, &kBuffers, &kPolicy, &kCircuit,
                                  &kSeed};
/// What a TunerService is built with: a serve process decides these for
/// all its sessions, so `balance` forwards them to its children and
/// `tune --connect` rejects them.
const OptionList kTunerGroup = {&kTd, &kQuantile, &kSeed, &kThreads};
const OptionList kFlowGroup = join({{&kChips}, kTunerGroup});
const OptionList kLogGroup = {&kLogFormat, &kLogFile};
const OptionList kListenGroup = {&kHost,        &kPort,      &kMaxPending,
                                 &kMaxSessions, &kIoTimeout, &kStatusPort};

/// A parsed option value; text kinds keep only the text.
using Value =
    std::variant<std::monostate, std::uint64_t, double, std::vector<double>,
                 std::vector<std::string>, fleet::WorkerEndpoint,
                 std::vector<fleet::WorkerEndpoint>>;

struct Cli;

struct Command {
  const char* name;
  int (*run)(const Cli&);
  const char* summary;
  OptionList options;
  const char* operand = nullptr;  ///< its one positional argument, if any

  [[nodiscard]] const Option* find(const std::string& option) const {
    for (const Option* o : options) {
      if (option == o->name) return o;
    }
    return nullptr;
  }
};

const std::vector<Command>& commands();

const Command& find_command(const std::string& name) {
  for (const Command& command : commands()) {
    if (name == command.name) return command;
  }
  throw UsageError("unknown command '" + name +
                   "' (effitest_cli help lists the commands)");
}

/// A validated command line.
struct Cli {
  const Command* command = nullptr;
  /// --name=text of every option given, with the text parsed by kind.
  std::map<std::string, std::pair<std::string, Value>> options;
  std::set<std::string> flags;
  std::optional<std::string> operand;  ///< the command's positional

  [[nodiscard]] bool has(const std::string& option) const {
    return options.count(option) != 0;
  }
  [[nodiscard]] bool flag(const std::string& name) const {
    return flags.count(name) != 0;
  }
  /// --option's value as its table kind parsed it: std::string for the text
  /// as given, any integer type for the unsigned kinds (already range-checked
  /// to fit), double, or the list/endpoint type of the kind.
  template <class T>
  [[nodiscard]] std::optional<T> get(const std::string& option) const {
    const auto it = options.find(option);
    if (it == options.end()) return std::nullopt;
    if constexpr (std::is_same_v<T, std::string>) {
      return it->second.first;
    } else if constexpr (std::is_integral_v<T>) {
      return static_cast<T>(std::get<std::uint64_t>(it->second.second));
    } else {
      return std::get<T>(it->second.second);
    }
  }
  template <class T>
  [[nodiscard]] T get(const std::string& option, T fallback) const {
    return get<T>(option).value_or(std::move(fallback));
  }
};

/// `text` split at `sep`, empty pieces dropped.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string piece; std::getline(in, piece, sep);) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

/// Checked numeric parsing. Every parse names the offending option and
/// value and rejects trailing junk ("12x"), signs on unsigned options
/// ("-3") and non-finite doubles ("nan").
std::uint64_t parse_u64(const std::string& option, const std::string& value) {
  std::uint64_t out = 0;
  const char* first = value.data();
  const char* last = first + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range) {
    throw UsageError("--" + option + "=" + value +
                     " is out of range (maximum " +
                     std::to_string(std::numeric_limits<std::uint64_t>::max()) +
                     ")");
  }
  if (ec != std::errc() || ptr != last || value.empty()) {
    throw UsageError("--" + option + "=" + value +
                     ": expected an unsigned integer");
  }
  return out;
}

double parse_double(const std::string& option, const std::string& value) {
  double out = 0.0;
  std::size_t consumed = 0;
  try {
    out = std::stod(value, &consumed);
  } catch (const std::invalid_argument&) {
    throw UsageError("--" + option + "=" + value + ": expected a number");
  } catch (const std::out_of_range&) {
    throw UsageError("--" + option + "=" + value +
                     " is out of range for a double");
  }
  if (consumed != value.size()) {
    throw UsageError("--" + option + "=" + value +
                     ": expected a number (trailing \"" +
                     value.substr(consumed) + "\")");
  }
  if (!std::isfinite(out)) {
    throw UsageError("--" + option + "=" + value +
                     ": expected a finite number");
  }
  return out;
}

/// A number of one of the bounded kinds (kPeriod ... kQuantile).
double parse_bounded(Kind kind, const std::string& option,
                     const std::string& value) {
  const double x = parse_double(option, value);
  const char* violated = nullptr;
  if (kind == Kind::kPeriod && !(x > 0.0)) violated = "must be positive";
  if (kind == Kind::kSeconds && x < 0.0) violated = "must not be negative";
  if (kind == Kind::kFactor && x < 1.0) violated = "must be at least 1";
  if (kind == Kind::kQuantile && (x < 0.0 || x > 1.0)) {
    violated = "must be within [0, 1]";
  }
  if (violated != nullptr) {
    throw UsageError("--" + option + "=" + value + ": " + violated);
  }
  return x;
}

/// host:port with a nonzero port; every error names the whole target.
fleet::WorkerEndpoint parse_endpoint(const std::string& option,
                                     const std::string& target) {
  const auto colon = target.rfind(':');
  std::uint64_t port = 0;
  if (colon != std::string::npos && colon != 0) {
    const char* last = target.data() + target.size();
    const auto [ptr, ec] =
        std::from_chars(target.data() + colon + 1, last, port);
    if (ec != std::errc() || ptr != last) port = 0;
  }
  if (port == 0 || port > 65535) {
    throw UsageError("--" + option + "=" + target +
                     ": expected host:port with a port in 1-65535");
  }
  return {target.substr(0, colon), static_cast<std::uint16_t>(port)};
}

Value parse_value(const Option& option, const std::string& text) {
  const std::string name = option.name;
  const std::string shown = "--" + name + "=" + text;
  switch (option.kind) {
    case Kind::kFlag:
    case Kind::kText:
      return std::monostate{};
    case Kind::kChoice: {
      const std::vector<std::string> choices = split(option.placeholder, '|');
      if (std::find(choices.begin(), choices.end(), text) == choices.end()) {
        throw UsageError(shown + ": expected " + option.placeholder);
      }
      return std::monostate{};
    }
    case Kind::kNames: {
      std::vector<std::string> names = split(text, ',');
      if (names.empty()) {
        throw UsageError(shown + ": expected a comma-separated list");
      }
      return names;
    }
    case Kind::kU64:
      return parse_u64(name, text);
    case Kind::kSize:
    case Kind::kCount: {
      const std::uint64_t n = parse_u64(name, text);
      if (n > std::numeric_limits<std::size_t>::max()) {
        throw UsageError(shown + " is out of range");
      }
      if (option.kind == Kind::kCount && n == 0) {
        throw UsageError(shown + ": must be at least 1");
      }
      return n;
    }
    case Kind::kPort: {
      const std::uint64_t port = parse_u64(name, text);
      if (port > 65535) {
        throw UsageError(shown + " is not a TCP port (0-65535)");
      }
      return port;
    }
    case Kind::kPeriod:
    case Kind::kSeconds:
    case Kind::kFactor:
    case Kind::kQuantile:
      return parse_bounded(option.kind, name, text);
    case Kind::kQuantiles: {
      std::vector<double> quantiles;
      for (const std::string& q : split(text, ',')) {
        quantiles.push_back(parse_bounded(Kind::kQuantile, name, q));
      }
      return quantiles;
    }
    case Kind::kEndpoint:
      return parse_endpoint(name, text);
    case Kind::kEndpoints: {
      std::vector<fleet::WorkerEndpoint> endpoints;
      for (const std::string& target : split(text, ',')) {
        endpoints.push_back(parse_endpoint(name, target));
      }
      return endpoints;
    }
  }
  return std::monostate{};  // unreachable: the switch covers every kind
}

/// argv against the command table: every option known to the command,
/// flags bare, values parsed by kind. Throws UsageError.
Cli parse_cli(int argc, char** argv) {
  Cli cli;
  cli.command = &find_command(argv[1]);
  const std::string for_command =
      std::string(" for command '") + cli.command->name + "'";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (cli.command->operand == nullptr || cli.operand) {
        throw UsageError("unexpected argument '" + arg + "'" + for_command +
                         " (options are --key=value)");
      }
      cli.operand = arg;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const bool bare = eq == std::string::npos;
    const std::string name = arg.substr(2, bare ? std::string::npos : eq - 2);
    const Option* option = cli.command->find(name);
    if (option == nullptr) {
      throw UsageError(std::string("unknown ") + (bare ? "flag " : "option ") +
                       arg + for_command + " (effitest_cli help " +
                       cli.command->name + " lists its options)");
    }
    if (bare != (option->kind == Kind::kFlag)) {
      throw UsageError(bare ? arg + " needs a value: " + arg + "=" +
                                  option->placeholder
                            : arg + ": --" + name +
                                  " is a flag and takes no value");
    }
    if (bare) {
      cli.flags.insert(name);
      continue;
    }
    const std::string text = arg.substr(eq + 1);
    cli.options.insert_or_assign(
        name, std::make_pair(text, parse_value(*option, text)));
  }
  return cli;
}

/// Prints `words` after `line`'s lead, wrapped at 79 columns onto lines
/// that start with `indent`.
void print_wrapped(std::ostream& os, std::string line,
                   const std::string& indent,
                   const std::vector<std::string>& words) {
  bool fresh = true;  // nothing after the lead yet
  for (const std::string& word : words) {
    if (!fresh && line.size() + 1 + word.size() > 79) {
      os << line << '\n';
      line = indent;
      fresh = true;
    }
    line += (fresh ? "" : " ") + word;
    fresh = false;
  }
  os << line << '\n';
}

/// `effitest_cli help`: every command (or just `only`) rendered from the
/// table — its options as [--name=placeholder], then its summary.
void print_usage(std::ostream& os, const Command* only = nullptr) {
  os << "usage: effitest_cli <command> [options]\n";
  for (const Command& command : commands()) {
    if (only != nullptr && only != &command) continue;
    std::vector<std::string> words;
    if (command.operand != nullptr) words.emplace_back(command.operand);
    for (const Option* o : command.options) {
      words.push_back(std::string("[--") + o->name +
                      (o->kind == Kind::kFlag ? "" : "=") + o->placeholder +
                      "]");
    }
    std::string lead = std::string("  ") + command.name;
    lead.resize(11, ' ');
    print_wrapped(os, lead, std::string(11, ' '), words);
    print_wrapped(os, "      ", "      ", split(command.summary, ' '));
  }
  if (only != nullptr) return;
  const auto names = [](const std::vector<netlist::GeneratorSpec>& specs) {
    std::vector<std::string> out;
    for (const netlist::GeneratorSpec& spec : specs) out.push_back(spec.name);
    return out;
  };
  print_wrapped(os, "paper circuits: ", "  ",
                names(netlist::paper_benchmark_specs()));
  print_wrapped(os, "extended circuits (full ISCAS89 scale): ", "  ",
                names(netlist::extended_benchmark_specs()));
}

int cmd_help(const Cli& cli) {
  print_usage(std::cout,
              cli.operand ? &find_command(*cli.operand) : nullptr);
  return 0;
}

/// The one-shot catalog entry --circuit or --bench names: the same
/// construction path (scenario::CircuitCatalog) campaigns and scenario
/// specs use.
std::shared_ptr<const scenario::PreparedCircuit> provision_circuit(
    const Cli& cli) {
  scenario::CircuitCatalog catalog;
  if (const auto circuit = cli.get<std::string>("circuit")) {
    // No-silent-surprises: these knobs only shape .bench imports
    // (generated circuits carry their own buffer set).
    if (cli.has("buffers") || cli.has("policy")) {
      throw UsageError(
          "--buffers/--policy apply to --bench imports only; --circuit "
          "circuits carry their own buffer set");
    }
    catalog.add(*circuit, scenario::PaperCircuit{
                              *circuit, cli.get<std::uint64_t>("seed")});
    return catalog.resolve(*circuit);
  }
  const auto path = cli.get<std::string>("bench");
  if (!path) throw UsageError("need --circuit=<name> or --bench=<file>");
  scenario::BenchCircuit spec;
  spec.path = *path;
  spec.num_buffers = cli.get<std::size_t>("buffers");
  if (const auto policy = cli.get<std::string>("policy")) {
    spec.policy = scenario::buffer_policy_from(*policy);
  }
  catalog.add("bench", spec);
  return catalog.resolve("bench");
}

/// provision_circuit for the commands that tune chips, which need at least
/// one monitored path.
std::shared_ptr<const scenario::PreparedCircuit> provision_tunable(
    const Cli& cli) {
  auto circuit = provision_circuit(cli);
  if (circuit->model.num_pairs() == 0) {
    throw std::runtime_error(
        "no monitored paths (no FF pair touches a buffer)");
  }
  return circuit;
}

/// The log group: logging is enabled iff at least one of its two options
/// is present; the format defaults to JSON, the sink to stderr. nullptr
/// when logging is off — the zero-overhead contract call sites rely on.
std::unique_ptr<obs::StructuredLog> make_structured_log(const Cli& cli) {
  if (!cli.has("log-format") && !cli.has("log-file")) return nullptr;
  // The table admitted only text|json.
  const obs::LogFormat format =
      cli.get("log-format", std::string("json")) == "text"
          ? obs::LogFormat::kText
          : obs::LogFormat::kJson;
  if (const auto file_path = cli.get<std::string>("log-file")) {
    return obs::StructuredLog::open_file(*file_path, format);
  }
  // std::clog: stderr, buffered — event lines never interleave with the
  // command's stdout tables/JSON announcements.
  return std::make_unique<obs::StructuredLog>(std::clog, format);
}

/// The listen group, shared by serve and balance.
void listen_options_from(const Cli& cli, net::ListenOptions& listen) {
  listen.host = cli.get("host", listen.host);
  listen.port = cli.get("port", listen.port);
  listen.status_port = cli.get("status-port", listen.status_port);
  listen.max_pending = cli.get("max-pending", listen.max_pending);
  listen.max_sessions = cli.get("max-sessions", listen.max_sessions);
  listen.io_timeout_seconds =
      cli.get("io-timeout", listen.io_timeout_seconds);
}

int cmd_generate(const Cli& cli) {
  const auto name = cli.get<std::string>("circuit");
  if (!name) throw UsageError("generate needs --circuit=<name>");
  netlist::GeneratorSpec spec = netlist::paper_benchmark_spec(*name);
  spec.seed = cli.get("seed", spec.seed);
  const netlist::GeneratedCircuit gen = netlist::generate_circuit(spec);
  std::cout << "generated " << spec.name << ": "
            << gen.netlist.num_flip_flops() << " FFs, "
            << gen.netlist.num_combinational_gates() << " gates, "
            << gen.buffered_ffs.size() << " buffers, "
            << gen.critical_edges.size() << " monitored paths\n";
  if (const auto out = cli.get<std::string>("out")) {
    netlist::write_bench_file(gen.netlist, *out);
    std::cout << "wrote " << *out << " (with #!place placement sidecar)\n";
    std::cout << "buffered flip-flops:";
    for (int ff : gen.buffered_ffs) {
      std::cout << ' ' << gen.netlist.cell(ff).name;
    }
    std::cout << '\n';
  }
  return 0;
}

int cmd_info(const Cli& cli) {
  const auto circuit = provision_circuit(cli);
  const auto pairs = timing::TimingGraph(circuit->netlist, circuit->library)
                         .all_pair_delays();
  double critical = 0.0;
  for (const auto& pd : pairs) critical = std::max(critical, pd.max_delay);
  std::cout << "circuit:            " << circuit->netlist.name() << '\n'
            << "primary inputs:     "
            << circuit->netlist.primary_inputs().size() << '\n'
            << "flip-flops:         " << circuit->netlist.num_flip_flops()
            << '\n'
            << "combinational:      "
            << circuit->netlist.num_combinational_gates() << '\n'
            << "FF-pair edges:      " << pairs.size() << '\n'
            << "critical delay:     " << critical << " ps\n"
            << "tuning buffers:     " << circuit->buffered_ffs.size() << '\n'
            << "monitored paths:    " << circuit->model.num_pairs() << '\n'
            << "discarded (static): " << circuit->model.num_discarded_pairs()
            << '\n';
  return 0;
}

int cmd_ssta(const Cli& cli) {
  const auto log = make_structured_log(cli);
  const auto circuit = provision_circuit(cli);
  const core::Problem& problem = circuit->problem;
  const std::size_t chips = cli.get("chips", std::size_t{4000});
  const std::size_t threads = cli.get("threads", std::size_t{0});
  const bool criticality = cli.flag("criticality");
  const bool tuned = cli.flag("tuned") || criticality;
  if (log != nullptr) {
    log->emit(
        "ssta", "ssta_begin",
        {obs::LogField::str("circuit", circuit->netlist.name()),
         obs::LogField::u64("chips", static_cast<std::uint64_t>(chips)),
         obs::LogField::boolean("tuned", tuned)});
  }

  // Post-tuning analysis: the analytic engine vs the exact per-die
  // Monte-Carlo reference on the same contracted constraint graph. The
  // engine's untuned form is the Clark period of the model's forms, so
  // it is not folded twice.
  std::optional<analytic::TunedPeriodAnalysis> tuned_analysis;
  double analytic_seconds = 0.0;
  if (tuned) {
    const auto a0 = std::chrono::steady_clock::now();
    tuned_analysis = analytic::analyze_tuned_period(problem, threads);
    analytic_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - a0)
            .count();
  }
  const timing::CanonicalDelay analytic =
      tuned ? tuned_analysis->untuned
            : timing::ssta_required_period(circuit->model);

  // The Monte-Carlo columns sample die c on Rng(index_seed(base, c)), base
  // the first word of core::calibration_stream(--seed), so at --chips=2000
  // the MC T1 is the T_d `run` picks. With --tuned one pass samples every
  // die once for both columns, so they compare the same dies, and the
  // untuned one matches the plain command.
  stats::Rng rng =
      core::calibration_stream(cli.get("seed", core::FlowOptions{}.seed));
  analytic::McTunedPeriod tuned_mc;
  double mc_seconds = 0.0;
  std::vector<double> untuned_mc;  // one required period per die
  if (tuned) {
    analytic::McTunedOptions mopts;
    mopts.chips = chips;
    mopts.seed = rng.engine()();
    mopts.threads = threads;
    const auto m0 = std::chrono::steady_clock::now();
    tuned_mc = analytic::mc_tuned_period(problem, mopts);
    mc_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - m0)
            .count();
    untuned_mc = tuned_mc.untuned;
  } else {
    untuned_mc = core::sample_required_periods(problem, chips, rng, threads);
  }
  const double mc_t1 = stats::quantile(untuned_mc, 0.5);
  const double mc_t2 = stats::quantile(untuned_mc, 0.8413);

  core::Table t({"quantity", "analytic (Clark)", "Monte-Carlo"});
  t.add_row({"mean required period (ps)", core::Table::num(analytic.mean, 2),
             "-"});
  t.add_row({"sigma (ps)", core::Table::num(analytic.sigma(), 2), "-"});
  t.add_row({"T1 = 50% quantile", core::Table::num(analytic.quantile(0.5), 2),
             core::Table::num(mc_t1, 2)});
  t.add_row({"T2 = 84.13% quantile",
             core::Table::num(analytic.quantile(0.8413), 2),
             core::Table::num(mc_t2, 2)});
  if (tuned) {
    t.add_row({"tuned mean (ps)",
               core::Table::num(tuned_analysis->tuned.mean, 2),
               core::Table::num(tuned_mc.mean, 2)});
    t.add_row({"tuned sigma (ps)",
               core::Table::num(tuned_analysis->tuned.sigma(), 2),
               core::Table::num(tuned_mc.sigma, 2)});
    t.add_row({"tuned T1 = 50% quantile",
               core::Table::num(tuned_analysis->tuned.quantile(0.5), 2),
               core::Table::num(tuned_mc.quantile(0.5), 2)});
    t.add_row({"tuned T2 = 84.13% quantile",
               core::Table::num(tuned_analysis->tuned.quantile(0.8413), 2),
               core::Table::num(tuned_mc.quantile(0.8413), 2)});
  }
  t.print(std::cout);
  if (tuned) {
    std::cout << "post-tuning analysis: " << tuned_analysis->candidates.size()
              << " candidate cycle(s), engine "
              << core::Table::num(analytic_seconds * 1e3, 2) << " ms vs "
              << chips << "-chip MC "
              << core::Table::num(mc_seconds * 1e3, 2) << " ms\n";
  }

  if (criticality) {
    // Rank register pairs by their probability of limiting the tuned
    // period (candidate mass split over each dominant cycle).
    std::vector<std::size_t> order(tuned_analysis->pair_criticality.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                     std::size_t b) {
      return tuned_analysis->pair_criticality[a] >
             tuned_analysis->pair_criticality[b];
    });
    core::Table ct({"pair", "src FF", "dst FF", "criticality (%)"});
    std::size_t shown = 0;
    for (const std::size_t p : order) {
      if (shown >= 10 || tuned_analysis->pair_criticality[p] < 1e-6) break;
      const timing::MonitoredPair& pair = circuit->model.pairs()[p];
      ct.add_row({core::Table::num(p),
                  circuit->netlist.cell(pair.src_ff).name,
                  circuit->netlist.cell(pair.dst_ff).name,
                  core::Table::num(
                      tuned_analysis->pair_criticality[p] * 100, 2)});
      ++shown;
    }
    std::cout << "\npost-tuning criticality (top " << shown << " of "
              << tuned_analysis->pair_criticality.size() << " pairs, "
              << core::Table::num(tuned_analysis->static_criticality * 100, 2)
              << "% on static background):\n";
    ct.print(std::cout);
  }

  if (log != nullptr) {
    if (tuned) {
      log->emit(
          "ssta", "ssta_complete",
          {obs::LogField::str("circuit", circuit->netlist.name()),
           obs::LogField::f64("untuned_mean", analytic.mean),
           obs::LogField::f64("untuned_sigma", analytic.sigma()),
           obs::LogField::f64("mc_t1", mc_t1),
           obs::LogField::f64("tuned_mean", tuned_analysis->tuned.mean),
           obs::LogField::f64("tuned_sigma", tuned_analysis->tuned.sigma()),
           obs::LogField::f64("mc_tuned_mean", tuned_mc.mean)});
    } else {
      log->emit(
          "ssta", "ssta_complete",
          {obs::LogField::str("circuit", circuit->netlist.name()),
           obs::LogField::f64("untuned_mean", analytic.mean),
           obs::LogField::f64("untuned_sigma", analytic.sigma()),
           obs::LogField::f64("mc_t1", mc_t1)});
    }
  }

  if (const auto json_path = cli.get<std::string>("json")) {
    io::JsonReporter json("ssta", threads);
    const std::string label = circuit->netlist.name();
    const auto record = [&](const char* metric, double value,
                            double seconds) {
      json.add(label, metric, value, seconds);
    };
    record("untuned_mean", analytic.mean, 0.0);
    record("untuned_sigma", analytic.sigma(), 0.0);
    record("mc_t1", mc_t1, 0.0);
    record("mc_t2", mc_t2, 0.0);
    if (tuned) {
      record("tuned_mean", tuned_analysis->tuned.mean, analytic_seconds);
      record("tuned_sigma", tuned_analysis->tuned.sigma(), analytic_seconds);
      record("candidates",
             static_cast<double>(tuned_analysis->candidates.size()),
             analytic_seconds);
      record("mc_tuned_mean", tuned_mc.mean, mc_seconds);
      record("mc_tuned_sigma", tuned_mc.sigma, mc_seconds);
      record("engine_seconds", analytic_seconds, analytic_seconds);
    }
    std::cout << "machine-readable output: " << json.write_file(*json_path)
              << '\n';
  }
  return 0;
}

/// The flow group plus run's prediction/alignment switches.
core::FlowOptions flow_options_from(const Cli& cli,
                                    const core::Problem& problem) {
  core::FlowOptions opts;
  opts.chips = cli.get("chips", opts.chips);
  opts.seed = cli.get("seed", opts.seed);
  opts.designated_period = cli.get("td", opts.designated_period);
  opts.use_prediction = !cli.flag("no-prediction");
  opts.test.align_with_buffers = !cli.flag("no-alignment");
  opts.threads = cli.get("threads", opts.threads);
  if (const auto q = cli.get<double>("quantile")) {
    opts.designated_period = stats::sorted_quantile(
        core::calibration_sample(problem, opts.seed, opts.threads), *q);
  }
  return opts;
}

int cmd_run(const Cli& cli) {
  const auto log = make_structured_log(cli);
  const auto circuit = provision_tunable(cli);
  const core::FlowOptions opts = flow_options_from(cli, circuit->problem);

  if (log != nullptr) {
    log->emit(
        "run", "run_begin",
        {obs::LogField::str("circuit", circuit->netlist.name()),
         obs::LogField::u64("chips", static_cast<std::uint64_t>(opts.chips)),
         obs::LogField::u64("seed", opts.seed)});
  }
  const core::FlowResult r = core::run_flow(circuit->problem, opts);
  const core::FlowMetrics& m = r.metrics;
  if (log != nullptr) {
    log->emit("run", "run_complete",
                   {obs::LogField::str("circuit", circuit->netlist.name()),
                    obs::LogField::f64("td", m.designated_period),
                    obs::LogField::f64("ta", m.ta),
                    obs::LogField::f64("ra", m.ra),
                    obs::LogField::f64("yield_proposed", m.yield_proposed)});
  }
  core::Table t({"metric", "value"});
  t.add_row(
      {"designated period (ps)", core::Table::num(m.designated_period, 2)});
  t.add_row({"monitored paths np", core::Table::num(m.np)});
  t.add_row({"tested paths npt", core::Table::num(m.npt)});
  t.add_row({"batches", core::Table::num(m.num_batches)});
  t.add_row({"epsilon (ps)", core::Table::num(m.epsilon_ps, 3)});
  t.add_row({"iterations/chip ta", core::Table::num(m.ta, 2)});
  t.add_row({"iterations/tested path tv", core::Table::num(m.tv, 2)});
  t.add_row({"path-wise t'a", core::Table::num(m.ta_pathwise, 0)});
  t.add_row({"reduction ra (%)", core::Table::num(m.ra, 2)});
  t.add_row({"reduction rv (%)", core::Table::num(m.rv, 2)});
  t.add_row(
      {"yield untuned (%)", core::Table::num(m.yield_no_buffer * 100, 2)});
  t.add_row(
      {"yield proposed yt (%)", core::Table::num(m.yield_proposed * 100, 2)});
  t.add_row({"yield ideal yi (%)", core::Table::num(m.yield_ideal * 100, 2)});
  t.add_row({"yield drop yr (%)", core::Table::num(m.yield_drop * 100, 2)});
  t.add_row({"prep Tp (s)", core::Table::num(m.tp_seconds, 3)});
  t.add_row({"align Tt (s/chip)", core::Table::num(m.tt_seconds_per_chip, 5)});
  t.add_row({"config Ts (s/chip)", core::Table::num(m.ts_seconds_per_chip, 5)});
  t.print(std::cout);

  if (const auto json_path = cli.get<std::string>("json")) {
    io::JsonReporter json("run", opts.threads);
    const std::string label = circuit->netlist.name();
    const auto record = [&](const char* metric, double value) {
      json.add(label, metric, value);
    };
    record("td", m.designated_period);
    record("epsilon", m.epsilon_ps);
    record("np", static_cast<double>(m.np));
    record("npt", static_cast<double>(m.npt));
    record("ta", m.ta);
    record("tv", m.tv);
    record("t'a", m.ta_pathwise);
    record("t'v", m.tv_pathwise);
    record("ra", m.ra);
    record("rv", m.rv);
    record("yield_no_buffer", m.yield_no_buffer);
    record("yield_proposed", m.yield_proposed);
    record("yield_ideal", m.yield_ideal);
    std::cout << "machine-readable output: " << json.write_file(*json_path)
              << '\n';
  }
  return 0;
}

int cmd_campaign(const Cli& cli) {
  const auto log = make_structured_log(cli);
  core::CampaignOptions copts;
  std::vector<core::CampaignJob> jobs;
  // The report's bench name: a spec run reports under the scenario's name,
  // so committed baselines and claims can name the artifact it reproduces.
  std::string bench = "campaign";

  if (const auto spec_path = cli.get<std::string>("spec")) {
    if (cli.has("circuits") || cli.has("quantiles") || cli.has("modes")) {
      throw UsageError(
          "campaign: --spec carries its own circuits, quantiles and modes; "
          "drop --circuits/--quantiles/--modes");
    }
    io::Scenario scenario = io::load_scenario_file(*spec_path);
    copts = std::move(scenario.options);
    jobs = std::move(scenario.jobs);
    bench = scenario.name;
    std::cout << "scenario " << scenario.name << ": " << jobs.size()
              << " job(s) over " << scenario.catalog->names().size()
              << " registered circuit(s)\n";
  } else {
    std::vector<core::JobKind> kinds;
    for (const std::string& mode :
         split(cli.get("modes", std::string()), ',')) {
      try {
        kinds.push_back(core::job_kind_from(mode));
      } catch (const std::invalid_argument& e) {
        throw UsageError("--modes=" + mode + ": " + e.what());
      }
    }
    std::vector<std::string> circuits;
    for (const netlist::GeneratorSpec& spec :
         netlist::paper_benchmark_specs()) {
      circuits.push_back(spec.name);
    }
    jobs = core::CampaignRunner::cross(
        cli.get("circuits", std::move(circuits)),
        cli.get("quantiles", std::vector<double>()), kinds);
  }

  // Explicit CLI options override the spec's knobs (and fill the defaults
  // of the spec-less path).
  copts.flow.chips = cli.get("chips", copts.flow.chips);
  copts.flow.seed = cli.get("seed", copts.flow.seed);
  copts.threads = cli.get("threads", copts.threads);  // flow.threads 0 inherits
  copts.random_inflation = cli.get("inflation", copts.random_inflation);
  copts.max_jobs = cli.get("stop-after", copts.max_jobs);

  // Checkpoint/resume plumbing (io/checkpoint_json.hpp). The identity hash
  // covers the result-affecting options and the full job list, so a
  // checkpoint from a different campaign is rejected before anything runs.
  const auto checkpoint_path = cli.get<std::string>("checkpoint");
  const bool resume = cli.flag("resume");
  if (resume && !checkpoint_path) {
    throw UsageError("campaign: --resume needs --checkpoint=<file>");
  }
  std::unique_ptr<io::CheckpointWriter> writer;
  if (checkpoint_path) {
    const std::string identity = io::campaign_identity(jobs, copts);
    if (resume) {
      io::CampaignCheckpoint loaded =
          io::load_campaign_checkpoint(*checkpoint_path);
      io::validate_campaign_checkpoint(loaded, identity, jobs.size(),
                                       *checkpoint_path);
      std::cout << "resuming " << *checkpoint_path << ": "
                << loaded.completed.size() << "/" << jobs.size()
                << " job(s) already done\n";
      copts.completed = std::move(loaded.completed);
    } else if (std::ifstream(*checkpoint_path).good()) {
      // Never clobber a checkpoint silently: it may belong to a run the
      // user meant to resume.
      throw UsageError("campaign: checkpoint " + *checkpoint_path +
                       " already exists; pass --resume to continue it or "
                       "remove it first");
    }
    writer = std::make_unique<io::CheckpointWriter>(
        *checkpoint_path, identity, jobs.size(), copts.completed);
    copts.on_job_complete = [&writer](std::size_t index,
                                      const core::CampaignJobResult& r) {
      writer->record(index, r);
    };
  }
  copts.log = log.get();  // one job_complete event per finished job

  const core::CampaignResult result = core::CampaignRunner(copts).run(jobs);

  core::Table t({"circuit", "kind", "q", "Td(ps)", "np", "npt", "ta",
                 "ra(%)", "yt(%)", "yi(%)", "y0(%)", "job(s)"});
  for (const core::CampaignJobResult& r : result.jobs) {
    if (!r.completed) continue;  // left pending by --stop-after
    const core::FlowMetrics& m = r.metrics;
    const bool is_analytic = r.job.kind == core::JobKind::kAnalytic;
    t.add_row({
        r.job.circuit,
        core::job_kind_name(r.job.kind),
        r.job.quantile >= 0.0
            ? core::Table::num(r.job.quantile, 4)
            : (r.job.designated_period > 0.0 ? "Td" : "T1"),
        core::Table::num(m.designated_period, 2),
        core::Table::num(m.np),
        is_analytic ? "-" : core::Table::num(m.npt),
        is_analytic ? "-" : core::Table::num(m.ta, 2),
        is_analytic ? "-" : core::Table::num(m.ra, 2),
        is_analytic ? "-" : core::Table::num(m.yield_proposed * 100, 2),
        core::Table::num(m.yield_ideal * 100, 2),
        core::Table::num(m.yield_no_buffer * 100, 2),
        core::Table::num(r.seconds, 2),
    });
  }
  t.print(std::cout);
  const std::size_t done = result.completed_jobs();
  double job_seconds = 0.0;
  for (const core::CampaignJobResult& r : result.jobs) job_seconds += r.seconds;
  std::cout << "\ncampaign wall time: "
            << core::Table::num(result.total_seconds, 2) << " s (" << done
            << "/" << result.jobs.size() << " jobs, "
            << core::Table::num(job_seconds, 2)
            << " s of job time; artifacts reused within circuits)\n";

  if (const auto json_path = cli.get<std::string>("json")) {
    io::JsonReporter json(bench, copts.threads);
    for (const core::CampaignJobResult& r : result.jobs) {
      if (!r.completed) continue;
      const core::FlowMetrics& m = r.metrics;
      // One label per (circuit, kind, quantile/period) so sweep jobs stay
      // distinct.
      std::string label = r.job.circuit;
      if (r.job.kind != core::JobKind::kFlow) {
        label += std::string("@") + core::job_kind_name(r.job.kind);
      }
      if (r.job.quantile >= 0.0) {
        label += "@q" + core::Table::num(r.job.quantile, 4);
      } else if (r.job.designated_period > 0.0) {
        label += "@td" + core::Table::num(r.job.designated_period, 2);
      }
      const auto record = [&](const char* metric, double value) {
        json.add(label, metric, value, r.seconds);
      };
      record("td", m.designated_period);
      record("ns", static_cast<double>(m.ns));
      record("ng", static_cast<double>(m.ng));
      record("nb", static_cast<double>(m.nb));
      record("np", static_cast<double>(m.np));
      record("yield_no_buffer", m.yield_no_buffer);
      record("yield_ideal", m.yield_ideal);
      if (r.job.kind == core::JobKind::kAnalytic) {
        record("untuned_mean", m.untuned_mean);
        record("untuned_sigma", m.untuned_sigma);
        record("tuned_mean", m.tuned_mean);
        record("tuned_sigma", m.tuned_sigma);
      } else {
        record("npt", static_cast<double>(m.npt));
        record("ta", m.ta);
        record("tv", m.tv);
        record("t'a", m.ta_pathwise);
        record("t'v", m.tv_pathwise);
        record("ra", m.ra);
        record("rv", m.rv);
        record("yield_proposed", m.yield_proposed);
        // The sample size behind the yields: claims compare them within
        // binomial half-widths (tools/check_bench_json.py).
        record("chips", static_cast<double>(copts.flow.chips));
      }
    }
    std::cout << "machine-readable output: " << json.write_file(*json_path)
              << '\n';
  }
  if (done < result.jobs.size()) {
    std::cout << "campaign stopped after " << done << "/" << result.jobs.size()
              << " job(s)";
    if (checkpoint_path) {
      std::cout << " — resume with --checkpoint=" << *checkpoint_path
                << " --resume";
    }
    std::cout << '\n';
    return 3;  // distinct from success (0) and usage/runtime errors (2/1)
  }
  return 0;
}

int cmd_circuits(const Cli& cli) {
  std::shared_ptr<const scenario::CircuitCatalog> catalog;
  if (const auto spec_path = cli.get<std::string>("spec")) {
    catalog = io::load_scenario_file(*spec_path).catalog;
  } else {
    catalog = scenario::CircuitCatalog::shared_paper();
  }
  core::Table t({"circuit", "spec"});
  for (const std::string& name : catalog->names()) {
    t.add_row({name, catalog->describe(name)});
  }
  t.print(std::cout);
  std::cout << "(campaign jobs name these; resolve is memoized per "
               "(circuit, inflation))\n";
  return 0;
}

/// The tester side of a networked session (`tune --connect=host:port`):
/// provision the circuit locally (the variation model is all a simulated
/// tester needs — no offline phase), run one session against the server,
/// and echo its report lines on stdout.
int cmd_tune_connect(const Cli& cli, const fleet::WorkerEndpoint& server) {
  // Everything the server decides is rejected loudly rather than silently
  // ignored: the tuner group, its logging, and the local response sources.
  for (const Option* option :
       join({kTunerGroup, kLogGroup, {&kLog, &kResponses}})) {
    if (cli.has(option->name)) {
      throw UsageError(std::string("tune: --") + option->name +
                       " is a server-side decision in --connect mode");
    }
  }
  if (cli.flag("simulate")) {
    throw UsageError(
        "tune: --simulate and --connect are mutually exclusive (a connected "
        "session already simulates its dies against the server)");
  }

  const auto circuit = provision_tunable(cli);
  net::ClientOptions copts;
  copts.chips = cli.get("chips", copts.chips);
  copts.window = cli.get("window", copts.window);
  copts.connect_retries = cli.get("connect-retries", copts.connect_retries);
  copts.lenient = cli.flag("lenient");
  const net::ClientResult result = net::run_loopback_client(
      server.host, server.port, circuit->problem, copts);
  for (const std::string& line : result.report_lines) {
    std::cout << line << '\n';
  }
  for (const std::string& line : result.error_lines) {
    std::cerr << line << '\n';
  }
  std::cerr << "tuned " << result.report_lines.size() << " chip(s) over "
            << server.to_string() << " (session " << result.session_id
            << ", seed " << result.seed_base << ", "
            << result.stimuli_answered << " tester iterations)";
  if (!result.error_lines.empty()) {
    std::cerr << " (" << result.error_lines.size() << " chip(s) abandoned)";
  }
  std::cerr << '\n';
  return 0;
}

int cmd_tune(const Cli& cli) {
  if (const auto server = cli.get<fleet::WorkerEndpoint>("connect")) {
    return cmd_tune_connect(cli, *server);
  }
  if (cli.has("connect-retries")) {
    throw UsageError(
        "tune: --connect-retries only applies with --connect=host:port");
  }
  // Mode exclusivity up front: --simulate answers stimuli itself, so a
  // --responses log would be ignored; --log records the simulated
  // responses and means nothing without --simulate.
  if (cli.flag("simulate") && cli.has("responses")) {
    throw UsageError("tune: --simulate and --responses are mutually exclusive");
  }
  if (cli.has("log") && !cli.flag("simulate")) {
    throw UsageError(
        "tune: --log only records simulated responses; combine it with "
        "--simulate");
  }
  const auto log = make_structured_log(cli);
  const auto circuit = provision_tunable(cli);
  core::FlowOptions opts = flow_options_from(cli, circuit->problem);
  const std::size_t chips = cli.get("chips", std::size_t{1});

  // The shared-ownership constructor: the service keeps the provisioned
  // bundle alive for every session it mints.
  const core::TunerService service(circuit, opts);
  io::TuneServerOptions topts;
  topts.lenient = cli.flag("lenient");
  topts.chip_window = cli.get("window", topts.chip_window);
  topts.log = log.get();  // per-chip begin/final_test/report events
  io::TuneServer server(service, chips, topts);

  io::TuneServerResult result;
  if (cli.flag("simulate")) {
    std::ofstream log_file;
    std::ostream* log_stream = nullptr;
    if (const auto log_path = cli.get<std::string>("log")) {
      log_file.open(*log_path);
      if (!log_file) {
        throw std::runtime_error("tune: cannot open --log file " + *log_path);
      }
      log_stream = &log_file;
    }
    result = server.run_simulated(std::cout, log_stream);
  } else if (const auto responses = cli.get<std::string>("responses")) {
    std::ifstream in(*responses);
    if (!in) {
      throw std::runtime_error("tune: cannot open --responses file " +
                               *responses);
    }
    result = server.run(in, std::cout);
  } else {
    result = server.run(std::cin, std::cout);
  }

  std::size_t passed = 0;
  for (const core::ChipReport& r : result.reports) {
    if (r.passed.value_or(false)) ++passed;
  }
  std::size_t errored = 0;
  for (std::size_t c = 0; c < result.errors.size(); ++c) {
    if (result.errors[c].empty()) continue;
    ++errored;
    std::cerr << "chip " << c << " abandoned: " << result.errors[c] << '\n';
  }
  std::cerr << "tuned " << result.reports.size() - errored << " chip(s), "
            << result.stimuli << " tester iterations, " << passed
            << " passed at Td="
            << core::Table::num(service.designated_period(), 2) << " ps";
  if (errored > 0 || result.dropped_lines > 0) {
    std::cerr << " (" << errored << " chip(s) abandoned, "
              << result.dropped_lines << " line(s) dropped)";
  }
  std::cerr << '\n';
  return 0;
}

int cmd_serve(const Cli& cli) {
  const auto log = make_structured_log(cli);
  net::ServeOptions sopts;
  sopts.log = log.get();
  listen_options_from(cli, sopts);
  sopts.workers = cli.get("workers", sopts.workers);
  sopts.chip_window = cli.get("window", sopts.chip_window);
  sopts.max_chips_per_session =
      cli.get("max-chips", sopts.max_chips_per_session);

  const auto circuit = provision_tunable(cli);
  core::FlowOptions opts = flow_options_from(cli, circuit->problem);
  const core::TunerService service(circuit, opts);

  net::TuneServeLoop loop(service, sopts);
  loop.start();
  loop.drain_on_signals();
  // The line scripts (and the CI smoke step) wait for; std::endl flushes so
  // a pipe reader sees it before the first session lands.
  std::cout << "serving on " << loop.host() << ":" << loop.port()
            << std::endl;
  if (sopts.status_port >= 0) {
    std::cout << "status on " << loop.host() << ":" << loop.status_port()
              << std::endl;
  }
  loop.wait();

  const obs::RegistrySnapshot m = loop.metrics();
  const obs::HistogramSnapshot* latency =
      m.histogram(net::kMetricSessionLatency);
  const auto latency_ms = [latency](double q) {
    return latency == nullptr ? 0.0 : latency->quantile(q) * 1e3;
  };
  std::cerr << "served " << m.counter(net::kMetricSessionsCompleted)
            << " session(s) (" << m.counter(net::kMetricSessionsFailed)
            << " failed), " << m.counter(net::kMetricChipsTuned)
            << " chip(s), " << m.counter(net::kMetricStimuli)
            << " stimuli in "
            << core::Table::num(m.gauge(net::kMetricWallSeconds), 2)
            << " s ("
            << core::Table::num(m.gauge(net::kMetricSessionsPerSec), 1)
            << " sessions/s); latency p50/p90/p99 "
            << core::Table::num(latency_ms(0.50), 2) << "/"
            << core::Table::num(latency_ms(0.90), 2) << "/"
            << core::Table::num(latency_ms(0.99), 2) << " ms\n";
  return 0;
}

int cmd_balance(const Cli& cli) {
  const auto log = make_structured_log(cli);

  const auto endpoints =
      cli.get("workers", std::vector<fleet::WorkerEndpoint>());
  const std::size_t spawn = cli.get("spawn", std::size_t{0});
  if (endpoints.empty() && spawn == 0) {
    throw UsageError("balance needs --workers=host:port,... and/or --spawn=N");
  }
  // The circuit and tuner groups configure the spawned serve children;
  // with only external --workers they would be silently ignored — reject
  // instead.
  const OptionList forwarded = join({kCircuitGroup, kTunerGroup});
  if (spawn == 0) {
    for (const Option* option : forwarded) {
      if (cli.has(option->name)) {
        throw UsageError(std::string("balance: --") + option->name +
                         " configures --spawn'd workers; external --workers "
                         "carry their own circuit");
      }
    }
  } else if (!cli.has("circuit") && !cli.has("bench")) {
    // The children must be able to provision a circuit at all; fail here
    // rather than with N cryptic child exits.
    throw UsageError(
        "balance: --spawn needs --circuit=<name> or --bench=<file> for the "
        "workers");
  }

  fleet::RegistryOptions ropts;
  ropts.probe_interval_seconds =
      cli.get("probe-interval", ropts.probe_interval_seconds);
  fleet::WorkerRegistry registry(ropts);
  for (const fleet::WorkerEndpoint& endpoint : endpoints) {
    (void)registry.add_worker(endpoint);
  }
  std::vector<std::size_t> spawn_slots;
  spawn_slots.reserve(spawn);
  for (std::size_t i = 0; i < spawn; ++i) {
    // Port unknown until the child's banner; the slot starts unroutable.
    spawn_slots.push_back(
        registry.add_worker(fleet::WorkerEndpoint{"127.0.0.1", 0}));
  }

  std::unique_ptr<fleet::ProcessSupervisor> supervisor;
  if (spawn > 0) {
    fleet::SupervisorOptions sup;
    sup.children = spawn;
    sup.log = log.get();
    sup.argv = {"/proc/self/exe", "serve", "--port=0"};
    for (const Option* option : forwarded) {
      if (const auto value = cli.get<std::string>(option->name)) {
        sup.argv.push_back(std::string("--") + option->name + "=" + *value);
      }
    }
    supervisor = std::make_unique<fleet::ProcessSupervisor>(
        std::move(sup),
        [&registry, spawn_slots](std::size_t child,
                                 const fleet::WorkerEndpoint& endpoint) {
          registry.update_endpoint(spawn_slots[child], endpoint);
        });
  }

  fleet::BalancerOptions bopts;
  bopts.log = log.get();
  listen_options_from(cli, bopts);
  bopts.relay_workers = cli.get("relay-workers", bopts.relay_workers);
  bopts.max_session_retries = cli.get("retries", bopts.max_session_retries);

  // All registry slots exist by here (the FleetBalancer per-slot gauge
  // contract); endpoints still flow in from banners afterwards.
  fleet::FleetBalancer balancer(registry, bopts);
  if (supervisor != nullptr) supervisor->start();  // blocks until banners
  registry.start_probing();
  balancer.start();
  balancer.drain_on_signals();
  std::cout << "balancing on " << balancer.host() << ":" << balancer.port()
            << std::endl;
  if (bopts.status_port >= 0) {
    std::cout << "status on " << balancer.host() << ":"
              << balancer.status_port() << std::endl;
  }
  balancer.wait();
  // Supervisor drain (kill/waitpid/join) runs here on the main thread, never
  // from the signal handler.
  registry.stop_probing();
  if (supervisor != nullptr) supervisor->drain();

  const obs::RegistrySnapshot m = balancer.metrics();
  std::cerr << "balanced " << m.counter(fleet::kFleetSessionsCompleted)
            << " session(s) (" << m.counter(fleet::kFleetSessionsFailed)
            << " failed, " << m.counter(fleet::kFleetSessionsRetried)
            << " retried) across " << registry.size() << " worker(s) in "
            << core::Table::num(m.gauge(fleet::kFleetWallSeconds), 2)
            << " s ("
            << core::Table::num(m.gauge(fleet::kFleetSessionsPerSec), 1)
            << " sessions/s)";
  if (supervisor != nullptr) {
    std::cerr << "; " << supervisor->restarts() << " worker restart(s)";
  }
  std::cerr << '\n';
  return 0;
}

int cmd_status(const Cli& cli) {
  const auto server = cli.get<fleet::WorkerEndpoint>("connect");
  if (!server) throw UsageError("status needs --connect=host:port");
  if (cli.get<std::string>("format") == "prometheus") {
    std::cout << net::fetch_prometheus(server->host, server->port);
    return 0;
  }
  const std::string line = net::fetch_status(server->host, server->port);
  // The machine-readable line alone on stdout (pipe into python/jq); the
  // human summary goes to stderr like every other end-of-run summary.
  std::cout << line << '\n';
  try {
    io::json::Parser parser(line, "status");
    const io::json::Value doc = parser.parse();
    const auto number = [&doc](const char* section, const char* name) {
      const io::json::Value* s = doc.find(section);
      const io::json::Value* v = s == nullptr ? nullptr : s->find(name);
      return v == nullptr ? 0.0 : v->number;
    };
    const io::json::Value* hists = doc.find("histograms");
    const io::json::Value* latency =
        hists == nullptr ? nullptr : hists->find(net::kMetricSessionLatency);
    const auto latency_ms = [latency](const char* key) {
      const io::json::Value* v =
          latency == nullptr ? nullptr : latency->find(key);
      return v == nullptr ? 0.0 : v->number * 1e3;
    };
    std::cerr << core::Table::num(
                     number("counters", net::kMetricSessionsCompleted), 0)
              << " session(s) done, "
              << core::Table::num(
                     number("gauges", net::kMetricActiveSessions), 0)
              << " active ("
              << core::Table::num(
                     number("counters", net::kMetricSessionsFailed), 0)
              << " failed); "
              << core::Table::num(
                     number("gauges", net::kMetricSessionsPerSec), 1)
              << " sessions/s; latency p50/p99 "
              << core::Table::num(latency_ms("p50"), 2) << "/"
              << core::Table::num(latency_ms("p99"), 2) << " ms\n";
  } catch (const io::json::ParseError&) {
    // The raw line is already on stdout; the summary is best-effort.
  }
  return 0;
}

/// The command table, in `help` order.
const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"help", cmd_help, "Print every command's usage, or the named one's.",
       {}, "[command]"},
      {"generate", cmd_generate,
       "Generate --circuit (Table-1 statistics); --out writes it as .bench.",
       {&kCircuit, &kOut, &kSeed}},
      {"info", cmd_info,
       "Structural and timing statistics of --bench or --circuit.",
       kCircuitGroup},
      {"ssta", cmd_ssta,
       "Clark vs Monte-Carlo period distribution; --tuned adds post-tuning.",
       join({kCircuitGroup,
             {&kChips, &kThreads, &kTuned, &kCriticality, &kJson},
             kLogGroup})},
      {"run", cmd_run, "Run the full EffiTest flow and print the metrics.",
       join({kCircuitGroup, kFlowGroup,
             {&kNoPrediction, &kNoAlignment, &kJson}, kLogGroup})},
      {"campaign", cmd_campaign,
       "Run --circuits x --quantiles x --modes (or --spec) jobs on all cores.",
       join({{&kSpec, &kCircuits, &kQuantiles, &kModes, &kChips, &kSeed,
              &kThreads, &kInflation, &kJson, &kCheckpoint, &kResume,
              &kStopAfter},
             kLogGroup})},
      {"circuits", cmd_circuits,
       "List the paper circuit catalog, or the --spec scenario's.", {&kSpec}},
      {"tune", cmd_tune,
       "Stream per-chip tuning sessions over the line protocol (or --connect).",
       join({kCircuitGroup, kFlowGroup,
             {&kSimulate, &kLenient, &kLog, &kResponses, &kWindow, &kConnect,
              &kConnectRetries},
             kLogGroup})},
      {"serve", cmd_serve,
       "Serve the tune protocol over TCP; prints `serving on <host>:<port>`.",
       join({kCircuitGroup, kTunerGroup, kListenGroup,
             {&kServeWorkers, &kWindow, &kMaxChips}, kLogGroup})},
      {"balance", cmd_balance,
       "Route tester sessions over --workers and/or --spawn=N serve workers.",
       join({{&kFleetWorkers, &kSpawn}, kCircuitGroup, kTunerGroup,
             kListenGroup, {&kRelayWorkers, &kRetries, &kProbeInterval},
             kLogGroup})},
      {"status", cmd_status,
       "Print a serve or balance endpoint's live metrics.",
       {&kConnect, &kFormat}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 1;
  }
  try {
    const Cli cli = parse_cli(argc, argv);
    return cli.command->run(cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    // Bad options, scenario specs and checkpoints are bad inputs (2), not
    // runtime failures (1).
    const bool usage = dynamic_cast<const UsageError*>(&e) != nullptr ||
                       dynamic_cast<const io::ScenarioError*>(&e) != nullptr ||
                       dynamic_cast<const io::CheckpointError*>(&e) != nullptr;
    return usage ? 2 : 1;
  }
}
