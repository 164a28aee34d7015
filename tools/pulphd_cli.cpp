// pulphd_cli — command-line front-end for the library.
//
// Subcommands: train, info, eval, price, serve, stream. Every command
// answers `--help`; the full reference (flags, defaults, the PULPHD_BACKEND
// environment variable and the serve wire protocol) lives in docs/cli.md,
// which CI keeps in lockstep with the help text below (tools/check_docs.py
// asserts the --help output appears verbatim in the doc).
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/table.hpp"
#include "emg/protocol.hpp"
#include "hd/serialization.hpp"
#include "kernels/chain.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "sim/power.hpp"

namespace {

using namespace pulphd;

// --- Help text (verbatim in docs/cli.md; keep the two in sync) -----------

const char kTopLevelHelp[] =
    "pulphd_cli — PULP-HD command-line interface\n"
    "\n"
    "usage: pulphd_cli <command> [args]\n"
    "\n"
    "commands:\n"
    "  train <model.phd> [--dim D] [--subject S] [--seed X] [--name NAME]\n"
    "      Generate the synthetic EMG dataset, train one subject's HD model\n"
    "      under the paper's protocol and save it, optionally embedding a\n"
    "      model name for multi-model serving.\n"
    "  info <model.phd>\n"
    "      Print the model's configuration and memory footprint.\n"
    "  eval <model.phd> [--subject S] [--seed X]\n"
    "      Re-evaluate the saved model on its subject's test split.\n"
    "  price <model.phd>\n"
    "      Price one classification on every platform of the paper (cycles,\n"
    "      frequency for 10 ms latency, power).\n"
    "  serve --model [NAME=]PATH [--model ...] (--socket PATH | --tcp PORT)\n"
    "        [--default NAME] [--threads 1] [--workers W] [--max-conns N]\n"
    "        [--idle-timeout SECONDS] [--request-timeout MS]\n"
    "      Long-lived multi-model classification daemon; see\n"
    "      `pulphd_cli serve --help`.\n"
    "  stream (--socket PATH | --tcp PORT) --window W --hop H [--model NAME]\n"
    "         [--chunk N] [--rate HZ] [--csv FILE]\n"
    "      Streaming classification client: replay a CSV of samples into a\n"
    "      running serve daemon and print one decision per hop; see\n"
    "      `pulphd_cli stream --help`.\n"
    "\n"
    "environment:\n"
    "  PULPHD_BACKEND     force the SIMD kernel backend (portable|avx2);\n"
    "                     unset picks the widest backend the CPU supports\n"
    "  PULPHD_FAILPOINTS  arm fault-injection points for chaos testing\n"
    "                     (docs/operations.md); unset injects nothing\n"
    "\n"
    "`pulphd_cli <command> --help` prints that command's usage; commands\n"
    "exit 2 on a usage error, including a flag the command does not read.\n";

const char kServeHelp[] =
    "usage: pulphd_cli serve --model [NAME=]PATH [--model [NAME=]PATH ...]\n"
    "                        (--socket PATH | --tcp PORT) [--default NAME]\n"
    "                        [--threads 1] [--workers W] [--max-conns N]\n"
    "                        [--idle-timeout SECONDS] [--request-timeout MS]\n"
    "\n"
    "Long-lived classification daemon: loads every --model once at startup,\n"
    "then answers wire-protocol requests (text phd1 or binary phd2,\n"
    "negotiated per connection; docs/protocol.md) until SIGINT/SIGTERM.\n"
    "Connections are spread turn by turn over --workers shard threads; a\n"
    "shard runs its connections' requests start to finish, so responses\n"
    "stay in request order. Requests are routed by their model=\n"
    "field; requests naming no model go to the default model. SIGHUP\n"
    "reloads every model from its file without dropping connections; a\n"
    "model that fails to reload keeps serving its previous version (the\n"
    "wire `reload` request does the same per connection).\n"
    "\n"
    "flags:\n"
    "  --model [NAME=]PATH  register the serialized model at PATH under NAME\n"
    "                       (repeatable; NAME may be omitted when the file\n"
    "                       embeds a name — `train --name` writes one)\n"
    "  --socket PATH        listen on a Unix-domain socket at PATH (created\n"
    "                       at startup, removed on shutdown)\n"
    "  --tcp PORT           also/instead listen on TCP 127.0.0.1:PORT\n"
    "                       (loopback only; 0 picks an ephemeral port,\n"
    "                       printed on startup)\n"
    "  --default NAME       model answering requests that name no model\n"
    "                       (default: the first --model)\n"
    "  --threads 1          the only accepted value (any other is a usage\n"
    "                       error): a request runs on its shard thread\n"
    "                       alone. Kept while the serving benchmark\n"
    "                       (perfbench) still passes it\n"
    "  --workers W          shard threads, each running its connections'\n"
    "                       requests start to finish (0 = one per\n"
    "                       hardware thread; default 0)\n"
    "  --max-conns N        simultaneous-connection cap; a connection over\n"
    "                       the cap is answered with one `overloaded` error\n"
    "                       and closed (0 = unlimited; default 0)\n"
    "  --idle-timeout SECONDS\n"
    "                       close a connection with no request in flight\n"
    "                       and no wire activity for this long\n"
    "                       (0 = never; default 0; at most 1000000000)\n"
    "  --request-timeout MS\n"
    "                       shed a classify/reload request still queued\n"
    "                       behind earlier pipelined work this many\n"
    "                       milliseconds after arrival with an\n"
    "                       `err code=timeout` response; a request already\n"
    "                       executing is never interrupted\n"
    "                       (0 = never; default 0; at most 1000000000)\n";

const char kStreamHelp[] =
    "usage: pulphd_cli stream (--socket PATH | --tcp PORT) --window W --hop H\n"
    "                         [--model NAME] [--chunk N] [--rate HZ]\n"
    "                         [--csv FILE]\n"
    "\n"
    "Streaming classification client: opens a binary (phd2) streaming\n"
    "session on a running `pulphd_cli serve` daemon, replays a CSV of\n"
    "samples (one row per sample, one numeric column per channel; a header\n"
    "row and #-comment lines are skipped) and prints one decision line per\n"
    "completed window — bit-identical to a batch classify of each window's\n"
    "buffered samples. Window w covers samples [w*hop, w*hop + window).\n"
    "\n"
    "flags:\n"
    "  --socket PATH  connect to the daemon's Unix-domain socket\n"
    "  --tcp PORT     connect to the daemon at 127.0.0.1:PORT\n"
    "  --window W     samples per decision window (>= the model's N-gram)\n"
    "  --hop H        samples between consecutive decisions\n"
    "  --model NAME   session model (default: the daemon's default model)\n"
    "  --chunk N      samples per stream-push (default: H, one decision per\n"
    "                 push once the first window has filled)\n"
    "  --rate HZ      replay in real time at HZ samples/second (0 = as fast\n"
    "                 as the daemon accepts; default 0)\n"
    "  --csv FILE     read samples from FILE instead of stdin\n";

[[noreturn]] void usage_error(const char* help) {
  std::fputs(help, stderr);
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded CLI argument parsing.
  std::exit(2);
}

bool is_help_flag(const char* arg) {
  return std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0;
}

/// Strict non-negative integer parse for flag values; anything else (empty,
/// trailing junk, sign, out of range) is a usage error rather than a silent
/// 0. Base 0 also takes `0x` hex and `0` octal, as strtoull does.
std::size_t parse_count(const std::string& value, const char* help, int base = 10) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, base);
  if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE ||
      !std::isdigit(static_cast<unsigned char>(value.front()))) {
    usage_error(help);
  }
  return static_cast<std::size_t>(parsed);
}

/// Largest --idle-timeout (seconds) and --request-timeout (milliseconds):
/// about 31 years and 11 days, past any useful deadline, and small enough
/// that a deadline computed as now + timeout stays inside steady_clock's
/// int64 nanoseconds (far larger values overflow it, or wrap negative and
/// would silently disable the timeout).
constexpr std::size_t kMaxTimeout = 1'000'000'000;

std::size_t parse_timeout(const std::string& value) {
  const std::size_t parsed = parse_count(value, kServeHelp);
  if (parsed > kMaxTimeout) usage_error(kServeHelp);
  return parsed;
}

// --- train / info / eval / price ------------------------------------------

struct Options {
  std::string command;
  std::string model_path;
  std::string model_name;  ///< train --name: embedded in the saved file
  std::size_t dim = 10000;
  std::size_t subject = 0;
  std::uint64_t seed = emg::GeneratorConfig{}.seed;
};

/// Whether `command` reads `flag`; any other flag is a usage error rather
/// than silently ignored. info and price read only the model file.
bool reads_flag(const std::string& command, const std::string& flag) {
  if (command == "train") {
    return flag == "--dim" || flag == "--subject" || flag == "--seed" || flag == "--name";
  }
  if (command == "eval") return flag == "--subject" || flag == "--seed";
  return false;
}

Options parse_model_command(int argc, char** argv) {
  Options opt;
  opt.command = argv[1];
  if (argc < 3) usage_error(kTopLevelHelp);
  if (is_help_flag(argv[2])) {
    std::fputs(kTopLevelHelp, stdout);
    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded CLI argument parsing.
    std::exit(0);
  }
  opt.model_path = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (is_help_flag(flag.c_str())) {
      std::fputs(kTopLevelHelp, stdout);
      // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded CLI argument parsing.
      std::exit(0);
    }
    if (i + 1 >= argc || !reads_flag(opt.command, flag)) usage_error(kTopLevelHelp);
    const char* value = argv[++i];
    if (flag == "--dim") {
      opt.dim = parse_count(value, kTopLevelHelp);
    } else if (flag == "--subject") {
      opt.subject = parse_count(value, kTopLevelHelp);
    } else if (flag == "--seed") {
      opt.seed = parse_count(value, kTopLevelHelp, 0);
    } else {
      opt.model_name = value;  // --name
    }
  }
  return opt;
}

emg::EmgDataset dataset_for(const Options& opt) {
  emg::GeneratorConfig gen;
  gen.seed = opt.seed;
  return emg::generate_dataset(gen);
}

int cmd_train(const Options& opt) {
  std::printf("generating synthetic EMG dataset (seed 0x%llx)...\n",
              static_cast<unsigned long long>(opt.seed));
  const emg::EmgDataset ds = dataset_for(opt);
  std::printf("training subject %zu at %zu-D...\n", opt.subject, opt.dim);
  const hd::HdClassifier clf = emg::train_hd_subject(ds, opt.subject, opt.dim);
  hd::save_model_file(clf, opt.model_path, opt.model_name);
  if (opt.model_name.empty()) {
    std::printf("saved %s\n", opt.model_path.c_str());
  } else {
    std::printf("saved %s (model name \"%s\")\n", opt.model_path.c_str(), opt.model_name.c_str());
  }
  return 0;
}

int cmd_info(const Options& opt) {
  const hd::ClassifierModel model = hd::load_model_file(opt.model_path);
  const hd::HdClassifier clf = hd::classifier_from_model(model);
  const hd::ModelFootprint fp = clf.footprint();
  TextTable t("Model " + opt.model_path);
  t.set_header({"field", "value"});
  if (!model.name.empty()) t.add_row({"name", model.name});
  t.add_row({"dimension", std::to_string(model.config.dim)});
  t.add_row({"packed words / hypervector", std::to_string(words_for_dim(model.config.dim))});
  t.add_row({"channels", std::to_string(model.config.channels)});
  t.add_row({"CIM levels", std::to_string(model.config.levels)});
  t.add_row({"value range", fmt_double(model.config.min_value, 1) + " .. " +
                                fmt_double(model.config.max_value, 1)});
  t.add_row({"N-gram", std::to_string(model.config.ngram)});
  t.add_row({"classes", std::to_string(model.config.classes)});
  t.add_row({"IM", fmt_kib(static_cast<double>(fp.im_bytes))});
  t.add_row({"CIM", fmt_kib(static_cast<double>(fp.cim_bytes))});
  t.add_row({"AM", fmt_kib(static_cast<double>(fp.am_bytes))});
  t.add_row({"total (with L1 buffers)", fmt_kib(static_cast<double>(fp.total()))});
  t.add_row({"host bound-row table", fmt_kib(static_cast<double>(fp.bound_table_bytes))});
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

int cmd_eval(const Options& opt) {
  const hd::ClassifierModel model = hd::load_model_file(opt.model_path);
  const hd::HdClassifier clf = hd::classifier_from_model(model);
  const emg::EmgDataset ds = dataset_for(opt);
  const emg::ProtocolConfig protocol;
  const auto split = ds.split(opt.subject, protocol.train_fraction);
  // Batch path: all test trials are encoded in one pass, then classified.
  std::vector<hd::Trial> segments;
  segments.reserve(split.test.size());
  for (const emg::EmgTrial* trial : split.test) {
    segments.push_back(emg::active_segment(trial->envelope, protocol));
  }
  const std::vector<hd::AmDecision> decisions = clf.predict_batch(segments);
  hd::ConfusionMatrix cm(model.config.classes);
  for (std::size_t t = 0; t < split.test.size(); ++t) {
    cm.record(split.test[t]->label, decisions[t].label);
  }
  std::vector<std::string> names;
  for (std::size_t g = 0; g < emg::kGestureCount; ++g) names.push_back(emg::gesture_name(g));
  std::fputs(cm.to_string(names).c_str(), stdout);
  std::printf("accuracy: %s on %zu trials (subject %zu)\n",
              fmt_percent(cm.accuracy()).c_str(), cm.total(), opt.subject);
  return 0;
}

int cmd_price(const Options& opt) {
  const hd::ClassifierModel model = hd::load_model_file(opt.model_path);
  const hd::HdClassifier clf = hd::classifier_from_model(model);
  std::vector<hd::Sample> window;
  for (std::size_t i = 0; i < model.config.ngram; ++i) {
    window.push_back(hd::Sample(model.config.channels, 5.0f));
  }
  TextTable t("One classification of " + opt.model_path + " per platform");
  t.set_header({"platform", "cycles(k)", "MHz @ 10 ms", "power (mW)"});
  struct Row {
    sim::ClusterConfig cluster;
    sim::PowerModel power;
    double voltage;
    std::uint32_t cores;
  };
  const std::vector<Row> rows = {
      {sim::ClusterConfig::arm_cortex_m4(), sim::PowerModel::arm_cortex_m4(), 1.85, 1},
      {sim::ClusterConfig::pulpv3(1), sim::PowerModel::pulpv3(), 0.7, 1},
      {sim::ClusterConfig::pulpv3(4), sim::PowerModel::pulpv3(), 0.5, 4},
      {sim::ClusterConfig::wolf(8, true), sim::PowerModel::wolf(), 0.7, 8},
  };
  for (const Row& row : rows) {
    const kernels::ProcessingChain chain(row.cluster, clf);
    const std::uint64_t cycles = chain.classify(window).cycles.total();
    const double freq = sim::PowerModel::required_freq_mhz(cycles, 10.0);
    const double mw =
        row.power.power(row.cores, {.voltage = row.voltage, .freq_mhz = freq}).total_mw();
    t.add_row({row.cluster.name, fmt_cycles_k(static_cast<double>(cycles)),
               fmt_double(freq, 1), fmt_mw(mw)});
  }
  std::fputs(t.render().c_str(), stdout);
  return 0;
}

// --- serve ----------------------------------------------------------------

struct ServeOptions {
  std::vector<std::pair<std::string, std::string>> models;  // {name ("" = embedded), path}
  std::string default_model;
  serve::ServeConfig config;
};

ServeOptions parse_serve(int argc, char** argv) {
  ServeOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (is_help_flag(flag.c_str())) {
      std::fputs(kServeHelp, stdout);
      // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded CLI argument parsing.
      std::exit(0);
    }
    if (i + 1 >= argc) usage_error(kServeHelp);
    const std::string value = argv[++i];
    if (flag == "--model") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) {
        opt.models.emplace_back("", value);
      } else {
        opt.models.emplace_back(value.substr(0, eq), value.substr(eq + 1));
      }
    } else if (flag == "--socket") {
      opt.config.unix_path = value;
    } else if (flag == "--tcp") {
      // Strict parse: a typo'd port must not fall through to 0, which is
      // the "pick an ephemeral port" sentinel.
      char* end = nullptr;
      const unsigned long port = std::strtoul(value.c_str(), &end, 10);
      if (value.empty() || end != value.c_str() + value.size() || port > 65535) {
        usage_error(kServeHelp);
      }
      opt.config.tcp_enabled = true;
      opt.config.tcp_port = static_cast<std::uint16_t>(port);
    } else if (flag == "--default") {
      opt.default_model = value;
    } else if (flag == "--threads") {
      // Requests never fork: the shard threads are the daemon's parallelism.
      if (parse_count(value, kServeHelp) != 1) usage_error(kServeHelp);
    } else if (flag == "--workers") {
      opt.config.workers = parse_count(value, kServeHelp);
    } else if (flag == "--max-conns") {
      opt.config.max_connections = parse_count(value, kServeHelp);
    } else if (flag == "--idle-timeout") {
      opt.config.idle_timeout = std::chrono::seconds(parse_timeout(value));
    } else if (flag == "--request-timeout") {
      opt.config.request_timeout = std::chrono::milliseconds(parse_timeout(value));
    } else {
      usage_error(kServeHelp);
    }
  }
  if (opt.models.empty()) usage_error(kServeHelp);
  if (opt.config.unix_path.empty() && !opt.config.tcp_enabled) usage_error(kServeHelp);
  return opt;
}

// Atomic: the kernel may deliver SIGINT/SIGTERM on any thread (including a
// connection thread), racing the main thread's reset after run() returns.
std::atomic<serve::ClassifyServer*> g_server{nullptr};

void handle_shutdown_signal(int) {
  if (auto* server = g_server.load()) server->stop();  // async-signal-safe (self-pipe write)
}

void handle_reload_signal(int) {
  if (auto* server = g_server.load()) server->request_reload();  // async-signal-safe
}

int cmd_serve(int argc, char** argv) {
  const ServeOptions opt = parse_serve(argc, argv);
  serve::ModelRegistry registry;
  for (const auto& [name, path] : opt.models) {
    const serve::ModelSnapshot entry = registry.load_file(name, path);
    const hd::ClassifierConfig& cfg = entry->classifier.config();
    std::printf("loaded model \"%s\" from %s (dim %zu, %zu channels, %zu classes)\n",
                entry->name.c_str(), path.c_str(), cfg.dim, cfg.channels, cfg.classes);
  }
  if (!opt.default_model.empty()) registry.set_default(opt.default_model);
  std::printf("default model: %s\n", registry.default_name().c_str());

  serve::ClassifyServer server(registry, opt.config);
  server.bind_and_listen();
  if (!opt.config.unix_path.empty()) {
    std::printf("listening on unix socket %s\n", opt.config.unix_path.c_str());
  }
  if (opt.config.tcp_enabled) {
    std::printf("listening on tcp 127.0.0.1:%d\n", server.tcp_port());
  }
  std::fflush(stdout);

  g_server.store(&server);
  struct sigaction sa{};
  sa.sa_handler = handle_shutdown_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  struct sigaction hup{};
  hup.sa_handler = handle_reload_signal;
  sigaction(SIGHUP, &hup, nullptr);

  server.run();
  g_server.store(nullptr);
  std::printf("shut down\n");
  return 0;
}

// --- stream ---------------------------------------------------------------

struct StreamOptions {
  std::string unix_path;
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  std::string model;
  std::uint32_t window = 0;
  std::uint32_t hop = 0;
  std::size_t chunk = 0;  ///< samples per push; 0 = hop
  double rate_hz = 0.0;   ///< 0 = replay as fast as possible
  std::string csv_path;   ///< empty = stdin
};

/// A --window/--hop value: a count that fits the open frame's u32 field
/// (a wider one would wrap silently on the wire).
std::uint32_t parse_wire_u32(const std::string& value) {
  const std::size_t parsed = parse_count(value, kStreamHelp);
  if (parsed > std::numeric_limits<std::uint32_t>::max()) usage_error(kStreamHelp);
  return static_cast<std::uint32_t>(parsed);
}

StreamOptions parse_stream(int argc, char** argv) {
  StreamOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (is_help_flag(flag.c_str())) {
      std::fputs(kStreamHelp, stdout);
      // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded CLI argument parsing.
      std::exit(0);
    }
    if (i + 1 >= argc) usage_error(kStreamHelp);
    const std::string value = argv[++i];
    if (flag == "--socket") {
      opt.unix_path = value;
    } else if (flag == "--tcp") {
      char* end = nullptr;
      const unsigned long port = std::strtoul(value.c_str(), &end, 10);
      if (value.empty() || end != value.c_str() + value.size() || port == 0 || port > 65535) {
        usage_error(kStreamHelp);
      }
      opt.tcp = true;
      opt.tcp_port = static_cast<std::uint16_t>(port);
    } else if (flag == "--model") {
      opt.model = value;
    } else if (flag == "--window") {
      opt.window = parse_wire_u32(value);
    } else if (flag == "--hop") {
      opt.hop = parse_wire_u32(value);
    } else if (flag == "--chunk") {
      opt.chunk = parse_count(value, kStreamHelp);
    } else if (flag == "--rate") {
      char* end = nullptr;
      opt.rate_hz = std::strtod(value.c_str(), &end);
      if (value.empty() || end != value.c_str() + value.size() || opt.rate_hz < 0.0) {
        usage_error(kStreamHelp);
      }
    } else if (flag == "--csv") {
      opt.csv_path = value;
    } else {
      usage_error(kStreamHelp);
    }
  }
  if (opt.unix_path.empty() == !opt.tcp) usage_error(kStreamHelp);  // exactly one listener
  if (opt.window == 0 || opt.hop == 0) usage_error(kStreamHelp);
  return opt;
}

/// One CSV row -> one sample. Tokens are floats separated by commas and/or
/// blanks; returns false on a non-numeric token (used to skip a header row).
bool parse_sample_row(const std::string& line, hd::Sample& out) {
  out.clear();
  const char* p = line.c_str();
  while (*p != '\0') {
    while (*p == ' ' || *p == '\t' || *p == ',' || *p == '\r') ++p;
    if (*p == '\0') break;
    char* end = nullptr;
    const float v = std::strtof(p, &end);
    if (end == p) return false;
    out.push_back(v);
    p = end;
  }
  return !out.empty();
}

std::vector<hd::Sample> load_csv_samples(const std::string& path) {
  std::ifstream file;
  if (!path.empty()) {
    file.open(path);
    if (!file) throw std::runtime_error("stream: cannot open " + path);
  }
  std::istream& in = path.empty() ? std::cin : file;
  std::vector<hd::Sample> samples;
  std::string line;
  hd::Sample sample;
  bool first_row = true;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    if (!parse_sample_row(line, sample)) {
      if (first_row) {
        first_row = false;  // a titled CSV: skip the header row only
        continue;
      }
      throw std::runtime_error("stream: " + (path.empty() ? std::string("<stdin>") : path) +
                               " line " + std::to_string(lineno) + ": not a numeric sample row");
    }
    first_row = false;
    if (!samples.empty() && sample.size() != samples.front().size()) {
      throw std::runtime_error("stream: " + (path.empty() ? std::string("<stdin>") : path) +
                               " line " + std::to_string(lineno) + ": " +
                               std::to_string(sample.size()) + " columns, expected " +
                               std::to_string(samples.front().size()));
    }
    samples.push_back(sample);
  }
  return samples;
}

int connect_stream_socket(const StreamOptions& opt) {
  if (!opt.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("stream: socket path too long: " + opt.unix_path);
    }
    std::memcpy(addr.sun_path, opt.unix_path.c_str(), opt.unix_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("stream: socket: " + io::errno_text(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("stream: connect " + opt.unix_path + ": " + io::errno_text(err));
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opt.tcp_port);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("stream: socket: " + io::errno_text(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("stream: connect 127.0.0.1:" + std::to_string(opt.tcp_port) + ": " +
                             io::errno_text(err));
  }
  return fd;
}

void stream_send(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("stream: send: " + io::errno_text(errno));
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

serve::BinaryResponse stream_recv(int fd, serve::BinaryResponseParser& parser) {
  while (true) {
    if (auto response = parser.next()) return *std::move(response);
    char buf[65536];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("stream: read: " + io::errno_text(errno));
    }
    if (n == 0) throw std::runtime_error("stream: server closed the connection");
    parser.feed({buf, static_cast<std::size_t>(n)});
  }
}

int cmd_stream(int argc, char** argv) {
  const StreamOptions opt = parse_stream(argc, argv);
  const std::vector<hd::Sample> samples = load_csv_samples(opt.csv_path);
  if (samples.empty()) {
    std::fprintf(stderr, "pulphd: stream: no samples in the input\n");
    return 1;
  }
  const int fd = connect_stream_socket(opt);
  serve::BinaryResponseParser parser;
  stream_send(fd, std::string(serve::kBinaryMagic) +
                      serve::format_binary_stream_open_request(opt.model, opt.window, opt.hop));
  serve::BinaryResponse response = stream_recv(fd, parser);
  if (response.type == serve::kFrameError) {
    std::fprintf(stderr, "pulphd: stream: err code=%s msg=%s\n", response.error_code.c_str(),
                 response.error_message.c_str());
    ::close(fd);
    return 1;
  }
  std::printf("session model=%s window=%u hop=%u (%zu samples, %zu channels%s)\n",
              response.model.c_str(), response.window, response.hop, samples.size(),
              samples.front().size(), opt.rate_hz > 0.0 ? ", real-time replay" : "");
  std::fflush(stdout);

  const std::size_t chunk = opt.chunk != 0 ? opt.chunk : opt.hop;
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  std::uint64_t windows = 0;
  while (sent < samples.size()) {
    const std::size_t take = std::min(chunk, samples.size() - sent);
    if (opt.rate_hz > 0.0) {
      // Real-time replay: the last sample of this push "arrives" at
      // (sent + take) / rate seconds into the recording.
      const std::chrono::duration<double> due_s((static_cast<double>(sent + take)) / opt.rate_hz);
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(due_s));
    }
    stream_send(fd, serve::format_binary_stream_push_request(
                        std::span<const hd::Sample>(samples).subspan(sent, take)));
    response = stream_recv(fd, parser);
    if (response.type == serve::kFrameError) {
      std::fprintf(stderr, "pulphd: stream: err code=%s msg=%s\n", response.error_code.c_str(),
                   response.error_message.c_str());
      ::close(fd);
      return 1;
    }
    for (std::size_t i = 0; i < response.decisions.size(); ++i) {
      const hd::AmDecision& d = response.decisions[i];
      std::printf("window %llu label=%zu distance=%zu\n",
                  static_cast<unsigned long long>(response.first_window + i), d.label,
                  d.distance);
    }
    if (!response.decisions.empty()) std::fflush(stdout);
    windows += response.decisions.size();
    sent += take;
  }
  stream_send(fd, serve::format_binary_command(serve::kFrameStreamClose));
  response = stream_recv(fd, parser);
  ::close(fd);
  if (response.type == serve::kFrameError) {
    std::fprintf(stderr, "pulphd: stream: err code=%s msg=%s\n", response.error_code.c_str(),
                 response.error_message.c_str());
    return 1;
  }
  std::printf("streamed %zu samples, %llu windows\n", sent,
              static_cast<unsigned long long>(response.windows_total));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Arm fault-injection points from PULPHD_FAILPOINTS before any I/O
    // runs; a malformed spec is a hard startup error, not a silent no-op.
    failpoint::configure_from_env();
    if (argc < 2) usage_error(kTopLevelHelp);
    const std::string command = argv[1];
    if (is_help_flag(command.c_str())) {
      std::fputs(kTopLevelHelp, stdout);
      return 0;
    }
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "stream") return cmd_stream(argc, argv);
    if (command == "train" || command == "info" || command == "eval" || command == "price") {
      const Options opt = parse_model_command(argc, argv);
      if (command == "train") return cmd_train(opt);
      if (command == "info") return cmd_info(opt);
      if (command == "eval") return cmd_eval(opt);
      return cmd_price(opt);
    }
    usage_error(kTopLevelHelp);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pulphd: %s\n", e.what());
    return 1;
  }
}
