// Repository benchmark binary: one workload, one thread, one process.
//
// Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--tiny] [--git-sha SHA] [--record PATH] [--spans PATH]
//
// Runs Splicer once on the workload's fixed outcome seed, then one untimed
// warm-up pass of all six schemes, then whole passes, each after a few
// fresh set-ups, until --seconds have elapsed. Every run_scheme call is
// checked against the warm-up run of the same scheme and against the
// deadlock-freedom witnesses. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics
// (the traced invocation also replays each module; see README.md).

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "layers.h"
#include "routing/experiment.h"
#include "trace.h"

namespace {

using namespace splicer;
using perfbench::Tracer;
using routing::Scheme;

// Set-ups before every pass; setup_s is the median over the whole run. One
// paper-scale set-up takes milliseconds, so a single one is all noise, and
// spreading them over the run exposes them to the same host load as the
// passes.
constexpr int kSetupsPerPass = 5;

// The payment seed splicer_tsr and splicer_throughput are measured on,
// whatever --seed is: one fixed input makes both repeat exactly from run to
// run, so any change to what Splicer computes moves them. (Across seeds
// they spread by 3-7%, wider than a useful bound.)
constexpr std::uint64_t kOutcomeSeed = 42;

// All six schemes, in the fixed order of one pass.
constexpr std::array<Scheme, 6> kSchemes{Scheme::kSplicer, Scheme::kSpider,
                                         Scheme::kFlash,   Scheme::kLandmark,
                                         Scheme::kA2l,     Scheme::kShortestPath};

const char* scheme_key(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSplicer: return "splicer";
    case Scheme::kSpider: return "spider";
    case Scheme::kFlash: return "flash";
    case Scheme::kLandmark: return "landmark";
    case Scheme::kA2l: return "a2l";
    case Scheme::kShortestPath: return "shortest_path";
  }
  return "unknown";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string git_sha = "unknown";
  std::string record;  // JSON record with the fingerprint and samples
  std::string spans;   // traced invocation: span dump
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else if (flag == "--record") {
      opt.record = value;
    } else if (flag == "--spans") {
      opt.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return opt;
}

/// First value of a "key: value" line in a /proc file, or "" if absent.
std::string proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      const auto start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "" : line.substr(start);
    }
  }
  return "";
}

/// VmHWM (peak resident set) of this process in MiB.
double peak_rss_mib() {
  return std::strtod(proc_field("/proc/self/status", "VmHWM").c_str(), nullptr) / 1024.0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << v;
  return out.str();
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + json_number(values[i]);
  }
  return out + "]";
}

/// Metrics in emission order, each with its unit.
class MetricSet {
 public:
  /// `note` is printed after the value in the report only.
  void add(std::string name, double value, std::string unit, std::string note = "") {
    entries_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void print(std::ostream& out) const {
    for (const auto& e : entries_) {
      out << e.name << " = " << json_number(e.value) << " " << e.unit << e.note << "\n";
    }
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto& e = entries_[i];
      out += (i ? ", " : "") + json_string(e.name) + ": {\"value\": " +
             json_number(e.value) + ", \"unit\": " + json_string(e.unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

/// Everything one scheme reports that is a function of the inputs alone;
/// two runs of one scheme over one scenario must agree on all of it.
bool same_outcome(const routing::EngineMetrics& a, const routing::EngineMetrics& b) {
  return a.payments_generated == b.payments_generated &&
         a.payments_completed == b.payments_completed &&
         a.payments_failed == b.payments_failed &&
         a.value_generated == b.value_generated && a.value_completed == b.value_completed &&
         a.tus_sent == b.tus_sent && a.tus_delivered == b.tus_delivered &&
         a.tus_failed == b.tus_failed && a.tus_marked == b.tus_marked &&
         a.tu_fail_reasons == b.tu_fail_reasons &&
         a.payment_fail_reasons == b.payment_fail_reasons &&
         a.messages.total() == b.messages.total() &&
         a.scheduler_events == b.scheduler_events &&
         a.settlement_flushes == b.settlement_flushes &&
         a.settlements_batched == b.settlements_batched &&
         a.peak_resident_states == b.peak_resident_states &&
         a.price_updates_skipped == b.price_updates_skipped &&
         a.probe_sums_reused == b.probe_sums_reused &&
         a.mutation_events == b.mutation_events && a.tsr() == b.tsr() &&
         a.normalized_throughput() == b.normalized_throughput();
}

struct SchemeRuns {
  std::optional<routing::EngineMetrics> reference;  // the warm-up run
  std::vector<double> run_ms;                       // timed runs
};

/// One operation: a run_scheme call inside a span. It fails when it
/// throws, when it ends with TUs or queued value left behind (a wedged
/// run, against the paper's deadlock-freedom claim), or when its outcome
/// differs from the same scheme's warm-up run. The first call of a scheme
/// is its warm-up run and becomes the reference.
bool checked_run(const routing::Scenario& scenario, Scheme scheme,
                 const routing::SchemeConfig& config, Tracer& tracer, SchemeRuns& runs) {
  const char* key = scheme_key(scheme);
  routing::EngineMetrics m;
  double ms = 0.0;
  try {
    ms = perfbench::timed_ms(tracer, std::string("routing.run_scheme.") + key,
                             [&] { m = routing::run_scheme(scenario, scheme, config); });
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << key << " threw: " << e.what() << "\n";
    return false;
  }
  if (m.resident_tus_at_end != 0 || m.wedged_queue_value != 0) {
    std::cerr << "perfbench: " << key << " ended wedged (" << m.resident_tus_at_end
              << " resident TUs, " << m.wedged_queue_value << " queued value)\n";
    return false;
  }
  if (!runs.reference) {
    runs.reference = m;
    return true;
  }
  runs.run_ms.push_back(ms);
  if (!same_outcome(m, *runs.reference)) {
    std::cerr << "perfbench: " << key << " differs from its warm-up run\n";
    return false;
  }
  return true;
}

std::string fingerprint_json(const Options& opt, std::size_t passes) {
  return "{\"cpu_model\": " + json_string(proc_field("/proc/cpuinfo", "model name")) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"git_sha\": " + json_string(opt.git_sha) +
         ", \"workload\": " + json_string(opt.workload) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"passes\": " + std::to_string(passes) +
         ", \"trace\": " + (opt.trace ? "1" : "0") + "}";
}

int run(const Options& opt) {
  using Clock = std::chrono::steady_clock;
  Tracer tracer(opt.trace);
  const auto workload = perfbench::make_workload(opt.workload, opt.seed, opt.tiny);
  const auto& config = workload.schemes;

  std::size_t attempted = 0;
  std::size_t failed = 0;
  SchemeRuns outcome;
  {
    const auto reference = perfbench::make_workload(opt.workload, kOutcomeSeed, opt.tiny);
    ++attempted;
    if (!checked_run(perfbench::prepare(reference), Scheme::kSplicer, reference.schemes,
                     tracer, outcome)) {
      ++failed;
    }
  }

  std::vector<double> setup_s;
  std::optional<routing::Scenario> scenario;
  // A fresh scenario for every pass, as a user's compare run has; it is
  // identical each time, so every run must match its warm-up run.
  const auto set_up = [&] {
    for (int i = 0; i < kSetupsPerPass; ++i) {
      scenario.reset();
      setup_s.push_back(perfbench::timed_ms(tracer, "setup", [&] {
                          scenario.emplace(perfbench::prepare(workload));
                        }) / 1e3);
    }
  };
  std::array<SchemeRuns, kSchemes.size()> runs;
  const auto pass = [&] {
    std::uint64_t payments = 0;
    for (std::size_t s = 0; s < kSchemes.size(); ++s) {
      ++attempted;
      if (!checked_run(*scenario, kSchemes[s], config, tracer, runs[s])) ++failed;
      if (runs[s].reference) payments += runs[s].reference->payments_generated;
    }
    return payments;
  };

  // Untimed warm-up pass: fills caches and sets each scheme's reference.
  set_up();
  static_cast<void>(pass());

  std::vector<double> pass_ms;
  std::uint64_t payments = 0;
  const auto start = Clock::now();
  do {
    set_up();
    pass_ms.push_back(perfbench::timed_ms(tracer, "pass", [&] { payments += pass(); }));
  } while (std::chrono::duration<double>(Clock::now() - start).count() < opt.seconds);
  double timed_s = 0.0;  // passes only, without the set-ups between them
  for (const double ms : pass_ms) timed_s += ms / 1e3;
  const double payments_per_s = static_cast<double>(payments) / timed_s;

  MetricSet metrics;
  if (!opt.trace) {
    const auto& splicer = outcome.reference;
    metrics.add("payments_per_s", payments_per_s, "payments/s");
    metrics.add("pass_ms_p50", common::median(pass_ms), "ms",
                " (n=" + std::to_string(pass_ms.size()) + " passes)");
    metrics.add("setup_s", common::median(setup_s), "s",
                " (n=" + std::to_string(setup_s.size()) + " set-ups)");
    metrics.add("peak_rss_mib", peak_rss_mib(), "MiB");
    metrics.add("splicer_tsr", splicer ? splicer->tsr() : 0.0, "ratio");
    metrics.add("splicer_throughput", splicer ? splicer->normalized_throughput() : 0.0,
                "ratio");
  } else {
    std::uint64_t events_total = 0;
    std::uint64_t flushes = 0;
    std::uint64_t batched = 0;
    std::uint64_t resident = 0;
    std::uint64_t mutations = 0;
    for (std::size_t s = 0; s < kSchemes.size(); ++s) {
      if (!runs[s].reference) continue;
      const auto& m = *runs[s].reference;
      const std::string prefix = std::string("routing.") + scheme_key(kSchemes[s]) + ".";
      const double run_ms = runs[s].run_ms.empty() ? 0.0 : common::median(runs[s].run_ms);
      metrics.add(prefix + "run_ms", run_ms, "ms");
      metrics.add(prefix + "ns_per_event",
                  m.scheduler_events ? run_ms * 1e6 / static_cast<double>(m.scheduler_events)
                                     : 0.0,
                  "ns");
      metrics.add(prefix + "events", static_cast<double>(m.scheduler_events), "count");
      metrics.add(prefix + "messages", static_cast<double>(m.messages.total()), "count");
      metrics.add(prefix + "tu_delivery_ratio",
                  m.tus_sent ? static_cast<double>(m.tus_delivered) /
                                   static_cast<double>(m.tus_sent)
                             : 0.0,
                  "ratio");
      if (kSchemes[s] == Scheme::kSplicer || kSchemes[s] == Scheme::kSpider) {
        metrics.add(prefix + "price_updates_skipped",
                    static_cast<double>(m.price_updates_skipped), "count");
        metrics.add(prefix + "probe_sums_reused", static_cast<double>(m.probe_sums_reused),
                    "count");
      }
      events_total += m.scheduler_events;
      flushes += m.settlement_flushes;
      batched += m.settlements_batched;
      resident += m.peak_resident_states;
      mutations += m.mutation_events;
    }
    metrics.add("routing.settlement_flushes", static_cast<double>(flushes), "count");
    metrics.add("routing.settlements_batched", static_cast<double>(batched), "count");
    metrics.add("routing.peak_resident_states", static_cast<double>(resident), "count");

    metrics.add("sim.events_total", static_cast<double>(events_total), "count");
    metrics.add("sim.push_pop_ns", perfbench::scheduler_push_pop_ns(events_total, tracer),
                "ns");

    const auto graph = perfbench::replay_graph_queries(*scenario, tracer);
    metrics.add("graph.select_paths_us", graph.select_paths_us, "us");
    metrics.add("graph.disjoint_shortest_us", graph.disjoint_shortest_us, "us");
    metrics.add("graph.max_flow_us", graph.max_flow_us, "us");
    metrics.add("graph.shortest_path_us", graph.shortest_path_us, "us");
    metrics.add("graph.queries", static_cast<double>(graph.queries), "count");

    metrics.add("pcn.mutation_events", static_cast<double>(mutations), "count");
    metrics.add("pcn.source_next_ns", perfbench::source_next_ns(*scenario, tracer), "ns");
    metrics.add("pcn.network_copy_ms", perfbench::network_copy_ms(*scenario, tracer), "ms");

    // The set-up replay is one more checked operation: it must rebuild
    // prepare_scenario's hubs, clients and payments exactly.
    ++attempted;
    const auto setup = perfbench::replay_setup(workload, *scenario, tracer);
    if (!setup.matches) {
      ++failed;
      std::cerr << "perfbench: set-up replay does not reproduce prepare_scenario\n";
    }
    metrics.add("graph.generate_ms", setup.generate_ms, "ms");
    metrics.add("pcn.fund_ms", setup.fund_ms, "ms");
    metrics.add("placement.instance_ms", setup.instance_ms, "ms");
    metrics.add("placement.solve_ms", setup.solve_ms, "ms");
    metrics.add("placement.transform_ms", setup.transform_ms, "ms");
    metrics.add("pcn.workload_ms", setup.workload_ms, "ms");

    // Against the untraced invocation's payments_per_s, this states the
    // tracing overhead.
    metrics.add("traced.payments_per_s", payments_per_s, "payments/s");
  }

  const std::string fingerprint = fingerprint_json(opt, pass_ms.size());
  std::cout << "fingerprint " << fingerprint << "\n";
  std::cout << "workload " << opt.workload << ": " << pass_ms.size() << " passes, "
            << json_number(timed_s) << " s in passes, " << setup_s.size() << " set-ups\n";
  metrics.print(std::cout);
  const std::string result = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(failed) +
                             ", \"metrics\": " + metrics.json() + "}";

  if (!opt.record.empty()) {
    std::ofstream out(opt.record);
    out << "{\"fingerprint\": " << fingerprint << ",\n \"pass_ms\": " << json_array(pass_ms)
        << ",\n \"setup_s\": " << json_array(setup_s) << ",\n \"result\": " << result
        << "}\n";
    if (!out) throw std::runtime_error("cannot write " + opt.record);
  }
  if (opt.trace && !opt.spans.empty()) {
    std::ofstream out(opt.spans);
    tracer.write_json(out);
    if (!out) throw std::runtime_error("cannot write " + opt.spans);
  }
  std::cout << result << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
