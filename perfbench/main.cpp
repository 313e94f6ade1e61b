// perfbench: end-to-end benchmark driver (see README.md).
//
//   perfbench --workload <oneshot_hacc3d|serve_mixed|session_window>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--trace-out <file>] [--corrupt]
//             [--seed-scan]
//
// Prints a "run facts" JSON line and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. Exits 0 only when every
// op completed with a correct result.
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>

#include "exec/thread_pool.h"
#include "service/service.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  int clients;
  Outcome (*run)(const RunConfig&, Report&);
  void (*seed_scan)(const RunConfig&);
};

// A closed-loop client blocks on its reply while the library's workers
// run, and the one-shot caller is itself the exec pool's thread 0, so no
// client counts as busy.
constexpr int kBusyClients = 0;

const Workload kWorkloads[] = {
    {"oneshot_hacc3d", kOneshotClients, &run_oneshot_hacc3d, &seed_scan_oneshot_hacc3d},
    {"serve_mixed", kServeMixedClients, &run_serve_mixed, &seed_scan_serve_mixed},
    {"session_window", kSessionWindowClients, &run_session_window, &seed_scan_session_window},
};

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--scale full|tiny] [--trace-out <file>]"
               " [--corrupt] [--seed-scan]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool seed_scan = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--corrupt") {
      cfg.corrupt = true;
    } else if (arg == "--seed-scan") {
      seed_scan = true;
    } else if ((v = value()) == nullptr) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--scale") {
      if (std::strcmp(v, "tiny") == 0) {
        cfg.scale = Scale::kTiny;
      } else if (std::strcmp(v, "full") != 0) {
        return usage("--scale must be full or tiny");
      }
    } else if (arg == "--trace-out") {
      cfg.trace_out = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (cfg.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown or missing --workload");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  if (seed_scan) {
    workload->seed_scan(cfg);
    return 0;
  }

  const int nproc = host_nproc();
  const int workers = fdbscan::exec::num_threads();
  if (workers + kBusyClients > nproc || workload->clients > nproc) {
    std::cerr << "perfbench: refusing to run: " << workers << " workers + "
              << kBusyClients << " busy clients (" << workload->clients
              << " clients) exceed nproc=" << nproc
              << "; set FDBSCAN_NUM_THREADS <= nproc\n";
    return 3;
  }

  Report report;
  const fdbscan::service::ServiceConfig shipped{};
  const auto quoted = [](const std::string& s) {
    std::string out = "\"";
    out.append(s).push_back('"');
    return out;
  };
  report.fact("workload", quoted(cfg.workload));
  report.fact("seed", static_cast<double>(cfg.seed));
  report.fact("seconds", cfg.seconds);
  report.fact("traced", cfg.trace ? 1.0 : 0.0);
  report.fact("scale", cfg.scale == Scale::kTiny ? "\"tiny\"" : "\"full\"");
  report.fact("nproc", static_cast<double>(nproc));
  report.fact("cpu_model", quoted(cpu_model()));
  report.fact("workers", static_cast<double>(workers));
  report.fact("clients", static_cast<double>(workload->clients));
  report.fact("build_type", "\"" PERFBENCH_BUILD_TYPE "\"");
  report.fact("service_dispatchers", static_cast<double>(shipped.dispatchers));
  report.fact("service_graph", shipped.graph ? 1.0 : 0.0);

  const Outcome outcome = workload->run(cfg, report);
  if (cfg.trace && !cfg.trace_out.empty() &&
      !SpanLog::get().write(cfg.trace_out)) {
    std::cerr << "perfbench: could not write spans to " << cfg.trace_out << "\n";
  }
  return report.print(cfg.trace, outcome.correct, outcome.attempted,
                      outcome.failed);
}
