// The end-to-end benchmark. One binary, one workload per invocation:
//
//   perfbench --workload <entity_serving|durable_ingest|er_analytics>
//             --seed <n> --seconds <s> --trace <0|1> [--data-dir <dir>]
//
// The last line of standard output is the JSON result; lines before it
// give the operations attempted and failed per class and, traced, the
// tracing overhead. See README.md.
//
// Untraced, the named workload runs for --seconds and reports the
// end-to-end metrics, which every workload measures. Traced, every
// workload runs its traced form for a third of --seconds, whichever one
// is named: each layer is driven by the workload that exercises it, and
// a traced run reports every per-layer metric.
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  using Runner = int (*)(const perfbench::Args&, perfbench::Report*);
  const std::pair<const char*, Runner> kWorkloads[] = {
      {"entity_serving", perfbench::RunEntityServing},
      {"durable_ingest", perfbench::RunDurableIngest},
      {"er_analytics", perfbench::RunErAnalytics},
  };
  Runner named = nullptr;
  for (const auto& [name, run] : kWorkloads) {
    if (args.workload == name) named = run;
  }
  if (named == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  perfbench::Report report;
  if (!args.trace) {
    int code = named(args, &report);
    if (code != 0) return code;
  } else {
    perfbench::Args each = args;
    each.seconds = args.seconds / std::size(kWorkloads);
    for (const auto& [name, run] : kWorkloads) {
      std::printf("traced %s\n", name);
      perfbench::Report part;
      int code = run(each, &part);
      if (code != 0) return code;
      report.Absorb(part, std::string(name) + ".");
    }
  }
  report.Print();
  return 0;
}
