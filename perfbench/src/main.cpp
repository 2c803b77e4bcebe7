// shc_perfbench — the repo benchmark's measuring program.
//
//   shc_perfbench --workload <designed-broadcast|designed-gossip|serve-mix>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--expect <row-field>=<value>]... [--tiny]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
// --expect gives the exact counters the designed workloads must
// reproduce (perfbench/expected.json, passed by run.py); --tiny selects
// the self-test sizes.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "shc_perfbench: " << why
            << "\nusage: shc_perfbench --workload <designed-broadcast|designed-gossip|serve-mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--expect field=value]... [--tiny]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = val == "1";
    } else if (flag == "--expect") {
      const std::size_t eq = val.find('=');
      if (eq == std::string::npos) return usage("--expect wants field=value");
      a.expect[val.substr(0, eq)] = std::strtoull(val.c_str() + eq + 1, nullptr, 10);
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Report report;
  try {
    if (a.workload == "designed-broadcast" || a.workload == "designed-gossip") {
      perfbench::run_designed(a, &report);
    } else if (a.workload == "serve-mix") {
      perfbench::run_serve_mix(a, &report);
    } else {
      return usage(("unknown workload '" + a.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "shc_perfbench: " << e.what() << '\n';
    return 1;
  }
  std::cout << report.json() << std::endl;
  return 0;
}
