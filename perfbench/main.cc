// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans <path>]
//
// Runs one workload and prints every metric by name and unit, then, as
// the last line, the JSON result. Exits 1 when a correctness check fails
// and 2 on bad arguments. See README.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "report.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), &end);
    } else if (arg == "--trace") {
      opts.trace = val == "1";
      if (val != "0" && val != "1") return Usage("--trace takes 0 or 1");
    } else if (arg == "--spans") {
      spans_path = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad number for " + arg).c_str());
    }
  }
  if (opts.workload.empty()) return Usage("--workload is required");
  if (!(opts.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::Report report = perfbench::RunWorkload(opts);
  std::fputs(perfbench::HumanReport(opts, report).c_str(), stdout);
  if (opts.trace) {
    std::fputs(perfbench::SelfTimeTable(report.spans).c_str(), stdout);
    if (!spans_path.empty()) {
      if (perfbench::WriteSpansJson(spans_path, report.spans)) {
        std::printf("spans: %zu written to %s\n", report.spans.size(),
                    spans_path.c_str());
      } else {
        report.check_failures.push_back("cannot write spans to " + spans_path);
      }
    }
  }
  std::printf("%s\n", perfbench::ResultJson(opts, report).c_str());
  std::fflush(stdout);
  return report.check_failures.empty() ? 0 : 1;
}
