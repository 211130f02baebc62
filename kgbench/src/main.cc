// kgbench: the repository's benchmark binary. Driven by run.py; see
// README.md in this directory.
//
//   kgbench gen --workload W --seed N --out DIR
//   kgbench run --workload W --seed N --seconds S --trace 0|1
//               --data DIR --work DIR [--threads N]
//               [--sampler-delay-ns X] [--serve-fault-us Y]
//   kgbench selftest
//
// `run` prints one JSON object as its last line: correct, attempted,
// failed and the metrics (end-to-end ones untraced, per-layer ones
// traced). It also writes report.json and spans.json into --work.
#include <cstdio>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

std::string MetricsJson(const std::vector<kgb::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    kgb::JsonObject m;
    m.Num("value", metrics[i].value);
    m.Str("unit", metrics[i].unit);
    out += (i ? ", " : "") + kgb::JsonEscape(metrics[i].name) + ": " + m.Dump();
  }
  return out + "}";
}

int Run(const kgb::Flags& f) {
  kgb::RunOptions opt;
  opt.workload = f.Str("workload", "");
  opt.seed = static_cast<uint64_t>(f.Int("seed", 1));
  opt.seconds = f.Double("seconds", 10.0);
  opt.trace = f.Int("trace", 0) != 0;
  opt.data_dir = f.Str("data", "");
  opt.work_dir = f.Str("work", "");
  opt.threads = static_cast<int>(f.Int("threads", 4));
  opt.sampler_delay_ns = f.Int("sampler-delay-ns", 0);
  opt.serve_fault_us = f.Int("serve-fault-us", 0);
  if (opt.data_dir.empty() || opt.work_dir.empty() || opt.seconds <= 0 ||
      opt.threads < 1) {
    std::fprintf(stderr, "run: --data, --work and positive --seconds/--threads "
                         "are required\n");
    return 2;
  }
  kgb::RunReport rep;
  if (!kgb::RunWorkload(opt, &rep)) return 1;
  kgb::Tracer::Global().WriteJson(opt.work_dir + "/spans.json");

  kgb::JsonObject result;
  result.Bool("correct", rep.log.correct());
  result.Int("attempted", rep.log.attempted());
  result.Int("failed", rep.log.failed());
  result.Raw("metrics", MetricsJson(opt.trace ? rep.per_layer : rep.end_to_end));

  kgb::JsonObject report;
  report.Str("workload", opt.workload);
  report.Int("seed", static_cast<int64_t>(opt.seed));
  report.Num("seconds", opt.seconds);
  report.Bool("trace", opt.trace);
  report.Int("threads", opt.threads);
  report.Int("checks", rep.log.checks());
  report.Int("check_failures", rep.log.check_failures());
  report.Raw("end_to_end", MetricsJson(rep.end_to_end));
  report.Raw("per_layer", MetricsJson(rep.per_layer));
  report.Raw("extra", rep.extra.Dump());
  if (std::FILE* out = std::fopen((opt.work_dir + "/report.json").c_str(), "w")) {
    std::fprintf(out, "%s\n", report.Dump().c_str());
    std::fclose(out);
  }
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  const kgb::Flags flags(argc, argv, 2);
  if (cmd == "gen") {
    const std::string out = flags.Str("out", "");
    if (out.empty()) return 2;
    return kgb::GenerateForWorkload(flags.Str("workload", ""),
                                    static_cast<uint64_t>(flags.Int("seed", 1)),
                                    out)
               ? 0
               : 1;
  }
  if (cmd == "run") return Run(flags);
  if (cmd == "selftest") return kgb::RunCheckerSelfTest() == 0 ? 0 : 1;
  std::fprintf(stderr, "usage: kgbench gen|run|selftest [--flags]\n");
  return 2;
}
