// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <encoder_base|encoder_1bit> --seed N --seconds S
//             --trace <0|1> [--out-dir DIR]
//
// --trace 0 measures the named workload end to end; --trace 1 runs the
// traced layer suite, which is the same for every workload (--workload
// then only names the trace file). Both print a human-readable table, then a
// diagnostics line, then the result object as the last stdout line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "models.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<encoder_base|encoder_1bit> --seed N --seconds S "
               "--trace <0|1> [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a(argv[i]);
    if (i + 1 >= argc) usage("missing value for a flag");
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 120.0) {
        usage("--seconds takes a number in (0, 120]");
      }
    } else if (a == "--trace") {
      const std::string_view t(v);
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      opt.trace = t == "1";
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      usage("unknown flag");
    }
  }
  if (opt.workload != "encoder_base" && opt.workload != "encoder_1bit") {
    usage("unknown or missing --workload");
  }
  return opt;
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-40s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

void print_json_metrics(const std::vector<Metric>& ms) {
  std::printf("{");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Result res;
  const perfbench::CpuTimes cpu0 = perfbench::read_cpu_times();
  const double ref_start = perfbench::reference_kernel_ms();
  try {
    if (opt.trace) {
      res = perfbench::run_layers(opt);
    } else {
      res = perfbench::run_encoder(
          opt, opt.workload == "encoder_1bit" ? 1 : perfbench::kBits);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const double ref_end = perfbench::reference_kernel_ms();
  const double steal =
      perfbench::steal_frac(cpu0, perfbench::read_cpu_times());
  res.diag("host.steal_frac", steal, "ratio");
  res.diag("host.ref_kernel_ms.start", ref_start, "ms");
  res.diag("host.ref_kernel_ms.end", ref_end, "ms");
  if (res.failed > 0) res.correct = false;

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  print_table(opt.trace ? "per-layer metrics:" : "end-to-end metrics:",
              res.metrics);
  print_table("diagnostics:", res.diagnostics);
  std::printf("requests: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  std::printf("diagnostics: ");
  print_json_metrics(res.diagnostics);
  std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  print_json_metrics(res.metrics);
  std::printf("}\n");
  return 0;
}
