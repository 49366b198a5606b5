// Benchmark entry point: one workload per process.
//
//   perfbench --workload sim_bmdos|loopback_durable --seed N
//             --seconds N --trace 0|1 [--slow fs|socket|node]
//
// --trace 1 reports the per-layer metrics instead of the end-to-end ones.
// --slow doubles one layer's time through its wrapper (sensitivity check);
// `socket` doubles every socket syscall, the victim's and its clients'.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace perfbench {

namespace {
const std::uint64_t g_process_start = NowNs();
}

std::uint64_t ProcessStartNs() { return g_process_start; }

void AddEndToEnd(Result& out, const EndToEnd& e) {
  out.Add("setup_s", e.setup_s, "s");
  out.Add("rx_frames_per_s", static_cast<double>(e.frames) / e.measured_s, "1/s");
  out.Add("honest_rtt_p50_us", Quantile(e.honest_rtt_us, 0.5), "us");
  out.Add("honest_rtt_p90_us", Quantile(e.honest_rtt_us, 0.9), "us");
  out.Add("time_to_ban_p50_ms", Quantile(e.time_to_ban_ms, 0.5), "ms");
  out.Add("peak_rss_mb", PeakRssMb(), "MiB");
  out.Add("fsyncs_per_kframe",
          e.frames > 0 ? static_cast<double>(e.fsyncs) * 1000.0 / e.frames : 0.0, "count");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--slow") {
      args.slow = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds < 1) {
    std::fprintf(stderr, "perfbench: --seconds must be at least 1\n");
    return 2;
  }
  perfbench::Probe& probe = perfbench::P();
  probe.timing = args.trace;
  const auto bit = [](perfbench::Layer l) { return 1u << static_cast<int>(l); };
  if (args.slow == "fs") {
    probe.slow = bit(perfbench::Layer::kFs);
  } else if (args.slow == "socket") {
    probe.slow = bit(perfbench::Layer::kSys) | bit(perfbench::Layer::kClientSys);
  } else if (args.slow == "node") {
    probe.slow = bit(perfbench::Layer::kDeliver);
  } else if (!args.slow.empty()) {
    std::fprintf(stderr, "perfbench: unknown --slow layer %s\n", args.slow.c_str());
    return 2;
  }
  if (args.workload == "sim_bmdos") return perfbench::RunSimBmdos(args);
  if (args.workload == "loopback_durable") return perfbench::RunLoopbackDurable(args);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
