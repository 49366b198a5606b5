// The workloads. Each runs its whole measurement and prints the
// one-line JSON result; the return value is the process exit code.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "layers.hpp"

namespace perfbench {

int RunSimBmdos(const Args& args);
int RunLoopbackDurable(const Args& args);

/// Wall clock at process start; the first set-up is timed from here.
std::uint64_t ProcessStartNs();

/// Builds a workload's world `count` times, appends each build's wall time
/// in seconds to `times`, and returns the last world. The run's first build
/// counts from process start, so one-time process costs show in it.
///
/// A workload builds part of its worlds before the measured phase and the
/// rest after it, and reports the median of all: set-up is short, and the
/// host's speed drifts over seconds, so builds made in one burst all read the
/// host at one moment.
template <typename World>
std::unique_ptr<World> TimeBuilds(int count, const std::function<std::unique_ptr<World>()>& build,
                                  std::vector<double>& times) {
  std::unique_ptr<World> out;
  for (int i = 0; i < count; ++i) {
    out.reset();
    const std::uint64_t start = times.empty() ? ProcessStartNs() : NowNs();
    out = build();
    times.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return out;
}

struct EndToEnd {
  double setup_s = 0.0;
  double measured_s = 0.0;  // wall time of the measured phase
  std::uint64_t frames = 0;  // handled in the measured phase
  std::vector<double> honest_rtt_us;
  std::vector<double> time_to_ban_ms;  // one per banned identifier
  std::uint64_t fsyncs = 0;
};

/// Adds the end-to-end metrics every workload reports.
void AddEndToEnd(Result& out, const EndToEnd& e);

}  // namespace perfbench
