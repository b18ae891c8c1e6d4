// The lrdipd service probe: starts the daemon as a child process at its
// default config and drives it open loop from one caller thread over at
// most four pipelined connections, at three fixed rates.
//
// It is not a BENCHMARK.json workload: at this revision concurrent
// run_batch_isolated callers deadlock the parallel executor's single job
// slot, so requests fail and the numbers are not steady. The probe exists
// to show that failure and to become the service workload once it is fixed.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct ServiceProbeArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;
  std::string daemon;  // path of the lrdipd executable
  int threads = 1;     // LRDIP_THREADS for the daemon
  int setup_reps = 1;
  std::string meta;  // extra "key": value pairs for the meta line
};

/// Prints the layers, meta and result lines; returns 0 when every request
/// came back correct, 1 otherwise.
int run_service_probe(const ServiceProbeArgs& args);

}  // namespace perfbench
