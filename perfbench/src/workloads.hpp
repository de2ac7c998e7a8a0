#pragma once

/// \file workloads.hpp
/// The four benchmark workloads.  Each runs in its own process: it sets up
/// (timed, several times, median reported as setup_s), runs its timed
/// phase untraced for the end-to-end metrics, and with --trace 1 replays
/// the same inputs on fresh state with spans on for the per-layer metrics
/// and the tracing overhead.  Each checks its outputs after the timed
/// phase.

#include "common.hpp"

namespace perfbench {

void run_exact_mix(const Args& args, Report& report);
void run_zipf_open(const Args& args, Report& report);
void run_shard_miss(const Args& args, Report& report);
void run_online_replay(const Args& args, Report& report);

}  // namespace perfbench
