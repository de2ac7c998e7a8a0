#pragma once

/// \file probes.hpp
/// The metric lists and the per-layer measurements the workloads share.
///
/// A workload's traced run reports the per-layer rows that name it (see
/// `per_layer_rows`), from its own traced pass and from timing the same
/// public calls on its own inputs.  The timing helpers here take those
/// inputs and record no spans, so per-layer self time covers the traced
/// pass alone.  Rows for layers the workload does not pass through are
/// printed as 0 and listed on a '#' line (`finish_layer_rows`).

#include <string>
#include <vector>

#include "common.hpp"
#include "malsched/core/instance.hpp"
#include "malsched/service/cache.hpp"
#include "malsched/service/solver_registry.hpp"
#include "tracer.hpp"

namespace malsched::shard {
class ShardRouter;
}

namespace perfbench {

/// End-to-end metric names for `workload`, in output order: BENCHMARK.json's
/// list, plus the tail and open-loop figures zipf-open adds.
[[nodiscard]] std::vector<std::string> end_to_end_metrics(const std::string& workload);
/// Per-layer metric names, in output order (BENCHMARK.json's list).
[[nodiscard]] std::vector<std::string> per_layer_metrics();

/// Sets every per-layer row that does not name `workload` to 0 and lists
/// them on a '#' line.  A row that names it but was not measured fails the
/// run.
void finish_layer_rows(const std::string& workload, Report& report);

/// Router-side counters of a finished shard run: frames and bytes per
/// request, shm sleeps/wakes per 1k frames, fleet cache and transport
/// counters.
void report_shard_layer(malsched::shard::ShardRouter& router,
                        std::uint64_t requests, Report& report);

/// The service.cache.* counters and solves per request of `requests`
/// requests that saw `stats` (a delta when the cache was warm before).
void report_cache_layer(const malsched::service::CacheStats& stats,
                        std::size_t requests, Report& report);

/// service.intern_us, service.canonicalize_us and service.cache.get_us /
/// put_us on the workload's requests (instance plus solver name).
void time_service_calls(const std::vector<malsched::core::Instance>& instances,
                        const std::vector<std::string>& solvers, Report& report);

/// Mean seconds of an isolated detail::solve_dispatch over the requests in
/// order, through a fresh admission-filtered cache, within `budget`
/// seconds (at least one call).  With `warm`, every request is dispatched
/// once untimed first, so the timed calls hit as a warm service would.
[[nodiscard]] double measure_dispatch_seconds(
    const std::vector<malsched::core::Instance>& instances,
    const std::vector<std::string>& solvers,
    const malsched::service::SolverRegistry& registry, double budget,
    bool warm = false);

/// core.water_filling.us on the water-fill-smith requests and sim.engine.*
/// of sim::run_policy on the fluid-policy requests.
void time_fluid_solvers(const std::vector<malsched::core::Instance>& instances,
                        const std::vector<std::string>& solvers,
                        const malsched::service::SolverRegistry& registry,
                        Report& report);

/// lp.order_lp.cold_solve_us: core::solve_order_lp on the Smith order of
/// each instance, within `budget` seconds.
void time_cold_order_lp(const std::vector<malsched::core::Instance>& instances,
                        double budget, Report& report);

/// shard.wire.* per frame in both dialects on the requests' instance,
/// solve and result frames, and net.shm.hop_us for those binary frames
/// across two threads.
void time_wire_and_ring(const std::vector<malsched::core::Instance>& instances,
                        const std::vector<std::string>& solvers, Report& report);

/// <layer>.self_ms of every measured layer from the traced pass's spans.
void report_self_time(const Tracer& tracer, Report& report);

/// Writes the spans next to the other outputs when `args.out_dir` is set.
void dump_spans(const Tracer& tracer, const Args& args, Report& report);

}  // namespace perfbench
