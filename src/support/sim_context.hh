/**
 * @file
 * SimContext: the dependency seam that makes the simulation core
 * re-entrant.
 *
 * Historically every subsystem published observability into the
 * process-global MetricsRegistry and consulted the process-global
 * FaultInjector directly. That worked while one cell simulated at a
 * time, but a parallel campaign wants per-worker metric shards (no
 * cross-worker lock traffic on the hot path, deterministic merge at
 * join) and an explicit statement of which services a simulation is
 * allowed to touch.
 *
 * A SimContext bundles those services — a metrics sink, a
 * fault-injector view, and the RNG seed owned by the run — and is
 * threaded through cpu::simulateRun, trace replay/IO, and the campaign
 * engine. Code that does not care uses globalSimContext(), which binds
 * to the process-global registry and injector, preserving the old
 * behaviour exactly.
 *
 * Threading model (see DESIGN.md "Re-entrant simulation core"):
 *  - a SimContext is immutable after construction and safe to share
 *    between threads *only* if its MetricsRegistry is (the global one
 *    is; per-worker shards are single-writer by construction);
 *  - campaign workers each own a private shard context and merge it
 *    into the global registry after the worker pool joins, in worker
 *    order, so the manifest is deterministic for any worker count.
 */

#ifndef MOSAIC_SUPPORT_SIM_CONTEXT_HH
#define MOSAIC_SUPPORT_SIM_CONTEXT_HH

#include <chrono>
#include <cstdint>

#include "support/fault_injector.hh"
#include "support/metrics.hh"

namespace mosaic
{

/**
 * The services one simulation run (or one campaign worker) sees.
 * Cheap to copy; never owns the registries it points at.
 */
class SimContext
{
  public:
    /** Bind to the process-global registry and fault injector. */
    SimContext();

    /**
     * Bind to an explicit metrics sink (a per-worker shard) and fault
     * view. @p seed is the RNG seed the run derives randomness from;
     * @p worker_id identifies the owning worker in merged breakdowns.
     */
    SimContext(MetricsRegistry &metrics_sink, FaultInjector &fault_view,
               std::uint64_t seed = 0, unsigned worker_id = 0);

    /** The registry this context publishes observability into. */
    MetricsRegistry &metrics() const { return *metrics_; }

    /** The fault injector this context consults at fault sites. */
    FaultInjector &faults() const { return *faults_; }

    std::uint64_t seed() const { return seed_; }

    /** Index of the owning worker (0 for the global context). */
    unsigned workerId() const { return workerId_; }

    /** Copy of this context with a different seed. */
    SimContext
    withSeed(std::uint64_t seed) const
    {
        SimContext out = *this;
        out.seed_ = seed;
        return out;
    }

    /**
     * Cooperative watchdog deadline. The replay loops check it once
     * per chunk (~1k records) and throw TimeoutError when it has
     * passed, so a hung cell surfaces as an isolated failure instead
     * of wedging its worker forever. Defaults to "never".
     */
    std::chrono::steady_clock::time_point deadline() const
    {
        return deadline_;
    }

    /** True when a finite deadline is set. */
    bool hasDeadline() const
    {
        return deadline_ != std::chrono::steady_clock::time_point::max();
    }

    /** True when a finite deadline is set and has passed. */
    bool expired() const
    {
        return hasDeadline() &&
               std::chrono::steady_clock::now() > deadline_;
    }

    /** Copy of this context with a watchdog deadline. */
    SimContext
    withDeadline(std::chrono::steady_clock::time_point deadline) const
    {
        SimContext out = *this;
        out.deadline_ = deadline;
        return out;
    }

  private:
    MetricsRegistry *metrics_;
    FaultInjector *faults_;
    std::uint64_t seed_ = 0;
    unsigned workerId_ = 0;
    std::chrono::steady_clock::time_point deadline_ =
        std::chrono::steady_clock::time_point::max();
};

/**
 * The default context: process-global metrics + process-global faults.
 * Every ctx-less API overload forwards here.
 */
const SimContext &globalSimContext();

} // namespace mosaic

#endif // MOSAIC_SUPPORT_SIM_CONTEXT_HH
