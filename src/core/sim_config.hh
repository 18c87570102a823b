/**
 * @file
 * One simulation configuration, bundled.
 *
 * A SimConfig carries everything that defines a timing run — the
 * protection scheme, the core parameters (Table 3) and the BTU
 * geometry/timing — and flows intact from Simulation::run through
 * OooCore into the Btu constructor.
 * Benches sweep any knob (BTU sets/ways/fill latency, core width, ROB
 * size, cache geometry, flush period) by deriving configs from a
 * base:
 *
 *   core::SimConfig cfg;
 *   cfg.scheme = uarch::Scheme::Cassandra;
 *   cfg.btu.ways = 4;
 *   auto res = sim.run(cfg);
 *
 * The fluent with*() helpers return modified copies so a sweep can be
 * written as a list of derived configs; configs also deserialize from
 * JSON sweep files (core/experiment_config) with snake_case field
 * overrides.
 */

#ifndef CASSANDRA_CORE_SIM_CONFIG_HH
#define CASSANDRA_CORE_SIM_CONFIG_HH

#include <stdexcept>
#include <string>
#include <utility>

#include "btu/btu.hh"
#include "uarch/params.hh"

namespace cassandra::core {

/**
 * How a run's timing trace is stored and iterated.
 *
 * Whole keeps the recorded trace in memory as the analysis pass's
 * SoA chunks (fastest, ~34 bytes/op resident). Stream spills it to a
 * CASSTF2 trace file at analysis time and replays it through a
 * TraceCursor, so peak memory stays at one frame regardless of trace
 * length. Cycle results are identical in both modes.
 */
enum class TraceMode
{
    Whole,
    Stream,
};

inline const char *
traceModeName(TraceMode mode)
{
    return mode == TraceMode::Stream ? "stream" : "whole";
}

inline TraceMode
traceModeFromName(const std::string &name)
{
    if (name == "whole")
        return TraceMode::Whole;
    if (name == "stream")
        return TraceMode::Stream;
    throw std::invalid_argument("unknown trace mode \"" + name +
                                "\" (expected whole or stream)");
}

/** Scheme + core + BTU parameters of one timing run. */
struct SimConfig
{
    /** Label used by the experiment reporters ("default" base). */
    std::string name = "default";
    uarch::Scheme scheme = uarch::Scheme::UnsafeBaseline;
    uarch::CoreParams core;
    btu::BtuParams btu;
    /**
     * Requested trace iteration mode. Cells that request Stream make
     * the ExperimentRunner analyze their workloads in stream mode (the
     * artifact's storage mode ultimately governs how Simulation::run
     * iterates; one artifact is shared by every cell of a workload, so
     * any streaming cell streams the whole workload).
     */
    TraceMode traceMode = TraceMode::Whole;

    /** Copy with a new report label. */
    SimConfig
    named(std::string n) const
    {
        SimConfig c = *this;
        c.name = std::move(n);
        return c;
    }

    /** Copy under another protection scheme. */
    SimConfig
    withScheme(uarch::Scheme s) const
    {
        SimConfig c = *this;
        c.scheme = s;
        return c;
    }

    /** Copy with a different BTU geometry. */
    SimConfig
    withBtuGeometry(size_t sets, size_t ways) const
    {
        SimConfig c = *this;
        c.btu.sets = sets;
        c.btu.ways = ways;
        return c;
    }

    /** Copy with a different BTU trace-fill latency. */
    SimConfig
    withBtuFillLatency(unsigned latency) const
    {
        SimConfig c = *this;
        c.btu.fillLatency = latency;
        return c;
    }

    /** Copy with a periodic BTU flush (paper Q4; 0 disables). */
    SimConfig
    withFlushPeriod(uint64_t period) const
    {
        SimConfig c = *this;
        c.core.btuFlushPeriod = period;
        return c;
    }

    /** Copy under another trace iteration mode. */
    SimConfig
    withTraceMode(TraceMode mode) const
    {
        SimConfig c = *this;
        c.traceMode = mode;
        return c;
    }
};

} // namespace cassandra::core

#endif // CASSANDRA_CORE_SIM_CONFIG_HH
