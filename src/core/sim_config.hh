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
 *
 * forEachSimParam is the one list of the 38 sweepable parameters:
 * the JSON `configs[]` parser and the result-store key hash both
 * iterate it, so a parameter added there is parsed and keyed at once.
 */

#ifndef CASSANDRA_CORE_SIM_CONFIG_HH
#define CASSANDRA_CORE_SIM_CONFIG_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "btu/btu.hh"
#include "uarch/params.hh"

namespace cassandra::core {

/**
 * How a run's timing trace is stored and iterated.
 *
 * Both record the trace as CASSTF3 frames (under 1 byte/op on the
 * crypto kernels) and replay them through a TraceCursor. Whole holds the
 * frames in memory; Stream spills them to a trace file at analysis
 * time, so peak memory stays at one frame regardless of trace length.
 * Cycle results are identical in both modes.
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
     * Requested trace iteration mode, for library callers. Cells that
     * request Stream make the ExperimentRunner analyze their workloads
     * in stream mode (the artifact's storage mode ultimately governs
     * how Simulation::run iterates; one artifact is shared by every
     * cell of a workload, so any streaming cell streams the whole
     * workload). The experiment front ends set one mode per sweep
     * instead, in RunnerOptions::analyze.
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

/** How one sweepable SimConfig parameter is spelled and bounded. */
struct SimParam
{
    /** Path under a JSON configs[] entry, e.g. "core.l1d.ways". */
    const char *key;
    /** Largest value the JSON front end accepts. */
    uint64_t max;
    /** Hashed only under schemes that use the BTU (see
     * canonicalSimConfigHash): the simulator builds no BTU otherwise. */
    bool btuOnly = false;
};

/**
 * Call fn(param, field) for each of the 38 timing parameters of a
 * (const or mutable) SimConfig, in hash order. The order is part of
 * every result-store key: append new parameters, never reorder.
 * `name`, `scheme` and `traceMode` are not parameters; they are
 * labelled, keyed or stored separately.
 */
template <typename Config, typename Fn>
void
forEachSimParam(Config &cfg, Fn &&fn)
{
    auto &c = cfg.core;
    fn(SimParam{"core.fetch_width", 64}, c.fetchWidth);
    fn(SimParam{"core.commit_width", 64}, c.commitWidth);
    fn(SimParam{"core.issue_width", 64}, c.issueWidth);
    fn(SimParam{"core.rob_size", 1 << 20}, c.robSize);
    fn(SimParam{"core.iq_size", 1 << 20}, c.iqSize);
    fn(SimParam{"core.lq_size", 1 << 20}, c.lqSize);
    fn(SimParam{"core.sq_size", 1 << 20}, c.sqSize);
    fn(SimParam{"core.int_regs", 1 << 20}, c.intRegs);
    fn(SimParam{"core.frontend_depth", 1024}, c.frontendDepth);
    fn(SimParam{"core.decode_redirect", 1024}, c.decodeRedirect);
    fn(SimParam{"core.redirect_penalty", 1024}, c.redirectPenalty);
    fn(SimParam{"core.num_alu", 64}, c.numAlu);
    fn(SimParam{"core.num_mul", 64}, c.numMul);
    fn(SimParam{"core.num_lsu", 64}, c.numLsu);
    fn(SimParam{"core.alu_latency", 1024}, c.aluLatency);
    fn(SimParam{"core.mul_latency", 1024}, c.mulLatency);
    fn(SimParam{"core.store_latency", 1024}, c.storeLatency);
    fn(SimParam{"core.l1i.size_bytes", 1 << 30}, c.l1i.sizeBytes);
    fn(SimParam{"core.l1i.line_bytes", 4096}, c.l1i.lineBytes);
    fn(SimParam{"core.l1i.ways", 1024}, c.l1i.ways);
    fn(SimParam{"core.l1i.latency", 100000}, c.l1i.latency);
    fn(SimParam{"core.l1d.size_bytes", 1 << 30}, c.l1d.sizeBytes);
    fn(SimParam{"core.l1d.line_bytes", 4096}, c.l1d.lineBytes);
    fn(SimParam{"core.l1d.ways", 1024}, c.l1d.ways);
    fn(SimParam{"core.l1d.latency", 100000}, c.l1d.latency);
    fn(SimParam{"core.l2.size_bytes", 1 << 30}, c.l2.sizeBytes);
    fn(SimParam{"core.l2.line_bytes", 4096}, c.l2.lineBytes);
    fn(SimParam{"core.l2.ways", 1024}, c.l2.ways);
    fn(SimParam{"core.l2.latency", 100000}, c.l2.latency);
    fn(SimParam{"core.l3.size_bytes", 1 << 30}, c.l3.sizeBytes);
    fn(SimParam{"core.l3.line_bytes", 4096}, c.l3.lineBytes);
    fn(SimParam{"core.l3.ways", 1024}, c.l3.ways);
    fn(SimParam{"core.l3.latency", 100000}, c.l3.latency);
    fn(SimParam{"core.mem_latency", 100000}, c.memLatency);
    fn(SimParam{"core.btu_flush_period", ~0ull >> 1, true}, c.btuFlushPeriod);
    fn(SimParam{"btu.sets", 1 << 20, true}, cfg.btu.sets);
    fn(SimParam{"btu.ways", 1 << 20, true}, cfg.btu.ways);
    fn(SimParam{"btu.fill_latency", 1 << 20, true}, cfg.btu.fillLatency);
}

} // namespace cassandra::core

#endif // CASSANDRA_CORE_SIM_CONFIG_HH
