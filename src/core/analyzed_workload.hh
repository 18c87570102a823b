/**
 * @file
 * The two-phase simulation API: analyze once, simulate many.
 *
 * Phase 1 — analysis. AnalyzedWorkload::analyze(workload) prepares
 * every analysis demand-driven: the timing trace of the evaluation
 * input is recorded exactly once, and the Algorithm 2 trace generation
 * (k-mers compression + trace image) and the ProSpeCT taint pre-pass
 * each run at most once, on the first consumer that actually needs
 * them (or ensurePhases) — a baseline/SPT-only sweep never constructs
 * a trace image at all. Which phases ran is observable through the
 * per-phase counters of analysisPhaseRuns(). The result is an immutable,
 * thread-safe artifact held by shared_ptr, so any number of simulation
 * sessions — across threads — share one copy. Artifacts serialize
 * through core/serialize (saveAnalyzedWorkload / loadAnalyzedWorkload),
 * so repeated sweeps can skip analysis entirely; a snapshot carries
 * the same frames in both trace modes and reloads into either mode (by
 * default the one it was saved in).
 *
 * Memory: the timing trace is recorded by one fused analysis pass
 * (core/analysis_pipeline) whose chunks one TraceStreamWriter encodes
 * as CASSTF3 frames (core/trace_stream, under 1 B/op on the crypto
 * kernels). The artifact's one TraceFrames says where they live: held
 * in memory, one buffer per frame (whole mode), or in a trace file it
 * names (AnalyzeOptions::traceMode == TraceMode::Stream). Either way
 * openOpSource() replays them through a TraceCursor, so a replay holds
 * one decoded frame at a time; only the writer and the cursor branch
 * on the location. The taint pre-pass produces a 1 bit/op TaintBitmap.
 * Cycle results are bit-identical across modes.
 *
 * Phase 2 — simulation. A Simulation is a lightweight session over
 * one artifact that runs any number of SimConfigs; each run builds
 * its own OooCore, so results are deterministic and bit-identical to
 * a run over a freshly analyzed artifact:
 *
 *   auto aw = core::AnalyzedWorkload::analyze(
 *       crypto::WorkloadRegistry::global().make("ChaCha20_ct"));
 *   core::Simulation sim(aw);
 *   auto base = sim.run(uarch::Scheme::UnsafeBaseline);
 *   auto cass = sim.run(uarch::Scheme::Cassandra);
 *
 * AnalysisCache memoizes artifacts by registry name with
 * single-flight semantics: concurrent get() calls for one name block
 * on the same analysis, so a workload is analyzed exactly once per
 * cache no matter how many matrix cells want it.
 */

#ifndef CASSANDRA_CORE_ANALYZED_WORKLOAD_HH
#define CASSANDRA_CORE_ANALYZED_WORKLOAD_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "core/analysis_pipeline.hh"
#include "core/sim_config.hh"
#include "core/trace_stream.hh"
#include "core/tracegen.hh"
#include "core/workload.hh"
#include "uarch/pipeline.hh"

namespace cassandra::core {

/** Per-level cache activity snapshot. */
struct CacheActivity
{
    uint64_t l1iAccesses = 0, l1iMisses = 0;
    uint64_t l1dAccesses = 0, l1dMisses = 0;
    uint64_t l2Accesses = 0, l2Misses = 0;
    uint64_t l3Accesses = 0, l3Misses = 0;
};

/** Everything measured in one timing run. */
struct ExperimentResult
{
    uarch::CoreStats stats;
    btu::BtuStats btu; ///< zeroed for non-BTU schemes
    uarch::BpuStats bpu;
    CacheActivity caches;
};

/**
 * Call fn(section, key, field) for each of the 50 counters of a (const
 * or mutable) ExperimentResult, in CASSRS1 order. `section` is the JSON
 * report object that holds the counter: "" for the cell itself, then
 * "core", "btu", "bpu" and "caches.<level>"; `key` is its name there.
 * CASSRS1 entries, the JSON report and the tests' result comparisons
 * all iterate this list. The order is every stored entry's layout:
 * append new counters, never reorder.
 */
template <typename Result, typename Fn>
void
forEachResultCounter(Result &r, Fn &&fn)
{
    auto &s = r.stats;
    fn("", "cycles", s.cycles);
    fn("", "instructions", s.instructions);
    fn("core", "branches", s.branches);
    fn("core", "crypto_branches", s.cryptoBranches);
    fn("core", "cond_mispredicts", s.condMispredicts);
    fn("core", "indirect_mispredicts", s.indirectMispredicts);
    fn("core", "return_mispredicts", s.returnMispredicts);
    fn("core", "decode_redirects", s.decodeRedirects);
    fn("core", "integrity_stalls", s.integrityStalls);
    fn("core", "resolve_stalls", s.resolveStalls);
    fn("core", "btu_fill_stalls", s.btuFillStalls);
    fn("core", "btu_window_stalls", s.btuWindowStalls);
    fn("core", "btu_flushes", s.btuFlushes);
    fn("core", "btu_mismatches", s.btuMismatches);
    fn("core", "loads", s.loads);
    fn("core", "stores", s.stores);
    fn("core", "stl_forwards", s.stlForwards);
    fn("core", "scheme_load_delays", s.schemeLoadDelays);
    fn("core", "prospect_blocks", s.prospectBlocks);
    fn("core", "icache_miss_bubbles", s.icacheMissBubbles);
    auto &b = r.btu;
    fn("btu", "lookups", b.lookups);
    fn("btu", "single_target_hits", b.singleTargetHits);
    fn("btu", "hits", b.hits);
    fn("btu", "misses", b.misses);
    fn("btu", "evictions", b.evictions);
    fn("btu", "checkpoint_restores", b.checkpointRestores);
    fn("btu", "stall_resolve", b.stallResolve);
    fn("btu", "window_stalls", b.windowStalls);
    fn("btu", "prefetches", b.prefetches);
    fn("btu", "flushes", b.flushes);
    fn("btu", "commits", b.commits);
    fn("btu", "squash_rewinds", b.squashRewinds);
    auto &p = r.bpu;
    fn("bpu", "cond_lookups", p.condLookups);
    fn("bpu", "cond_mispredicts", p.condMispredicts);
    fn("bpu", "loop_overrides", p.loopOverrides);
    fn("bpu", "btb_lookups", p.btbLookups);
    fn("bpu", "btb_misses", p.btbMisses);
    fn("bpu", "indirect_mispredicts", p.indirectMispredicts);
    fn("bpu", "rsb_pushes", p.rsbPushes);
    fn("bpu", "rsb_pops", p.rsbPops);
    fn("bpu", "return_mispredicts", p.returnMispredicts);
    fn("bpu", "updates", p.updates);
    auto &c = r.caches;
    fn("caches.l1i", "accesses", c.l1iAccesses);
    fn("caches.l1i", "misses", c.l1iMisses);
    fn("caches.l1d", "accesses", c.l1dAccesses);
    fn("caches.l1d", "misses", c.l1dMisses);
    fn("caches.l2", "accesses", c.l2Accesses);
    fn("caches.l2", "misses", c.l2Misses);
    fn("caches.l3", "accesses", c.l3Accesses);
    fn("caches.l3", "misses", c.l3Misses);
}

/** The independent analyses an artifact can hold, as mask bits. */
enum AnalysisPhase : unsigned
{
    /** Dynamic timing trace of the evaluation input (always runs). */
    PhaseTimingTrace = 1u << 0,
    /** Algorithm 2: k-mers compression + trace image (Cassandra). */
    PhaseTraceImage = 1u << 1,
    /** ProSpeCT taint pre-pass -> TaintBitmap (secret workloads). */
    PhaseTaint = 1u << 2,
};

using AnalysisPhaseMask = unsigned;

constexpr AnalysisPhaseMask allAnalysisPhases =
    PhaseTimingTrace | PhaseTraceImage | PhaseTaint;

/** Process-wide per-phase analysis counters (see analysisPhaseRuns). */
struct AnalysisPhaseRuns
{
    uint64_t timingTrace = 0;
    uint64_t traceImage = 0; ///< Algorithm 2 runs
    uint64_t taint = 0;      ///< taint pre-passes over secret workloads
};

/** Knobs of one analysis (trace storage). */
struct AnalyzeOptions
{
    /** Whole: CASSTF3 frames in memory. Stream: a CASSTF3 file. */
    TraceMode traceMode = TraceMode::Whole;
    /** Stream-mode trace directory; empty = defaultTraceStreamDir(). */
    std::string streamDir;
};

/** Immutable analysis artifact: workload + traces, shareable. */
class AnalyzedWorkload
{
  public:
    using Ptr = std::shared_ptr<const AnalyzedWorkload>;

    /**
     * Phase 1: build the analysis artifact without running a phase;
     * every phase — the timing-trace recording included — is computed
     * demand-driven on first use or by ensurePhases(). Counts one
     * analysisRuns() tick (recording ticks analysisPhaseRuns() when it
     * actually happens).
     */
    static Ptr analyze(Workload workload, const AnalyzeOptions &options = {});

    /**
     * Rebuild an artifact from precomputed parts (the deserialization
     * path). `trace` is a recorded timing trace, already checked
     * against workload.program: held frames, or a stream file that the
     * artifact then owns and deletes with its last reference, exactly
     * like a freshly streamed analysis. `traces`, when the snapshot
     * has an Algorithm 2 image, is adopted verbatim (no Algorithm 2
     * run, no counter tick); without it Algorithm 2 stays
     * demand-driven. The taint pre-pass is recomputed on demand (it is
     * deterministic). Does not count as an analysis run.
     */
    static Ptr fromParts(Workload workload, TraceFrames trace,
                         std::optional<TraceGenResult> traces);

    /** Streamed artifacts own their trace file: it is deleted here
     * (open TraceCursors keep reading via their descriptor/mapping,
     * but do not outlive the artifact you got them from). */
    ~AnalyzedWorkload();

    const Workload &workload() const { return workload_; }

    /**
     * Algorithm 2 output: trace image, branch records, timings.
     * Demand-driven — the first call runs Algorithm 2 (thread-safe,
     * exactly once) unless the phase already ran.
     */
    const TraceGenResult &traces() const;

    /** True if the Algorithm 2 phase has run (no side effects). */
    bool hasTraceImage() const
    {
        return imageReady_.load(std::memory_order_acquire);
    }

    /**
     * ProSpeCT per-op taint flags at 1 bit/op. Demand-driven like
     * traces(); empty (all clear) when the workload annotates no
     * secret regions.
     */
    const uarch::TaintBitmap &taintBitmap() const;

    /** True if the taint pre-pass has run (no side effects). */
    bool hasTaintBitmap() const
    {
        return taintReady_.load(std::memory_order_acquire);
    }

    /**
     * Run every phase of `phases` that has not run yet. The trace
     * image (Algorithm 2) runs beside the recording pass under
     * analysisLaunchPolicy(); both are joined before an error
     * propagates, and the recording pass's error wins.
     */
    void ensurePhases(AnalysisPhaseMask phases) const;

    /** Storage mode of the timing trace. */
    TraceMode
    traceMode() const
    {
        return streamed() ? TraceMode::Stream : TraceMode::Whole;
    }

    /** True when the trace lives in a stream file, not in memory. */
    bool streamed() const { return trace_.streamed(); }

    /** Stream-mode trace file path (empty in whole mode). */
    const std::string &streamPath() const { return trace_.path; }

    /** Dynamic op count of the timing trace (both modes). Triggers
     * the recording phase if it has not run yet. */
    uint64_t numOps() const;

    /** True if the timing trace has been recorded (no side effects). */
    bool hasTimingTrace() const
    {
        return traceReady_.load(std::memory_order_acquire);
    }

    /**
     * Where the timing trace lives: the CASSTF3 frames a whole-mode
     * artifact holds in memory, or the stream file (and no frame) in
     * stream mode. Triggers the recording phase if it has not run
     * yet; heldFrames().bytes() is the memory the trace occupies.
     */
    const TraceFrames &heldFrames() const;

    /**
     * Iterate the timing trace: a TraceCursor over heldFrames(). Each
     * call returns an independent forward-only cursor, which must not
     * outlive the artifact.
     */
    std::unique_ptr<TraceCursor> openOpSource() const;

    /** Functional run with output verification (evaluation input). */
    bool verifyOutput() const;

    /**
     * Process-wide count of workload analyses performed through
     * analyze(). The analyze-once guarantee of AnalysisCache and
     * ExperimentRunner is observable (and tested) through this.
     */
    static uint64_t analysisRuns();

    /**
     * Process-wide per-phase counters: how many timing-trace
     * recordings, Algorithm 2 runs and taint pre-passes happened.
     * Baseline/SPT-only sweeps leave traceImage untouched.
     */
    static AnalysisPhaseRuns analysisPhaseRuns();

  private:
    /** An artifact whose timing trace lives in `trace`: recorded
     * already (fromParts), or recorded there on first use
     * (analyze). */
    AnalyzedWorkload(Workload workload, TraceFrames trace);

    /** Record the timing trace if it has not been recorded yet
     * (thread-safe, exactly once). */
    void ensureTrace() const;

    /**
     * ensureTrace() plus fusion: when the trace has not been recorded
     * yet, phases of `extra` that can ride the recording machine run
     * (the taint walk; the stream writer rides unconditionally) are
     * computed by the same single pass instead of a pass each.
     */
    void ensureTraceWith(AnalysisPhaseMask extra) const;

    Workload workload_;
    // The timing trace, held or in its stream file: recorded into by
    // the recording pass itself; every cursor decodes from it.
    mutable TraceFrames trace_;
    mutable std::mutex traceMutex_;
    mutable std::atomic<bool> traceReady_{false};

    // Demand-driven phases: logically part of the immutable value,
    // computed at most once (each under its mutex; a phase that threw
    // runs again on the next request).
    mutable std::mutex imageMutex_;
    mutable TraceGenResult traces_;
    mutable std::atomic<bool> imageReady_{false};
    mutable std::mutex taintMutex_;
    mutable uarch::TaintBitmap taint_;
    mutable std::atomic<bool> taintReady_{false};
};

/**
 * Phase 2: a simulation session over one shared artifact. Stateless
 * apart from the artifact handle — run() is const and thread-safe,
 * and every run is bit-identical for the same config, in either trace
 * mode.
 */
class Simulation
{
  public:
    explicit Simulation(AnalyzedWorkload::Ptr artifact);

    const AnalyzedWorkload &artifact() const { return *artifact_; }

    /** Run the timing model under a full configuration. */
    ExperimentResult run(const SimConfig &config) const;

    /** Run under a scheme with default core/BTU parameters. */
    ExperimentResult run(uarch::Scheme scheme) const;

    /**
     * The core run(config) replays on, and the taint bitmap it replays
     * with (null when unused), for a caller that feeds the ops itself.
     * The core refers into the artifact, which must outlive it.
     */
    std::pair<std::unique_ptr<uarch::OooCore>, const uarch::TaintBitmap *>
    makeCore(const SimConfig &config) const;

  private:
    AnalyzedWorkload::Ptr artifact_;
};

/** The ExperimentResult of `core`, whose run returned `stats`. */
ExperimentResult resultFromCore(const uarch::OooCore &core,
                                const uarch::CoreStats &stats);

/**
 * Thread-safe, single-flight artifact cache keyed by workload name
 * (case-insensitive, matching WorkloadRegistry lookup). Distinct
 * names analyze concurrently; concurrent requests for one name share
 * a single analysis.
 */
class AnalysisCache
{
  public:
    using Resolver = std::function<Workload(const std::string &)>;

    explicit AnalysisCache(Resolver resolver,
                           AnalyzeOptions options = {});

    /**
     * The artifact for a named workload, analyzing it on first
     * request. Blocks while another thread analyzes the same name;
     * analysis failures propagate to every waiter. `phases` are
     * guaranteed to have run on the returned artifact (a first request
     * runs them before publishing it, so a failing phase reaches every
     * waiter and is not cached); `mode` overrides the cache's trace mode
     * for a first-request analysis (cached artifacts keep the storage
     * they were analyzed with — results are identical either way).
     */
    AnalyzedWorkload::Ptr get(const std::string &name,
                              AnalysisPhaseMask phases,
                              TraceMode mode) const;
    AnalyzedWorkload::Ptr get(const std::string &name,
                              AnalysisPhaseMask phases) const;
    AnalyzedWorkload::Ptr get(const std::string &name) const;

    /** Preload an artifact (e.g. deserialized) under a name. */
    void put(const std::string &name, AnalyzedWorkload::Ptr artifact);

    /** True if get(name) would not trigger a fresh analysis. */
    bool contains(const std::string &name) const;

    /** Number of cached (or in-flight) artifacts. */
    size_t size() const;

    /** The analysis options first-request analyses run with. */
    const AnalyzeOptions &options() const { return options_; }

  private:
    static std::string key(const std::string &name);

    Resolver resolver_;
    AnalyzeOptions options_;
    mutable std::mutex mutex_;
    mutable std::map<std::string,
                     std::shared_future<AnalyzedWorkload::Ptr>>
        entries_;
};

} // namespace cassandra::core

#endif // CASSANDRA_CORE_ANALYZED_WORKLOAD_HH
