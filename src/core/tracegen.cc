#include "core/tracegen.hh"

#include <algorithm>
#include <chrono>

#include "core/analysis_pipeline.hh"

namespace cassandra::core {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Above this many logical run elements, a perfectly periodic branch
 * is encoded from one period instead of the full expansion (the BTU
 * replays traces cyclically, so the served element sequence is
 * identical). Gated high enough that no single-kernel workload ever
 * reaches it — trace size influences BTU pressure, so ungated
 * period-encoding would perturb existing timings.
 */
constexpr uint64_t kPeriodEncodeElems = uint64_t(1) << 20;

/** One instrumented run accumulating folded traces (steps A-C). */
struct FoldedRun
{
    std::map<uint64_t, FoldedTrace> traces;
    uint64_t peakBytes = 0;
};

FoldedRun
collectRun(const Workload &w, int which)
{
    sim::Machine machine(w.program);
    FoldedTraceCollector collector(machine, /*crypto_only=*/true);
    if (w.setInput)
        w.setInput(machine, which);
    auto res = machine.run(w.maxDynInsts);
    if (!res.halted)
        throw InstructionBudgetError(w.name, res.instCount,
                                     "Algorithm 2 analysis run");
    collector.finish();
    FoldedRun out;
    out.peakBytes = collector.peakHeldBytes();
    out.traces = collector.take();
    return out;
}

/** collectRun through the fused batch pipeline: same accumulators,
 * same crypto filter, batched probe instead of per-branch callback. */
FoldedRun
collectRunFused(const Workload &w, int which)
{
    FusedBranchRun run =
        runFusedBranchPass(w, which, /*crypto_only=*/true);
    FoldedRun out;
    out.peakBytes = run.peakBytes;
    out.traces = std::move(run.traces);
    return out;
}

} // namespace

std::vector<const BranchRecord *>
TraceGenResult::multiTarget() const
{
    std::vector<const BranchRecord *> out;
    for (const auto &r : records) {
        if (!r.singleTarget)
            out.push_back(&r);
    }
    return out;
}

TraceGenResult
generateTraces(const Workload &workload, const KmersParams &params,
               bool fused)
{
    TraceGenResult out;
    out.image.cryptoRanges = workload.program.cryptoRanges;

    // Steps A + B + C fused: one instrumented run per analysis input
    // run-length-encodes every static branch's trace online (the
    // folded accumulators never hold the raw target stream), so
    // analysis memory is O(static branches + folded RLE size) no
    // matter how many dynamic instructions the run executes. Both
    // collectors feed one FoldedTrace::append sequence. The two runs
    // share nothing (each has its own machine and accumulators), so
    // input 1 runs beside input 0 (runBeside: input 0's error wins).
    auto t0 = Clock::now();
    auto collect = [&workload, fused](int which) {
        return fused ? collectRunFused(workload, which)
                     : collectRun(workload, which);
    };
    FoldedRun run1, run2;
    runBeside([&] { run1 = collect(0); }, [&] { run2 = collect(1); });
    out.timings.rawSec = secondsSince(t0);

    // The runs may overlap and peak together, so the process-level
    // peak is bounded by the sum of their peaks.
    out.peakAccumBytes = run1.peakBytes + run2.peakBytes;

    // Step A bookkeeping: the static branch set is the union of the
    // branches seen under either input.
    t0 = Clock::now();
    std::map<uint64_t, bool> unique_branches;
    for (const auto &[pc, trace] : run1.traces)
        unique_branches[pc] = true;
    for (const auto &[pc, trace] : run2.traces)
        unique_branches[pc] = true;
    out.timings.detectSec = secondsSince(t0);

    for (const auto &[pc, seen] : unique_branches) {
        BranchRecord rec;
        rec.pc = pc;

        auto it1 = run1.traces.find(pc);
        auto it2 = run2.traces.find(pc);
        if (it1 == run1.traces.end() || it2 == run2.traces.end()) {
            // Executed under only one input: control flow itself is
            // input-dependent.
            rec.inputDependent = true;
            rec.rejection = TraceRejection::InputDependent;
            out.image.add(makeInputDependent(pc));
            out.records.push_back(rec);
            continue;
        }

        const FoldedTrace &f1 = it1->second;
        const FoldedTrace &f2 = it2->second;
        rec.vanillaSize = f1.logicalSize();

        // A branch that outgrew its accumulator cap gets the same
        // safe fallback as an undecodable one: stall until resolved.
        if (f1.capped() || f2.capped()) {
            rec.inputDependent = true;
            rec.rejection = TraceRejection::InputDependent;
            out.image.add(makeInputDependent(pc));
            out.records.push_back(rec);
            continue;
        }

        // Single-target: every execution went to the same place under
        // both inputs (vanilla trace size is already 1).
        if (f1.logicalSize() == 1 && f2.logicalSize() == 1 &&
            f1.frontTarget() == f2.frontTarget()) {
            rec.singleTarget = true;
            out.image.add(makeSingleTarget(pc, f1.frontTarget()));
            out.records.push_back(rec);
            continue;
        }

        // Input-dependence diff. Folding is deterministic in the
        // committed-element sequence, so structural equality of the
        // folded traces is exactly the paper's diff(K1, K2) on the
        // vanilla traces — no expansion needed to compare.
        if (!f1.sameAs(f2)) {
            rec.inputDependent = true;
            rec.rejection = TraceRejection::InputDependent;
            out.image.add(makeInputDependent(pc));
            out.records.push_back(rec);
            continue;
        }

        // Step C output: materialize the (small) vanilla trace for
        // the compression stages. Perfectly periodic traces past the
        // gate encode one period — cyclically identical replay.
        t0 = Clock::now();
        VanillaTrace v1;
        const VanillaTrace *period = f1.purePeriod();
        if (period && f1.logicalSize() > kPeriodEncodeElems)
            v1 = *period;
        else
            v1 = f1.expand();
        out.timings.vanillaSec += secondsSince(t0);

        // Steps D + E: DNA encoding and k-mers compression.
        t0 = Clock::now();
        DnaEncoding dna = encodeDna(v1);
        out.timings.dnaSec += secondsSince(t0);

        t0 = Clock::now();
        KmersResult kmers = compressKmers(dna, params);
        out.timings.kmersSec += secondsSince(t0);
        rec.kmersSize = kmers.totalSize();

        // Hardware encoding + embedding. If the merged pattern set of
        // a branch does not fit one PAT entry, recompress with smaller
        // maximum pattern sizes — the paper's §4.2.1 knob of "starting
        // with smaller and more frequent patterns".
        t0 = Clock::now();
        BranchTrace bt = encodeBranchTrace(pc, kmers);
        for (int retry_k = params.maxK / 2;
             bt.rejection == TraceRejection::PatternOverflow &&
             retry_k >= 2;
             retry_k /= 2) {
            KmersParams retry = params;
            retry.maxK = retry_k;
            bt = encodeBranchTrace(pc, compressKmers(dna, retry));
        }
        rec.rejection = bt.rejection;
        out.image.add(bt);
        out.timings.embedSec += secondsSince(t0);
        out.records.push_back(rec);
    }
    return out;
}

} // namespace cassandra::core
