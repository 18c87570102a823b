#include "core/analyzed_workload.hh"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <exception>
#include <future>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/serialize.hh"
#include "core/trace_stream.hh"

namespace cassandra::core {

namespace {

std::atomic<uint64_t> analysis_runs{0};
std::atomic<uint64_t> phase_timing_runs{0};
std::atomic<uint64_t> phase_image_runs{0};
std::atomic<uint64_t> phase_taint_runs{0};

/** Fused-pass consumer writing chunks into a trace stream file. */
class StreamWriteConsumer final : public BatchConsumer
{
  public:
    explicit StreamWriteConsumer(TraceStreamWriter &writer)
        : writer_(&writer)
    {
    }

    void
    consume(const AnalysisChunk &chunk) override
    {
        writer_->appendBatch(chunk.view());
    }

    void
    finish() override
    {
        writer_->finish();
    }

  private:
    TraceStreamWriter *writer_;
};

/** Fused-pass consumer encoding chunks into frames held in memory. */
class HoldFramesConsumer final : public BatchConsumer
{
  public:
    explicit HoldFramesConsumer(TraceFrames &held)
        : held_(&held), builder_(held.frameOps)
    {
    }

    void
    consume(const AnalysisChunk &chunk) override
    {
        builder_.add(chunk.view(), Hold{held_});
        held_->numOps += chunk.size;
    }

    void
    finish() override
    {
        builder_.finish(Hold{held_});
    }

  private:
    /** Each frame gets a buffer of its exact size, never copied again. */
    struct Hold
    {
        TraceFrames *held;

        void
        operator()(const uint8_t *frame, size_t bytes) const
        {
            held->frames.emplace_back(frame, frame + bytes);
        }
    };

    TraceFrames *held_;
    TraceFrameBuilder builder_;
};

/**
 * The incremental taint walk as a fused-pass consumer. Bits accumulate
 * in growable words because the fused pass discovers the op count as
 * it goes (there is no counting pre-run to size a bitmap).
 */
class TaintConsumer final : public BatchConsumer
{
  public:
    explicit TaintConsumer(const std::vector<SecretRegion> &regions)
        : walker_(regions)
    {
    }

    void
    consume(const AnalysisChunk &chunk) override
    {
        const uarch::OpBatchStorage &ops = chunk.ops;
        for (size_t i = 0; i < chunk.size; i++) {
            if (walker_.feed(*ops.inst[i], ops.memAddr[i],
                             ops.crypto[i] != 0)) {
                const uint64_t bit = chunk.baseIndex + i;
                const size_t word = static_cast<size_t>(bit >> 6);
                if (word >= words_.size())
                    words_.resize(word + 1, 0);
                words_[word] |= 1ull << (bit & 63);
            }
        }
    }

    uarch::TaintBitmap
    take(uint64_t num_ops)
    {
        return uarch::TaintBitmap::fromWords(
            static_cast<size_t>(num_ops), std::move(words_));
    }

  private:
    uarch::TaintWalker walker_;
    std::vector<uint64_t> words_;
};

} // namespace

AnalyzedWorkload::AnalyzedWorkload(Workload workload, TraceMode mode,
                                   TraceFrames frames,
                                   std::string streamPath,
                                   uint64_t numOps,
                                   std::optional<TraceGenResult> traces)
    : workload_(std::move(workload)), traceMode_(mode),
      streamPath_(std::move(streamPath)), numOps_(numOps),
      frames_(std::move(frames))
{
    // A deserialized image is adopted verbatim: the phase is marked
    // done without running (and without counting) Algorithm 2.
    if (traces) {
        traces_ = std::move(*traces);
        imageReady_.store(true, std::memory_order_release);
    }
    traceReady_.store(true, std::memory_order_release);
}

AnalyzedWorkload::AnalyzedWorkload(Workload workload,
                                   const AnalyzeOptions &options,
                                   std::string streamPath)
    : workload_(std::move(workload)), kmers_(options.kmers),
      traceMode_(options.traceMode), streamPath_(std::move(streamPath))
{
}

AnalyzedWorkload::~AnalyzedWorkload()
{
    if (streamed() && !streamPath_.empty() &&
        traceReady_.load(std::memory_order_acquire)) {
        // The analysis created the file; releasing the last artifact
        // reference reclaims the disk. Best-effort: also drop the
        // containing directory when this was its last trace.
        std::remove(streamPath_.c_str());
        const size_t slash = streamPath_.rfind('/');
        if (slash != std::string::npos && slash > 0)
            std::remove(streamPath_.substr(0, slash).c_str());
    }
}

AnalyzedWorkload::Ptr
AnalyzedWorkload::analyze(Workload workload, const AnalyzeOptions &options)
{
    analysis_runs.fetch_add(1, std::memory_order_relaxed);

    // The artifact is constructed without recording anything: the
    // trace (and every later phase) materializes demand-driven, so a
    // sweep whose cells all replay from the result store never pays
    // for analysis. Only the stream path is fixed eagerly — it names
    // the artifact's on-disk identity.
    std::string path;
    if (options.traceMode == TraceMode::Stream) {
        const std::string dir = options.streamDir.empty()
            ? defaultTraceStreamDir()
            : options.streamDir;
        ensureDirectories(dir);
        path = traceStreamPath(dir, workload.name,
                               programFingerprint(workload.program));
    }
    Ptr artifact(new AnalyzedWorkload(std::move(workload), options,
                                      std::move(path)));
    artifact->ensurePhases(options.phases);
    return artifact;
}

void
AnalyzedWorkload::ensureTrace() const
{
    ensureTraceWith(0);
}

void
AnalyzedWorkload::ensureTraceWith(AnalysisPhaseMask extra) const
{
    if (traceReady_.load(std::memory_order_acquire))
        return;
    // Each phase runs under its own mutex rather than std::call_once:
    // a failed phase must stay retryable, and call_once's exceptional
    // path is not reliable everywhere (under ThreadSanitizer the next
    // call hangs).
    std::lock_guard<std::mutex> lock(traceMutex_);
    if (traceReady_.load(std::memory_order_acquire))
        return;
    phase_timing_runs.fetch_add(1, std::memory_order_relaxed);
    // One machine run records the trace (CASSTF3 frames, held in
    // memory in whole mode, streamed to disk in stream mode) with no
    // counting pre-run, and any fusable pending phase consumes the
    // same chunks as they are produced.
    std::unique_ptr<TraceStreamWriter> writer;
    std::unique_ptr<BatchConsumer> frameConsumer;
    std::unique_ptr<TaintConsumer> taintConsumer;
    if (streamed()) {
        writer = std::make_unique<TraceStreamWriter>(
            streamPath_, programFingerprint(workload_.program));
        frameConsumer = std::make_unique<StreamWriteConsumer>(*writer);
    } else {
        frameConsumer = std::make_unique<HoldFramesConsumer>(frames_);
    }
    std::vector<BatchConsumer *> consumers = {frameConsumer.get()};
    const bool fuse_taint = (extra & PhaseTaint) != 0 &&
        !taintReady_.load(std::memory_order_acquire) &&
        !workload_.secretRegions.empty();
    if (fuse_taint) {
        taintConsumer =
            std::make_unique<TaintConsumer>(workload_.secretRegions);
        consumers.push_back(taintConsumer.get());
    }
    FusedPassStats stats;
    try {
        stats = runFusedOpPass(workload_, /*which=*/2, consumers);
    } catch (...) {
        // A failed recording (an exhausted instruction budget, a full
        // disk) leaves nothing behind: the unfinished writer wrote no
        // footer, and its partial file is removed here — no artifact
        // owns it.
        frames_ = TraceFrames();
        if (writer) {
            writer.reset();
            std::remove(streamPath_.c_str());
        }
        throw;
    }
    numOps_ = stats.numOps;
    if (fuse_taint) {
        taint_ = taintConsumer->take(numOps_);
        phase_taint_runs.fetch_add(1, std::memory_order_relaxed);
        taintReady_.store(true, std::memory_order_release);
    }
    traceReady_.store(true, std::memory_order_release);
}

uint64_t
AnalyzedWorkload::numOps() const
{
    ensureTrace();
    return numOps_;
}

AnalyzedWorkload::Ptr
AnalyzedWorkload::analyze(Workload workload, const KmersParams &params)
{
    AnalyzeOptions options;
    options.kmers = params;
    return analyze(std::move(workload), options);
}

AnalyzedWorkload::Ptr
AnalyzedWorkload::fromParts(Workload workload, TraceFrames frames,
                            std::optional<TraceGenResult> traces)
{
    const uint64_t ops = frames.numOps;
    return Ptr(new AnalyzedWorkload(std::move(workload), TraceMode::Whole,
                                    std::move(frames), "", ops,
                                    std::move(traces)));
}

AnalyzedWorkload::Ptr
AnalyzedWorkload::fromStreamParts(Workload workload, std::string streamPath,
                                  uint64_t numOps,
                                  std::optional<TraceGenResult> traces)
{
    return Ptr(new AnalyzedWorkload(std::move(workload), TraceMode::Stream,
                                    {}, std::move(streamPath), numOps,
                                    std::move(traces)));
}

const TraceGenResult &
AnalyzedWorkload::traces() const
{
    if (!imageReady_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(imageMutex_);
        if (!imageReady_.load(std::memory_order_acquire)) {
            traces_ = generateTraces(workload_, kmers_, /*fused=*/true);
            phase_image_runs.fetch_add(1, std::memory_order_relaxed);
            imageReady_.store(true, std::memory_order_release);
        }
    }
    return traces_;
}

const uarch::TaintBitmap &
AnalyzedWorkload::taintBitmap() const
{
    if (!taintReady_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(taintMutex_);
        // A concurrent fused recording pass may compute the bitmap
        // while this thread blocks on the trace; settle the trace
        // first, then re-check before walking.
        ensureTrace();
        if (taintReady_.load(std::memory_order_acquire))
            return taint_;
        if (!workload_.secretRegions.empty()) {
            // The same walker as the fused consumer, over the
            // artifact's replay source.
            auto src = openOpSource();
            taint_ = uarch::computeTaintBitmap(
                *src, workload_.secretRegions,
                static_cast<size_t>(numOps_));
            phase_taint_runs.fetch_add(1, std::memory_order_relaxed);
        }
        taintReady_.store(true, std::memory_order_release);
    }
    return taint_;
}

void
AnalyzedWorkload::ensurePhases(AnalysisPhaseMask phases) const
{
    // The taint walk needs the recorded ops anyway, so when both are
    // pending the fused pipeline computes them in one machine run —
    // ensureTraceWith fuses every requested phase that can ride the
    // recording pass; the per-phase ensures below then find their
    // phase already done. Algorithm 2 runs on the other two inputs and
    // shares nothing with the recording pass, so it runs beside it
    // when both are pending (runBeside: the recording pass's error
    // wins, so which error surfaces never depends on timing).
    const bool record = (phases & (PhaseTimingTrace | PhaseTaint)) != 0 &&
        !hasTimingTrace();
    const bool image = (phases & PhaseTraceImage) != 0 && !hasTraceImage();
    if (record && image)
        runBeside([this, phases] { ensureTraceWith(phases); },
                  [this] { traces(); });
    else if (record)
        ensureTraceWith(phases);
    else if (image)
        traces();
    if (phases & PhaseTaint)
        taintBitmap();
}

const TraceFrames &
AnalyzedWorkload::heldFrames() const
{
    ensureTrace();
    return frames_;
}

std::unique_ptr<TraceCursor>
AnalyzedWorkload::openOpSource() const
{
    ensureTrace();
    if (streamed())
        return std::make_unique<TraceCursor>(streamPath_,
                                             workload_.program);
    return std::make_unique<TraceCursor>(frames_, workload_.program);
}

bool
AnalyzedWorkload::verifyOutput() const
{
    if (!workload_.check)
        return true;
    sim::Machine machine(workload_.program);
    if (workload_.setInput)
        workload_.setInput(machine, 2);
    auto res = machine.run(workload_.maxDynInsts);
    if (!res.halted) {
        // Previously a silent `false`, indistinguishable from a wrong
        // answer; budget exhaustion is an analysis-setup bug and gets
        // the typed error.
        throw InstructionBudgetError(workload_.name, res.instCount,
                                     "output verification run");
    }
    return workload_.check(machine);
}

uint64_t
AnalyzedWorkload::analysisRuns()
{
    return analysis_runs.load(std::memory_order_relaxed);
}

AnalysisPhaseRuns
AnalyzedWorkload::analysisPhaseRuns()
{
    AnalysisPhaseRuns runs;
    runs.timingTrace = phase_timing_runs.load(std::memory_order_relaxed);
    runs.traceImage = phase_image_runs.load(std::memory_order_relaxed);
    runs.taint = phase_taint_runs.load(std::memory_order_relaxed);
    return runs;
}

Simulation::Simulation(AnalyzedWorkload::Ptr artifact)
    : artifact_(std::move(artifact))
{
    if (!artifact_)
        throw std::invalid_argument("Simulation needs an artifact");
}

std::pair<std::unique_ptr<uarch::OooCore>, const uarch::TaintBitmap *>
Simulation::makeCore(const SimConfig &config) const
{
    const AnalyzedWorkload &aw = *artifact_;
    const uarch::Scheme scheme = config.scheme;
    // Demand-driven Algorithm 2: only Cassandra-family cells touch the
    // trace image, so baseline/SPT sweeps never construct one.
    const TraceImage *image = nullptr;
    if (uarch::schemeIsCassandra(scheme))
        image = &aw.traces().image;
    // ProSpeCT schemes consult the per-op taint bitmap; everything
    // else replays the pristine stream.
    const uarch::TaintBitmap *taint = nullptr;
    if ((scheme == uarch::Scheme::Prospect ||
         scheme == uarch::Scheme::CassandraProspect) &&
        !aw.workload().secretRegions.empty())
        taint = &aw.taintBitmap();
    return {std::make_unique<uarch::OooCore>(config, aw.workload().program,
                                             image),
            taint};
}

ExperimentResult
Simulation::run(const SimConfig &config) const
{
    auto [core, taint] = makeCore(config);
    // A lone run decodes its own frames, held in memory or in a stream
    // file (config.traceMode selects the storage upstream, at analysis).
    auto src = artifact_->openOpSource();
    return resultFromCore(*core, core->run(*src, taint));
}

ExperimentResult
resultFromCore(const uarch::OooCore &core, const uarch::CoreStats &stats)
{
    ExperimentResult result;
    result.stats = stats;
    if (core.btuUnit())
        result.btu = core.btuUnit()->stats();
    result.bpu = core.tage().stats();
    const auto &mem = core.memory();
    result.caches.l1iAccesses = mem.l1i().stats().accesses;
    result.caches.l1iMisses = mem.l1i().stats().misses;
    result.caches.l1dAccesses = mem.l1d().stats().accesses;
    result.caches.l1dMisses = mem.l1d().stats().misses;
    result.caches.l2Accesses = mem.l2().stats().accesses;
    result.caches.l2Misses = mem.l2().stats().misses;
    result.caches.l3Accesses = mem.l3().stats().accesses;
    result.caches.l3Misses = mem.l3().stats().misses;
    return result;
}

ExperimentResult
Simulation::run(uarch::Scheme scheme) const
{
    SimConfig config;
    config.scheme = scheme;
    return run(config);
}

AnalysisCache::AnalysisCache(Resolver resolver, AnalyzeOptions options)
    : resolver_(std::move(resolver)), options_(std::move(options))
{
    if (!resolver_)
        throw std::invalid_argument(
            "AnalysisCache needs a workload resolver");
}

std::string
AnalysisCache::key(const std::string &name)
{
    // Same normalization as WorkloadRegistry lookup, so spelling
    // variants of one entry share one artifact.
    std::string k = name;
    for (char &c : k)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return k;
}

AnalyzedWorkload::Ptr
AnalysisCache::get(const std::string &name, AnalysisPhaseMask phases,
                   TraceMode mode) const
{
    const std::string k = key(name);
    const AnalysisPhaseMask want = options_.phases | phases;
    std::promise<AnalyzedWorkload::Ptr> promise;
    std::shared_future<AnalyzedWorkload::Ptr> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(k);
        if (it != entries_.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            entries_.emplace(k, future);
            owner = true;
        }
    }
    if (!owner) {
        // Blocks (outside the lock) while another thread analyzes.
        AnalyzedWorkload::Ptr artifact = future.get();
        // Phases requested beyond what the first analysis ran are
        // computed demand-driven (exactly once) on the shared value.
        artifact->ensurePhases(want);
        return artifact;
    }
    try {
        AnalyzeOptions options = options_;
        options.phases = want;
        options.traceMode = mode;
        auto artifact =
            AnalyzedWorkload::analyze(resolver_(name), options);
        promise.set_value(artifact);
        return artifact;
    } catch (...) {
        promise.set_exception(std::current_exception());
        // A failed analysis is not cached: current waiters see the
        // exception, later get() calls may legitimately retry.
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.erase(k);
        throw;
    }
}

AnalyzedWorkload::Ptr
AnalysisCache::get(const std::string &name,
                   AnalysisPhaseMask phases) const
{
    return get(name, phases, options_.traceMode);
}

AnalyzedWorkload::Ptr
AnalysisCache::get(const std::string &name) const
{
    return get(name, 0, options_.traceMode);
}

void
AnalysisCache::put(const std::string &name, AnalyzedWorkload::Ptr artifact)
{
    if (!artifact)
        throw std::invalid_argument("AnalysisCache::put: null artifact");
    std::promise<AnalyzedWorkload::Ptr> ready;
    ready.set_value(std::move(artifact));
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[key(name)] = ready.get_future().share();
}

bool
AnalysisCache::contains(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(key(name)) != 0;
}

size_t
AnalysisCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace cassandra::core
