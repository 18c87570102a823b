#include "core/serialize.hh"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/byte_io.hh"

namespace cassandra::core {

namespace {

/** Little-endian bit writer. */
class BitWriter
{
  public:
    void
    put(uint64_t value, int bits)
    {
        for (int i = 0; i < bits; i++) {
            if (bitPos_ == 0)
                bytes_.push_back(0);
            if ((value >> i) & 1)
                bytes_.back() |= static_cast<uint8_t>(1u << bitPos_);
            bitPos_ = (bitPos_ + 1) % 8;
        }
    }

    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
    int bitPos_ = 0;
};

/** Little-endian bit reader. */
class BitReader
{
  public:
    explicit BitReader(const std::vector<uint8_t> &bytes) : bytes_(bytes)
    {
    }

    uint64_t
    get(int bits)
    {
        uint64_t v = 0;
        for (int i = 0; i < bits; i++) {
            size_t byte = pos_ / 8;
            int bit = static_cast<int>(pos_ % 8);
            if (byte < bytes_.size() && ((bytes_[byte] >> bit) & 1))
                v |= 1ull << i;
            pos_++;
        }
        return v;
    }

  private:
    const std::vector<uint8_t> &bytes_;
    size_t pos_ = 0;
};

} // namespace

std::vector<uint8_t>
packTrace(const BranchTrace &trace)
{
    BitWriter w;
    // Header: 5-bit pattern count, 12-bit element count (the
    // checkpoint trace-index width bounds trace length), 3 flag bits.
    w.put(trace.patternSet.size(), 5);
    w.put(trace.elements.size(), 12);
    w.put(trace.shortTrace ? 1 : 0, 1);
    w.put(trace.singleTarget ? 1 : 0, 1);
    w.put(trace.hasTrace() ? 1 : 0, 1);
    for (const auto &pe : trace.patternSet) {
        w.put(static_cast<uint64_t>(pe.targetOffset) &
                  ((1u << TraceLimits::offsetBits) - 1),
              TraceLimits::offsetBits);
        w.put(pe.repetitions, 8);
    }
    for (const auto &te : trace.elements) {
        w.put(te.patternIndex, 4);
        // patternSize is 1..16: store size-1 in 4 bits.
        w.put(static_cast<uint64_t>(te.patternSize - 1), 4);
        w.put(te.patternCounter, 16);
        w.put(te.traceCounter, 8);
    }
    return w.take();
}

BranchTrace
unpackTrace(const std::vector<uint8_t> &bytes, uint64_t branch_pc)
{
    BitReader r(bytes);
    BranchTrace trace;
    trace.branchPc = branch_pc;
    size_t patterns = r.get(5);
    size_t elements = r.get(12);
    trace.shortTrace = r.get(1) != 0;
    trace.singleTarget = r.get(1) != 0;
    bool has_trace = r.get(1) != 0;
    if (!has_trace)
        trace.rejection = TraceRejection::InputDependent;
    for (size_t i = 0; i < patterns; i++) {
        PatternElement pe;
        uint64_t raw = r.get(TraceLimits::offsetBits);
        // Sign-extend the 12-bit offset.
        int32_t off = static_cast<int32_t>(raw);
        if (off & (1 << (TraceLimits::offsetBits - 1)))
            off -= 1 << TraceLimits::offsetBits;
        pe.targetOffset = off;
        pe.repetitions = static_cast<uint32_t>(r.get(8));
        trace.patternSet.push_back(pe);
    }
    for (size_t i = 0; i < elements; i++) {
        TraceElement te;
        te.patternIndex = static_cast<uint8_t>(r.get(4));
        te.patternSize = static_cast<uint8_t>(r.get(4) + 1);
        te.patternCounter = static_cast<uint16_t>(r.get(16));
        te.traceCounter = static_cast<uint16_t>(r.get(8));
        trace.elements.push_back(te);
    }
    return trace;
}

size_t
packedTraceBytes(const BranchTrace &trace)
{
    size_t bits = 5 + 12 + 3 +
        trace.patternSet.size() * TraceLimits::patternElementBits +
        trace.elements.size() * TraceLimits::traceElementBits;
    return (bits + 7) / 8;
}

// ---------------------------------------------------------------------
// AnalyzedWorkload snapshots
// ---------------------------------------------------------------------

namespace {

/** "CASSAW" family magic; the 7th byte is the version digit. */
constexpr char artifactMagicBase[6] = {'C', 'A', 'S', 'S', 'A', 'W'};

/** Phase-presence flags of a snapshot (bit set = section present). */
constexpr uint8_t artifactHasTraceImage = 1u << 0;

/** Where a load puts the trace section's frames (its storage byte);
 * the section is the same for both. */
constexpr uint8_t traceStorageMemory = 0; ///< held in memory, whole mode
constexpr uint8_t traceStorageStream = 1; ///< a fresh stream file

/** magic(8) + version(4) + metaLen(4). */
constexpr size_t snapshotPrefixBytes = 16;

/** The trace section head: u8 storage | u64 numOps | u32 frameOps. */
constexpr size_t traceHeadBytes = 13;

/** CASSTF3 frame header: u8 kind | u32 payloadBytes. */
constexpr size_t frameHeaderBytes = 5;

/** FNV-1a mixer shared by the fingerprint functions. */
struct Fnv
{
    uint64_t h = 14695981039346656037ull;

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

} // namespace

uint64_t
programFingerprint(const ir::Program &program)
{
    // FNV-1a over the decoded instruction stream plus the crypto
    // ranges: any change to the binary an artifact was analyzed
    // against flips the fingerprint.
    Fnv f;
    f.mix(program.insts.size());
    for (const auto &inst : program.insts) {
        f.mix(static_cast<uint64_t>(inst.op));
        f.mix((static_cast<uint64_t>(inst.rd) << 16) |
              (static_cast<uint64_t>(inst.rs1) << 8) | inst.rs2);
        f.mix(static_cast<uint64_t>(inst.imm));
    }
    for (const auto &r : program.cryptoRanges) {
        f.mix(r.lo);
        f.mix(r.hi);
    }
    return f.h;
}

uint64_t
workloadFingerprint(const Workload &workload)
{
    // Program plus every hashable run-relevant binding. setInput is a
    // closure and cannot be fingerprinted: changing input *data*
    // without touching the program is invisible here (documented in
    // the header).
    Fnv f;
    f.mix(programFingerprint(workload.program));
    f.mix(workload.maxDynInsts);
    f.mix(workload.secretRegions.size());
    for (const auto &r : workload.secretRegions) {
        f.mix(r.lo);
        f.mix(r.hi);
    }
    uint64_t frac;
    std::memcpy(&frac, &workload.sandboxFraction, sizeof frac);
    f.mix(frac);
    return f.h;
}

namespace {

/**
 * Pack the metadata section (name, fingerprint, phase flags, the
 * Algorithm 2 image when present) — everything except the trace
 * section.
 */
std::vector<uint8_t>
packMeta(const AnalyzedWorkload &aw, const std::string &name)
{
    ByteWriter w;
    w.str(name.empty() ? aw.workload().name : name);
    w.u64(workloadFingerprint(aw.workload()));

    // Phase presence: only phases that actually ran are snapshotted —
    // packing a baseline-only artifact must not trigger Algorithm 2.
    const bool has_image = aw.hasTraceImage();
    w.u8(has_image ? artifactHasTraceImage : 0);

    if (has_image) {
        // Branch records.
        const TraceGenResult &tg = aw.traces();
        w.u32(static_cast<uint32_t>(tg.records.size()));
        for (const BranchRecord &rec : tg.records) {
            w.u64(rec.pc);
            w.u64(rec.vanillaSize);
            w.u64(rec.kmersSize);
            w.u8(static_cast<uint8_t>((rec.singleTarget ? 1 : 0) |
                                      (rec.inputDependent ? 2 : 0)));
            w.u8(static_cast<uint8_t>(rec.rejection));
        }

        // Analysis step timings (informational; not replayed).
        w.f64(tg.timings.detectSec);
        w.f64(tg.timings.rawSec);
        w.f64(tg.timings.vanillaSec);
        w.f64(tg.timings.dnaSec);
        w.f64(tg.timings.kmersSec);
        w.f64(tg.timings.embedSec);

        // Trace image: hint words, branch traces, layout counters.
        const TraceImage &image = tg.image;
        w.u32(static_cast<uint32_t>(image.numBranches()));
        // Hints are not directly iterable; the pc set comes from the
        // records (every analyzed branch owns exactly one of each).
        for (const BranchRecord &rec : tg.records) {
            const HintInfo *hint = image.hint(rec.pc);
            if (!hint)
                throw std::invalid_argument(
                    "inconsistent artifact: record without hint");
            w.u64(rec.pc);
            w.u8(static_cast<uint8_t>((hint->singleTarget ? 1 : 0) |
                                      (hint->shortTrace ? 2 : 0)));
            w.u64(hint->targetPc);
            w.u32(hint->traceOffset);
        }
        w.u32(static_cast<uint32_t>(image.traces().size()));
        for (const auto &[pc, trace] : image.traces()) {
            w.u64(pc);
            w.u8(static_cast<uint8_t>(trace.rejection));
            w.u8(static_cast<uint8_t>((trace.singleTarget ? 1 : 0) |
                                      (trace.shortTrace ? 2 : 0)));
            w.u64(trace.singleTargetPc);
            w.blob(packTrace(trace));
        }
        w.u64(image.traceBytes());
        w.u32(static_cast<uint32_t>(image.cryptoRanges.size()));
        for (const auto &r : image.cryptoRanges) {
            w.u64(r.lo);
            w.u64(r.hi);
        }
    }
    return w.take();
}

/** Everything parseMeta recovers from the metadata section. */
struct SnapshotMeta
{
    std::string name;
    Workload workload;
    std::optional<TraceGenResult> image; ///< when the phase ran
};

/**
 * Validate the fixed snapshot prefix (reader positioned at byte 0) and
 * return the metadata-section length. "CASSAW" identifies the
 * container family; the version digit and the explicit version field
 * distinguish outdated snapshots (evict) from arbitrary non-artifact
 * files. Only artifactFormatVersion parses; every older revision
 * raises the typed eviction error.
 */
uint32_t
checkSnapshotPrefix(ByteReader &r)
{
    uint8_t magic[8];
    for (uint8_t &b : magic)
        b = r.u8();
    if (std::memcmp(magic, artifactMagicBase, 6) != 0)
        throw ArtifactFormatError(
            "not an AnalyzedWorkload snapshot (bad magic)");
    const uint8_t digit = magic[6];
    if (digit < '1' || digit > '0' + artifactFormatVersion ||
        magic[7] != '\n')
        throw ArtifactFormatError(
            "AnalyzedWorkload snapshot has an unknown container "
            "revision; evict and re-analyze");
    const uint32_t version = r.u32();
    if (version != static_cast<uint32_t>(digit - '0'))
        throw ArtifactFormatError(
            "AnalyzedWorkload snapshot magic and version field "
            "disagree; evict and re-analyze");
    if (version != artifactFormatVersion)
        throw ArtifactFormatError(
            "AnalyzedWorkload snapshot has an outdated container "
            "format (version " + std::to_string(version) +
            ", readable " + std::to_string(artifactFormatVersion) +
            "); evict and re-analyze");
    return r.u32();
}

/** Parse the metadata section and rebuild/validate the workload. */
SnapshotMeta
parseMeta(ByteReader &r, const AnalysisCache::Resolver &resolver)
{
    SnapshotMeta meta;
    meta.name = r.str();
    const uint64_t fingerprint = r.u64();

    meta.workload = resolver(meta.name);
    if (workloadFingerprint(meta.workload) != fingerprint)
        throw ArtifactStaleError(
            "stale AnalyzedWorkload snapshot for \"" + meta.name +
            "\": program fingerprint mismatch");

    const uint8_t phase_flags = r.u8();
    if (phase_flags & artifactHasTraceImage) {
        TraceGenResult &tg = meta.image.emplace();
        uint32_t num_records = r.u32();
        tg.records.reserve(num_records);
        for (uint32_t i = 0; i < num_records; i++) {
            BranchRecord rec;
            rec.pc = r.u64();
            rec.vanillaSize = r.u64();
            rec.kmersSize = r.u64();
            uint8_t flags = r.u8();
            rec.singleTarget = (flags & 1) != 0;
            rec.inputDependent = (flags & 2) != 0;
            rec.rejection = static_cast<TraceRejection>(r.u8());
            tg.records.push_back(rec);
        }

        tg.timings.detectSec = r.f64();
        tg.timings.rawSec = r.f64();
        tg.timings.vanillaSec = r.f64();
        tg.timings.dnaSec = r.f64();
        tg.timings.kmersSec = r.f64();
        tg.timings.embedSec = r.f64();

        std::map<uint64_t, HintInfo> hints;
        uint32_t num_hints = r.u32();
        for (uint32_t i = 0; i < num_hints; i++) {
            uint64_t pc = r.u64();
            uint8_t flags = r.u8();
            HintInfo hint;
            hint.singleTarget = (flags & 1) != 0;
            hint.shortTrace = (flags & 2) != 0;
            hint.targetPc = r.u64();
            hint.traceOffset = r.u32();
            hints[pc] = hint;
        }
        std::map<uint64_t, BranchTrace> traces;
        uint32_t num_traces = r.u32();
        for (uint32_t i = 0; i < num_traces; i++) {
            uint64_t pc = r.u64();
            auto rejection = static_cast<TraceRejection>(r.u8());
            uint8_t flags = r.u8();
            uint64_t single_target_pc = r.u64();
            BranchTrace trace = unpackTrace(r.blob(), pc);
            // unpackTrace collapses flags into the hardware view;
            // restore the exact analysis-side metadata.
            trace.rejection = rejection;
            trace.singleTarget = (flags & 1) != 0;
            trace.shortTrace = (flags & 2) != 0;
            trace.singleTargetPc = single_target_pc;
            traces.emplace(pc, std::move(trace));
        }
        size_t trace_bytes = r.u64();
        tg.image.restore(std::move(hints), std::move(traces),
                         trace_bytes);
        uint32_t num_ranges = r.u32();
        tg.image.cryptoRanges.clear();
        for (uint32_t i = 0; i < num_ranges; i++) {
            ir::PcRange range;
            range.lo = r.u64();
            range.hi = r.u64();
            tg.image.cryptoRanges.push_back(range);
        }
    }
    return meta;
}

/**
 * A fresh path for a rehydrated trace stream, unique across loads
 * *and* processes: loading one snapshot twice — or from two processes
 * sharing an explicit stream_dir — must not hand two artifacts the
 * same file (each artifact owns, truncates and deletes its own).
 */
std::string
rehydratedStreamPath(const std::string &stream_dir,
                     const SnapshotMeta &meta)
{
    static std::atomic<uint64_t> sequence{0};
    const std::string dir =
        stream_dir.empty() ? defaultTraceStreamDir() : stream_dir;
    ensureDirectories(dir);
    return traceStreamPath(
        dir,
        meta.name + "-rh" + processUniqueSuffix() + "-" +
            std::to_string(sequence.fetch_add(1)),
        programFingerprint(meta.workload.program));
}

/** magic | version | metaLen | meta — the fixed snapshot head. */
void
writeSnapshotHead(ByteWriter &w, const std::vector<uint8_t> &meta)
{
    for (char c : artifactMagicBase)
        w.u8(static_cast<uint8_t>(c));
    w.u8(static_cast<uint8_t>('0' + artifactFormatVersion));
    w.u8(static_cast<uint8_t>('\n'));
    w.u32(artifactFormatVersion);
    w.u32(static_cast<uint32_t>(meta.size()));
    w.raw(meta.data(), meta.size());
}

/** A snapshot file read front to back; a read past its end fails as
 * truncated. */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::string &path)
        : file_(path, std::ios::binary)
    {
        if (!file_)
            throw std::runtime_error("cannot open " + path);
        file_.seekg(0, std::ios::end);
        left_ = static_cast<uint64_t>(file_.tellg());
        file_.seekg(0);
    }

    /** Append the next `n` bytes to `out`. */
    void
    read(std::vector<uint8_t> &out, uint64_t n)
    {
        if (n > left_)
            throw std::invalid_argument(
                "truncated AnalyzedWorkload snapshot");
        const size_t at = out.size();
        out.resize(at + static_cast<size_t>(n));
        if (n > 0 && !file_.read(reinterpret_cast<char *>(out.data() + at),
                                 static_cast<std::streamsize>(n)))
            throw std::invalid_argument(
                "truncated AnalyzedWorkload snapshot");
        left_ -= n;
    }

    std::vector<uint8_t>
    read(uint64_t n)
    {
        std::vector<uint8_t> out;
        read(out, n);
        return out;
    }

    uint64_t left() const { return left_; }

  private:
    std::ifstream file_;
    uint64_t left_ = 0;
};

/**
 * Bound the trace head's sizes before anything is sized from them: a
 * frame holds at most traceFrameMaxOps ops and takes at least
 * traceFrameMinBytes, so a garbage frame_ops or num_ops in a small
 * corrupt file fails here, not as a huge buffer.
 */
void
checkTraceHead(const SnapshotReader &in, uint64_t num_ops,
               uint32_t frame_ops)
{
    if (frame_ops == 0 || frame_ops > traceFrameMaxOps)
        throw ArtifactFormatError(
            "AnalyzedWorkload snapshot has frame size " +
            std::to_string(frame_ops) + " outside 1.." +
            std::to_string(traceFrameMaxOps));
    if (num_ops / frame_ops + (num_ops % frame_ops != 0) >
        in.left() / traceFrameMinBytes)
        throw std::invalid_argument(
            "truncated AnalyzedWorkload snapshot");
}

} // namespace

void
saveAnalyzedWorkload(const AnalyzedWorkload &aw, const std::string &path,
                     const std::string &name)
{
    // Both modes write the frames the artifact already holds, in memory
    // or in its stream file, one at a time: nothing is re-encoded, and a
    // stream save keeps about one frame resident.
    const std::unique_ptr<TraceCursor> trace = aw.openOpSource();
    ByteWriter head;
    writeSnapshotHead(head, packMeta(aw, name));
    head.u8(aw.streamed() ? traceStorageStream : traceStorageMemory);
    head.u64(trace->numOps());
    head.u32(trace->opsPerFrame());
    const std::vector<uint8_t> head_bytes = head.take();

    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file)
        throw std::runtime_error("cannot open " + path + " for writing");
    file.write(reinterpret_cast<const char *>(head_bytes.data()),
               static_cast<std::streamsize>(head_bytes.size()));
    for (uint64_t f = 0; f < trace->numFrames(); f++) {
        const EncodedFrame frame = trace->encodedFrame(f);
        file.write(reinterpret_cast<const char *>(frame.data),
                   static_cast<std::streamsize>(frame.size));
    }
    if (!file)
        throw std::runtime_error("short write to " + path);
}

AnalyzedWorkload::Ptr
loadAnalyzedWorkload(const std::string &path,
                     const AnalysisCache::Resolver &resolver,
                     const std::string &stream_dir,
                     std::optional<TraceMode> mode)
{
    SnapshotReader in(path);
    const std::vector<uint8_t> prefix = in.read(snapshotPrefixBytes);
    ByteReader pr(prefix);
    const std::vector<uint8_t> meta_bytes =
        in.read(checkSnapshotPrefix(pr));
    ByteReader mr(meta_bytes);
    SnapshotMeta meta = parseMeta(mr, resolver);
    if (!mr.done())
        throw std::invalid_argument(
            "trailing bytes in AnalyzedWorkload snapshot metadata");

    const std::vector<uint8_t> head = in.read(traceHeadBytes);
    ByteReader hr(head);
    const uint8_t storage = hr.u8();
    const uint64_t num_ops = hr.u64();
    const uint32_t frame_ops = hr.u32();
    const ir::Program &program = meta.workload.program;
    if (storage != traceStorageMemory && storage != traceStorageStream)
        throw std::invalid_argument(
            "AnalyzedWorkload snapshot has an unknown trace storage "
            "kind");
    checkTraceHead(in, num_ops, frame_ops);
    const TraceMode saved =
        storage == traceStorageStream ? TraceMode::Stream : TraceMode::Whole;

    // Every frame passes the checked decode and relink TraceCursor
    // uses, so a corrupt frame fails the load, not a later replay, and
    // then goes to the one writer: into memory, or into a fresh stream
    // file the artifact owns. A load that fails leaves no frame and no
    // file behind.
    TraceFrames trace;
    trace.frameOps = frame_ops;
    if (mode.value_or(saved) == TraceMode::Stream)
        trace.path = rehydratedStreamPath(stream_dir, meta);
    TraceStreamWriter writer(trace, programFingerprint(program));
    try {
        const std::vector<uint8_t> crypto = program.cryptoPcTable();
        uarch::OpBatchStorage check;
        std::vector<uint8_t> frame;
        for (uint64_t done = 0; done < num_ops; done += frame_ops) {
            const uint32_t n = static_cast<uint32_t>(
                std::min<uint64_t>(frame_ops, num_ops - done));
            frame.clear();
            in.read(frame, frameHeaderBytes);
            const uint32_t payload = static_cast<uint32_t>(frame[1]) |
                static_cast<uint32_t>(frame[2]) << 8 |
                static_cast<uint32_t>(frame[3]) << 16 |
                static_cast<uint32_t>(frame[4]) << 24;
            in.read(frame, payload);
            decodeRelinkedFrame(frame.data(), frame.size(), n, program,
                                crypto, check);
            writer.appendFrame(frame.data(), frame.size(), n);
        }
        if (in.left() != 0)
            throw std::invalid_argument(
                "trailing bytes in AnalyzedWorkload snapshot");
        writer.finish();
    } catch (...) {
        writer.discard();
        throw;
    }
    return AnalyzedWorkload::fromParts(std::move(meta.workload),
                                       std::move(trace),
                                       std::move(meta.image));
}

// ---------------------------------------------------------------------
// ExperimentResult counter blocks
// ---------------------------------------------------------------------

size_t
experimentResultCounterCount()
{
    size_t count = 0;
    const ExperimentResult probe{};
    forEachResultCounter(probe, [&](const char *, const char *, uint64_t) {
        count++;
    });
    return count;
}

void
packExperimentResult(ByteWriter &w, const ExperimentResult &result)
{
    forEachResultCounter(result,
                         [&](const char *, const char *, uint64_t field) {
                             w.u64(field);
                         });
}

ExperimentResult
unpackExperimentResult(ByteReader &r)
{
    ExperimentResult result;
    forEachResultCounter(result,
                         [&](const char *, const char *, uint64_t &field) {
                             field = r.u64();
                         });
    return result;
}

uint16_t
packHint(const HintInfo &hint, uint64_t branch_pc)
{
    // 14 bits: single-target(1) | short-trace(1) | 12-bit offset. For
    // single-target branches the offset field carries the target delta
    // in instruction units; otherwise the trace-page offset.
    uint16_t word = 0;
    if (hint.singleTarget) {
        word |= 1u << 13;
        int64_t delta =
            (static_cast<int64_t>(hint.targetPc) -
             static_cast<int64_t>(branch_pc)) /
            static_cast<int64_t>(ir::instBytes);
        word |= static_cast<uint16_t>(delta & 0xfff);
    } else {
        if (hint.shortTrace)
            word |= 1u << 12;
        word |= static_cast<uint16_t>(hint.traceOffset & 0xfff);
    }
    return word;
}

} // namespace cassandra::core
