#include "core/serialize.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
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

/** Storage kind of the snapshot's trace section. */
constexpr uint8_t traceStorageInline = 0; ///< in-file ops, whole mode
constexpr uint8_t traceStorageStream = 1; ///< embedded CASSTF2 file

/** magic(8) + version(4) + metaLen(4). */
constexpr size_t snapshotPrefixBytes = 16;

/** Chunk size of the file<->file stream-section copies. */
constexpr size_t copyChunkBytes = 64 * 1024;

std::atomic<uint64_t> inline_ops_written{0};
std::atomic<uint64_t> inline_ops_read{0};
std::atomic<uint64_t> stream_bytes_copied{0};

} // namespace

namespace {

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
 * section, whose storage differs between whole and streamed
 * artifacts.
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

/** The validated snapshot prefix: container version + meta length. */
struct SnapshotPrefix
{
    uint32_t version = 0;
    uint32_t metaLen = 0;
};

/**
 * Validate the fixed snapshot prefix (reader positioned at byte 0)
 * and return the container version and metadata-section length.
 * "CASSAW" identifies the container family; the version digit and the
 * explicit version field distinguish outdated snapshots (evict) from
 * arbitrary non-artifact files. Versions artifactMinReadVersion..
 * artifactFormatVersion parse; older revisions raise the typed
 * eviction error.
 */
SnapshotPrefix
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
    SnapshotPrefix prefix;
    prefix.version = r.u32();
    if (prefix.version != static_cast<uint32_t>(digit - '0'))
        throw ArtifactFormatError(
            "AnalyzedWorkload snapshot magic and version field "
            "disagree; evict and re-analyze");
    if (prefix.version < artifactMinReadVersion)
        throw ArtifactFormatError(
            "AnalyzedWorkload snapshot has an outdated container "
            "format (version " + std::to_string(prefix.version) +
            ", oldest readable " +
            std::to_string(artifactMinReadVersion) +
            "); evict and re-analyze");
    prefix.metaLen = r.u32();
    return prefix;
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
 * Parse a CASSAW4 inline trace section (u32 frameOps, then CASSTF2
 * codec frames) into the frames a whole-mode artifact holds. Each frame
 * passes the checked decode and relink TraceCursor uses before it is
 * kept, so a corrupt section fails here, at load, not at replay.
 */
TraceFrames
readHeldFrames(ByteReader &r, uint64_t num_ops, const ir::Program &program)
{
    TraceFrames held;
    held.numOps = num_ops;
    held.frameOps = r.u32();
    if (num_ops > 0 && held.frameOps == 0)
        throw std::invalid_argument(
            "AnalyzedWorkload snapshot has a zero frame size");
    // Bound the declared count before allocating: even the tightest
    // delta encoding spends >= 3 bytes per op (three varints), so a
    // garbage num_ops in a corrupt file must fail as truncated, not
    // as a multi-GB allocation.
    if (num_ops > r.remaining() / 3)
        throw std::invalid_argument(
            "truncated AnalyzedWorkload snapshot");
    const std::vector<uint8_t> crypto = cryptoPcTable(program);
    uarch::OpBatchStorage check;
    for (uint64_t done = 0; done < num_ops; done += held.frameOps) {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(held.frameOps, num_ops - done));
        // Frame header: u8 kind | u32 payloadBytes; the payload
        // follows contiguously, so `frame` spans the whole frame.
        const uint8_t *frame = r.raw(5);
        const uint32_t payload = static_cast<uint32_t>(frame[1]) |
            static_cast<uint32_t>(frame[2]) << 8 |
            static_cast<uint32_t>(frame[3]) << 16 |
            static_cast<uint32_t>(frame[4]) << 24;
        r.raw(payload);
        decodeRelinkedFrame(frame, 5 + payload, n, program, crypto, check);
        held.frames.emplace_back(frame, frame + 5 + payload);
    }
    inline_ops_read.fetch_add(num_ops, std::memory_order_relaxed);
    return held;
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

/**
 * Validate an extracted stream file and wrap it into a streamed
 * artifact. The TraceCursor construction re-checks the stream's own
 * magic/version/index and its program fingerprint against the rebuilt
 * workload; the file is deleted again if anything is off.
 */
AnalyzedWorkload::Ptr
assembleStreamed(SnapshotMeta meta, const std::string &trace_path,
                 uint64_t num_ops)
{
    try {
        TraceCursor cursor(trace_path, meta.workload.program,
                           TraceCursor::Backing::Buffered);
        if (cursor.numOps() != num_ops)
            throw ArtifactFormatError(
                "AnalyzedWorkload snapshot op count disagrees with "
                "its embedded trace stream");
    } catch (...) {
        std::remove(trace_path.c_str());
        throw;
    }
    return AnalyzedWorkload::fromStreamParts(std::move(meta.workload),
                                             trace_path, num_ops,
                                             std::move(meta.image));
}

uint8_t
fileU8(std::ifstream &file)
{
    char b;
    if (!file.read(&b, 1))
        throw std::invalid_argument(
            "truncated AnalyzedWorkload snapshot");
    return static_cast<uint8_t>(b);
}

uint64_t
fileU64(std::ifstream &file)
{
    uint8_t buf[8];
    if (!file.read(reinterpret_cast<char *>(buf), 8))
        throw std::invalid_argument(
            "truncated AnalyzedWorkload snapshot");
    uint64_t v = 0;
    for (int i = 0; i < 8; i++)
        v |= static_cast<uint64_t>(buf[i]) << (8 * i);
    return v;
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

/** Open an artifact's stream file, reporting its byte size. */
std::ifstream
openStreamFile(const AnalyzedWorkload &aw, uint64_t &size)
{
    // Phases are demand-driven: a lazily analyzed artifact only writes
    // its stream file on first use, and a snapshot embeds those bytes.
    aw.numOps();
    std::ifstream src(aw.streamPath(), std::ios::binary);
    if (!src)
        throw std::runtime_error("cannot open trace stream " +
                                 aw.streamPath());
    src.seekg(0, std::ios::end);
    size = static_cast<uint64_t>(src.tellg());
    src.seekg(0);
    return src;
}

/**
 * Copy `len` bytes from `src` into `sink(data, n)` in bounded chunks;
 * throws runtime_error naming `what` on a short read.
 */
template <typename Sink>
void
copyChunked(std::istream &src, uint64_t len, const std::string &what,
            Sink &&sink)
{
    std::vector<uint8_t> chunk(copyChunkBytes);
    uint64_t copied = 0;
    while (copied < len) {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(chunk.size(), len - copied));
        if (!src.read(reinterpret_cast<char *>(chunk.data()),
                      static_cast<std::streamsize>(n)))
            throw std::runtime_error("short read from " + what);
        sink(chunk.data(), n);
        copied += n;
    }
}

/**
 * Extract an embedded stream section — `write(out)` produces the
 * blob's bytes — to a fresh rehydrated trace file and assemble the
 * streamed artifact. The one copy of the cleanup invariant: no
 * artifact ever owns a half-extracted file.
 */
template <typename Write>
AnalyzedWorkload::Ptr
extractStreamSection(SnapshotMeta meta, uint64_t num_ops,
                     uint64_t blob_len, const std::string &stream_dir,
                     Write &&write)
{
    const std::string trace_path = rehydratedStreamPath(stream_dir, meta);
    try {
        std::ofstream out(trace_path,
                          std::ios::binary | std::ios::trunc);
        if (!out)
            throw std::runtime_error("cannot open " + trace_path +
                                     " for writing");
        write(out);
        if (!out)
            throw std::runtime_error("short write to " + trace_path);
    } catch (...) {
        std::remove(trace_path.c_str());
        throw;
    }
    stream_bytes_copied.fetch_add(blob_len, std::memory_order_relaxed);
    return assembleStreamed(std::move(meta), trace_path, num_ops);
}

} // namespace

std::vector<uint8_t>
packAnalyzedWorkload(const AnalyzedWorkload &aw, const std::string &name)
{
    const std::vector<uint8_t> meta = packMeta(aw, name);
    ByteWriter w;
    writeSnapshotHead(w, meta);

    if (aw.streamed()) {
        // Embed the (typically delta-compressed) trace stream file
        // verbatim: the op vector is never materialized, and the
        // embedded file keeps its own fingerprint for load-time
        // validation. saveAnalyzedWorkload never even builds this
        // blob in memory — it chunk-copies file to file.
        uint64_t blob_len = 0;
        std::ifstream src = openStreamFile(aw, blob_len);
        w.u8(traceStorageStream);
        w.u64(aw.numOps());
        w.u64(blob_len);
        copyChunked(src, blob_len, aw.streamPath(),
                    [&](const uint8_t *data, size_t n) {
                        w.raw(data, n);
                    });
        stream_bytes_copied.fetch_add(blob_len,
                                      std::memory_order_relaxed);
        return w.take();
    }

    // Timing trace: the CASSTF2 frames the artifact holds, verbatim
    // (instruction pointers relink from PCs on load; the taint
    // pre-pass is recomputed, so only the base stream is kept).
    const TraceFrames &held = aw.heldFrames();
    w.u8(traceStorageInline);
    w.u64(held.numOps);
    w.u32(held.frameOps);
    for (const std::vector<uint8_t> &frame : held.frames)
        w.raw(frame.data(), frame.size());
    inline_ops_written.fetch_add(held.numOps, std::memory_order_relaxed);
    return w.take();
}

AnalyzedWorkload::Ptr
unpackAnalyzedWorkload(const std::vector<uint8_t> &bytes,
                       const AnalysisCache::Resolver &resolver,
                       const std::string &stream_dir)
{
    ByteReader r(bytes);
    const SnapshotPrefix prefix = checkSnapshotPrefix(r);
    if (prefix.metaLen > r.remaining())
        throw std::invalid_argument(
            "truncated AnalyzedWorkload snapshot");
    const size_t before_meta = r.remaining();
    SnapshotMeta meta = parseMeta(r, resolver);
    // The declared length locates the trace section in the streaming
    // load path; parseMeta must agree byte for byte or the two load
    // paths would read different sections of the same file.
    if (before_meta - r.remaining() != prefix.metaLen)
        throw std::invalid_argument(
            "AnalyzedWorkload snapshot metadata length mismatch");

    const uint8_t storage = r.u8();
    if (storage == traceStorageInline) {
        const uint64_t num_ops = r.u64();
        TraceFrames frames =
            readHeldFrames(r, num_ops, meta.workload.program);
        if (!r.done())
            throw std::invalid_argument(
                "trailing bytes in AnalyzedWorkload snapshot");
        return AnalyzedWorkload::fromParts(std::move(meta.workload),
                                           std::move(frames),
                                           std::move(meta.image));
    }
    if (storage != traceStorageStream)
        throw std::invalid_argument(
            "AnalyzedWorkload snapshot has an unknown trace storage "
            "kind");

    const uint64_t num_ops = r.u64();
    const uint64_t blob_len = r.u64();
    if (blob_len != r.remaining())
        throw std::invalid_argument(
            "truncated AnalyzedWorkload snapshot");
    const uint8_t *blob = r.raw(static_cast<size_t>(blob_len));
    return extractStreamSection(
        std::move(meta), num_ops, blob_len, stream_dir,
        [&](std::ofstream &out) {
            out.write(reinterpret_cast<const char *>(blob),
                      static_cast<std::streamsize>(blob_len));
        });
}

void
saveAnalyzedWorkload(const AnalyzedWorkload &aw, const std::string &path,
                     const std::string &name)
{
    if (!aw.streamed()) {
        writeFileBytes(path, packAnalyzedWorkload(aw, name));
        return;
    }

    // Streamed artifact: metadata, then the trace stream file embedded
    // by chunked copy — neither the op vector nor the stream bytes are
    // ever whole in memory.
    const std::vector<uint8_t> meta = packMeta(aw, name);
    uint64_t blob_len = 0;
    std::ifstream src = openStreamFile(aw, blob_len);
    ByteWriter head;
    writeSnapshotHead(head, meta);
    head.u8(traceStorageStream);
    head.u64(aw.numOps());
    head.u64(blob_len);

    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file)
        throw std::runtime_error("cannot open " + path + " for writing");
    const std::vector<uint8_t> head_bytes = head.take();
    file.write(reinterpret_cast<const char *>(head_bytes.data()),
               static_cast<std::streamsize>(head_bytes.size()));
    copyChunked(src, blob_len, aw.streamPath(),
                [&](const uint8_t *data, size_t n) {
                    file.write(reinterpret_cast<const char *>(data),
                               static_cast<std::streamsize>(n));
                });
    if (!file)
        throw std::runtime_error("short write to " + path);
    stream_bytes_copied.fetch_add(blob_len, std::memory_order_relaxed);
}

AnalyzedWorkload::Ptr
loadAnalyzedWorkload(const std::string &path,
                     const AnalysisCache::Resolver &resolver,
                     const std::string &stream_dir)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        throw std::runtime_error("cannot open " + path);
    file.seekg(0, std::ios::end);
    const uint64_t file_len = static_cast<uint64_t>(file.tellg());
    file.seekg(0);

    std::vector<uint8_t> prefix(snapshotPrefixBytes);
    if (file_len < snapshotPrefixBytes ||
        !file.read(reinterpret_cast<char *>(prefix.data()),
                   snapshotPrefixBytes))
        throw std::invalid_argument(
            "truncated AnalyzedWorkload snapshot");
    ByteReader pr(prefix);
    const SnapshotPrefix snap = checkSnapshotPrefix(pr);
    const uint32_t meta_len = snap.metaLen;
    if (meta_len > file_len - snapshotPrefixBytes)
        throw std::invalid_argument(
            "truncated AnalyzedWorkload snapshot");

    std::vector<uint8_t> meta_bytes(meta_len);
    if (!file.read(reinterpret_cast<char *>(meta_bytes.data()),
                   static_cast<std::streamsize>(meta_len)))
        throw std::invalid_argument(
            "truncated AnalyzedWorkload snapshot");
    ByteReader mr(meta_bytes);
    SnapshotMeta meta = parseMeta(mr, resolver);
    if (!mr.done())
        throw std::invalid_argument(
            "trailing bytes in AnalyzedWorkload snapshot metadata");

    const uint8_t storage = fileU8(file);
    const uint64_t num_ops = fileU64(file);
    const uint64_t consumed = snapshotPrefixBytes + meta_len + 1 + 8;

    if (storage == traceStorageInline) {
        // Frame-coded inline ops: the section is a few bytes per op,
        // so slurping the remainder keeps this path simple (a
        // whole-mode artifact holds its trace in memory anyway).
        std::vector<uint8_t> section(
            static_cast<size_t>(file_len - consumed));
        if (!section.empty() &&
            !file.read(reinterpret_cast<char *>(section.data()),
                       static_cast<std::streamsize>(section.size())))
            throw std::invalid_argument(
                "truncated AnalyzedWorkload snapshot");
        ByteReader sr(section);
        TraceFrames frames =
            readHeldFrames(sr, num_ops, meta.workload.program);
        if (!sr.done())
            throw std::invalid_argument(
                "trailing bytes in AnalyzedWorkload snapshot");
        return AnalyzedWorkload::fromParts(std::move(meta.workload),
                                           std::move(frames),
                                           std::move(meta.image));
    }
    if (storage != traceStorageStream)
        throw std::invalid_argument(
            "AnalyzedWorkload snapshot has an unknown trace storage "
            "kind");

    const uint64_t blob_len = fileU64(file);
    if (blob_len != file_len - consumed - 8)
        throw std::invalid_argument(
            "truncated AnalyzedWorkload snapshot");
    return extractStreamSection(
        std::move(meta), num_ops, blob_len, stream_dir,
        [&](std::ofstream &out) {
            copyChunked(file, blob_len, path,
                        [&](const uint8_t *data, size_t n) {
                            out.write(
                                reinterpret_cast<const char *>(data),
                                static_cast<std::streamsize>(n));
                        });
        });
}

// ---------------------------------------------------------------------
// ExperimentResult counter blocks
// ---------------------------------------------------------------------

namespace {

/**
 * Every counter of an ExperimentResult, in a fixed order shared by
 * the pack and unpack sides. One list instead of two mirrored
 * functions: a field added here is automatically round-tripped.
 */
template <typename Fn>
void
eachResultCounter(ExperimentResult &r, Fn &&fn)
{
    uarch::CoreStats &s = r.stats;
    for (uint64_t *field :
         {&s.cycles, &s.instructions, &s.branches, &s.cryptoBranches,
          &s.condMispredicts, &s.indirectMispredicts,
          &s.returnMispredicts, &s.decodeRedirects, &s.integrityStalls,
          &s.resolveStalls, &s.btuFillStalls, &s.btuWindowStalls,
          &s.btuFlushes, &s.btuMismatches, &s.loads, &s.stores,
          &s.stlForwards, &s.schemeLoadDelays, &s.prospectBlocks,
          &s.icacheMissBubbles})
        fn(*field);
    btu::BtuStats &b = r.btu;
    for (uint64_t *field :
         {&b.lookups, &b.singleTargetHits, &b.hits, &b.misses,
          &b.evictions, &b.checkpointRestores, &b.stallResolve,
          &b.windowStalls, &b.prefetches, &b.flushes, &b.commits,
          &b.squashRewinds})
        fn(*field);
    uarch::BpuStats &p = r.bpu;
    for (uint64_t *field :
         {&p.condLookups, &p.condMispredicts, &p.loopOverrides,
          &p.btbLookups, &p.btbMisses, &p.indirectMispredicts,
          &p.rsbPushes, &p.rsbPops, &p.returnMispredicts, &p.updates})
        fn(*field);
    CacheActivity &c = r.caches;
    for (uint64_t *field :
         {&c.l1iAccesses, &c.l1iMisses, &c.l1dAccesses, &c.l1dMisses,
          &c.l2Accesses, &c.l2Misses, &c.l3Accesses, &c.l3Misses})
        fn(*field);
}

} // namespace

size_t
experimentResultCounterCount()
{
    size_t count = 0;
    ExperimentResult probe;
    eachResultCounter(probe, [&](uint64_t &) { count++; });
    return count;
}

void
packExperimentResult(ByteWriter &w, const ExperimentResult &result)
{
    ExperimentResult copy = result;
    eachResultCounter(copy, [&](uint64_t &field) { w.u64(field); });
}

ExperimentResult
unpackExperimentResult(ByteReader &r)
{
    ExperimentResult result;
    eachResultCounter(result, [&](uint64_t &field) { field = r.u64(); });
    return result;
}

SnapshotIoStats
snapshotIoStats()
{
    SnapshotIoStats stats;
    stats.inlineOpsWritten =
        inline_ops_written.load(std::memory_order_relaxed);
    stats.inlineOpsRead = inline_ops_read.load(std::memory_order_relaxed);
    stats.streamBytesCopied =
        stream_bytes_copied.load(std::memory_order_relaxed);
    return stats;
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
