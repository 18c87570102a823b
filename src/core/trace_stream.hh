/**
 * @file
 * Chunked on-disk timing traces: fixed-size frames + index.
 *
 * A trace stream file holds the dynamic instruction stream of one
 * workload run (pc, memAddr, nextPc per op — the inst pointer and
 * crypto flag relink from the PC on read), grouped into frames of a
 * fixed op count followed by a frame-offset index and a footer. The
 * container is CASSTF3:
 *
 *   "CASSTF3\n" | u32 version=3 | u32 frameOps | u64 fingerprint
 *   | u64 numOps | frames (u8 kind | u32 payloadBytes | payload) ...
 *   | index (u64 offset per frame) | u64 indexPos | u64 numFrames
 *
 * A sparse frame (kind 2) stores only what a sequential trace cannot
 * infer. A plain op — pc equal to the previous nextPc, memAddr 0,
 * nextPc equal to pc + instBytes — costs nothing; every other op
 * closes a record: one varint of (plain ops before it) << 3 | flags,
 * then one zig-zag varint per flag of pc - prev nextPc, memAddr - the
 * previous nonzero memAddr and nextPc - (pc + instBytes). A frame's
 * tail of plain ops ends in a record without flags. Straight-line code
 * is free and a typical crypto kernel takes under 1 B/op. Frames stay
 * independently decodable (random access needs no history across
 * frames), and a frame whose sparse encoding would not beat 24 B/op is
 * written raw (kind 0, 24 B/op), so adversarial streams never grow
 * past 24 B/op plus the 5-byte frame headers. Files of the retired
 * container revisions 1 (raw frames) and 2 (delta frames) are rejected
 * with ArtifactFormatError.
 *
 * Every frame is at least traceFrameMinBytes long and holds at most
 * traceFrameMaxOps ops; readers check both bounds before sizing any
 * buffer, so a small corrupt file cannot claim a huge one.
 *
 * TraceStreamWriter produces the file incrementally (one frame of
 * columns resident, never the whole trace) and fails fast on I/O errors so a
 * disk-full run cannot leave a silently-corrupt index behind;
 * TraceCursor replays it as a uarch::TimingOpSource
 * through an mmap-backed view (with sequential madvise and per-frame
 * drop of consumed pages) or a buffered one-frame reader, so peak
 * memory stays at one frame regardless of trace length. The program
 * fingerprint guards stale files exactly like AnalyzedWorkload
 * snapshots guard stale artifacts.
 *
 * The same frames can also live in memory without the file container.
 * One TraceFrames value says where a trace lives: held frames, one
 * exact-size buffer each (whole mode), or the file it names (stream
 * mode). TraceStreamWriter writes into either and TraceCursor reads
 * either, through the same checked decodeRelinkedFrame; no other code
 * branches on the location. AnalyzedWorkload snapshots
 * (core/serialize) carry the frames without the container in both
 * modes: a save reads them through TraceCursor::encodedFrame, and a
 * load hands each to TraceStreamWriter::appendFrame, whichever mode it
 * loads into.
 */

#ifndef CASSANDRA_CORE_TRACE_STREAM_HH
#define CASSANDRA_CORE_TRACE_STREAM_HH

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sim_config.hh"
#include "ir/program.hh"
#include "uarch/pipeline.hh"

namespace cassandra::core {

/**
 * Base of the evictable artifact-file errors: a cached file raising
 * one of these should be deleted and re-created, not silently
 * re-analyzed around.
 */
class ArtifactError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/**
 * A persisted artifact (trace stream or AnalyzedWorkload snapshot)
 * with an unrecognized or outdated container format: bad magic, a
 * format-version mismatch, or inconsistent/corrupt framing.
 */
class ArtifactFormatError : public ArtifactError
{
  public:
    using ArtifactError::ArtifactError;
};

/**
 * A persisted artifact whose fingerprint does not match the workload
 * it is being loaded against (the binary changed since analysis).
 */
class ArtifactStaleError : public ArtifactError
{
  public:
    using ArtifactError::ArtifactError;
};

/** Bytes per raw serialized op (pc, memAddr, nextPc). */
constexpr size_t traceStreamOpBytes = 24;

/** Default ops per frame (raw 24 B/op -> 768 KiB frames). */
constexpr uint32_t traceStreamDefaultFrameOps = 1u << 15;

/** Most ops a frame may hold (writers and readers enforce it). */
constexpr uint32_t traceFrameMaxOps = 1u << 20;

/** Fewest bytes an encoded frame takes: its 5-byte header and at least
 * one payload byte (a frame holds at least one op). */
constexpr size_t traceFrameMinBytes = 6;

/**
 * Encode one CASSTF3 frame from structure-of-arrays columns (num_ops
 * elements each): sparse when that is strictly smaller than 24 B/op,
 * the raw form otherwise. The complete frame (u8 kind |
 * u32 payloadBytes | payload) is written to the front of `buf`, which
 * only ever grows, so a caller reusing one buffer across frames
 * allocates once. Returns the frame's length in bytes.
 */
size_t encodeTraceFrame(const uint64_t *pc, const uint64_t *mem_addr,
                        const uint64_t *next_pc, size_t num_ops,
                        std::vector<uint8_t> &buf);

/**
 * Where a trace's CASSTF3 frames live: in memory, one buffer of its
 * exact size per frame (whole mode, `path` empty), or in the CASSTF3
 * file `path` names (stream mode, no frame held). TraceStreamWriter
 * writes into either and TraceCursor reads either; they are the only
 * code that branches on which.
 */
struct TraceFrames
{
    uint32_t frameOps = traceStreamDefaultFrameOps;
    uint64_t numOps = 0;
    std::vector<std::vector<uint8_t>> frames; ///< complete encoded frames
    std::string path;                         ///< the stream file, if any

    /** True when the frames live in the file `path`, not in memory. */
    bool streamed() const { return !path.empty(); }

    /** Encoded bytes held in memory (0 in stream mode). */
    uint64_t
    bytes() const
    {
        uint64_t sum = 0;
        for (const std::vector<uint8_t> &frame : frames)
            sum += frame.size();
        return sum;
    }
};

/**
 * Cuts an op stream into CASSTF3 frames of a fixed op count: the one
 * path from ops to encoded frames (TraceStreamWriter's). A batch span
 * that covers a whole frame while nothing is staged is encoded
 * straight from the caller's columns; other ops are staged column-wise
 * until their frame fills.
 */
class TraceFrameBuilder
{
  public:
    /** @throws std::invalid_argument when frame_ops is 0 or above
     *  traceFrameMaxOps. */
    explicit TraceFrameBuilder(uint32_t frame_ops);

    /** Add the pc/memAddr/nextPc columns of `batch`, calling
     * emit(frame, bytes) for every frame they complete. */
    template <class Emit>
    void
    add(const uarch::OpBatch &batch, Emit &&emit)
    {
        size_t i = 0;
        while (i < batch.size) {
            const size_t left = batch.size - i;
            if (staged_ == 0 && left >= frameOps_) {
                // Encode first: it may reallocate buf_, so buf_.data()
                // must only be read once it has returned.
                const size_t len =
                    encodeTraceFrame(batch.pc + i, batch.memAddr + i,
                                     batch.nextPc + i, frameOps_, buf_);
                emit(buf_.data(), len);
                i += frameOps_;
                continue;
            }
            const size_t n = std::min(left, frameOps_ - staged_);
            stage(batch.pc + i, batch.memAddr + i, batch.nextPc + i, n);
            i += n;
            if (staged_ == frameOps_)
                finish(emit);
        }
    }

    /** Emit the staged ops (a partial tail frame), if any. */
    template <class Emit>
    void
    finish(Emit &&emit)
    {
        if (staged_ == 0)
            return;
        const size_t n = staged_;
        staged_ = 0;
        const size_t len = encodeTraceFrame(pc_.data(), memAddr_.data(),
                                            nextPc_.data(), n, buf_);
        emit(buf_.data(), len);
    }

  private:
    void stage(const uint64_t *pc, const uint64_t *mem_addr,
               const uint64_t *next_pc, size_t n);

    size_t frameOps_;
    size_t staged_ = 0;
    std::vector<uint64_t> pc_, memAddr_, nextPc_; ///< the staged frame
    std::vector<uint8_t> buf_;                    ///< the encoded frame
};

/**
 * Decode one CASSTF3 frame into structure-of-arrays columns: parallel
 * pc/memAddr/nextPc arrays of num_ops elements each.
 * @param frame the full frame as written by encodeTraceFrame
 * @param frame_len bytes available at `frame`
 * @param num_ops expected op count of the frame
 * @throws ArtifactFormatError on truncated or inconsistent frames
 */
void decodeTraceFrameSoA(const uint8_t *frame, size_t frame_len,
                         size_t num_ops, uint64_t *pc, uint64_t *mem_addr,
                         uint64_t *next_pc);

/**
 * The checked frame decode every CASSTF3 reader shares (TraceCursor
 * and snapshot loads): decode one frame into `out` (resized
 * to num_ops) and relink each op against `program` — inst pointer and
 * crypto flag from its pc through `crypto_table`
 * (program.cryptoPcTable()).
 * @throws ArtifactFormatError on a corrupt frame, ArtifactStaleError
 *         when a pc lies outside the program (a stale trace)
 */
void decodeRelinkedFrame(const uint8_t *frame, size_t frame_len,
                         size_t num_ops, const ir::Program &program,
                         const std::vector<uint8_t> &crypto_table,
                         uarch::OpBatchStorage &out);

/**
 * Incremental writer of a trace's CASSTF3 frames, into memory or into
 * a chunked trace stream file (one TraceFrames target either way).
 */
class TraceStreamWriter
{
  public:
    /**
     * Write a trace stream file.
     * @param path output file (created/truncated)
     * @param program_fingerprint core::programFingerprint of the
     *        program the trace belongs to
     * @param frame_ops ops per frame (1..traceFrameMaxOps)
     */
    TraceStreamWriter(const std::string &path,
                      uint64_t program_fingerprint,
                      uint32_t frame_ops = traceStreamDefaultFrameOps);

    /**
     * Write into `target`, which must outlive the writer: each frame
     * into a held buffer of its exact size when target.path is empty,
     * else into the stream file it names, as above. Frames hold
     * target.frameOps ops, and target.numOps counts the ops written.
     * @throws std::logic_error when `target` already holds an op
     */
    TraceStreamWriter(TraceFrames &target, uint64_t program_fingerprint);

    TraceStreamWriter(const TraceStreamWriter &) = delete;
    TraceStreamWriter &operator=(const TraceStreamWriter &) = delete;

    /** Append a batch of ops (staged column-wise, flushed per frame):
     * the file's bytes do not depend on how the ops are split into
     * batches. */
    void appendBatch(const uarch::OpBatch &batch);

    /**
     * Append one frame that is already encoded, holding `ops` ops (a
     * snapshot load hands over the frames it checked). Legal only
     * after full frames: a partial frame can only be the last one.
     * @throws std::logic_error after finish() or a partial frame
     */
    void appendFrame(const uint8_t *frame, size_t bytes, uint32_t ops);

    /**
     * Flush the tail frame, make the data frames durable (flush +
     * fsync — the single durability seam), then write index + footer
     * and patch the header. Ordering contract: the index/footer are
     * never issued to the filesystem before every data frame they
     * describe is durable, so a crash at any point leaves a file
     * whose footer is either absent (fails loudly at open) or
     * describes fully-written frames — never footer-valid-but-
     * truncated data. Idempotent; throws on I/O errors. A writer
     * destroyed without finish() — a recording that threw — leaves
     * the file footerless, so it fails loudly at open. Into memory,
     * finish() only encodes the tail frame.
     */
    void finish();

    /**
     * Drop what was written (a recording or load that failed): the
     * held frames, or the file, which is removed. The target is left
     * holding no op, and later appends throw std::logic_error.
     */
    void discard();

    /**
     * Test-only fault-injection hook, called by finish() exactly at
     * the durability seam: after the data frames are flushed and
     * synced, before any index/footer byte is issued. Tests snapshot
     * or abandon the file here to model a crash mid-pass. Not
     * thread-safe; reset to nullptr after use.
     */
    static void (*finishSeamHook)(const std::string &path);

    uint64_t numOps() const { return target_->numOps; }

  private:
    /** Hold one encoded frame, or write it to the file and record its
     * offset in the index. */
    void writeFrame(const uint8_t *frame, size_t bytes);
    void checkStream(const char *what) const;

    /** Open target_'s stream file, if it names one, and write its
     * header. */
    void openFile(uint64_t program_fingerprint);

    TraceFrames fileTarget_; ///< the path constructor's target
    TraceFrames *target_;
    std::ofstream file_;
    TraceFrameBuilder builder_;
    std::vector<uint64_t> frameOffsets_;
    bool finished_ = false;
};

/** The bytes of one encoded CASSTF3 frame. */
struct EncodedFrame
{
    const uint8_t *data = nullptr;
    size_t size = 0;
};

/**
 * Replays CASSTF3 frames as a TimingOpSource, relinking each op
 * against `program` (which must outlive the cursor and match the
 * stored fingerprint). The frames live in memory or in a trace stream
 * file (TraceFrames); both decode through decodeRelinkedFrame.
 */
class TraceCursor final : public uarch::TimingOpSource
{
  public:
    enum class Backing
    {
        Auto,     ///< mmap where available, else buffered
        Mmap,     ///< throws std::runtime_error if mmap is unavailable
        Buffered, ///< one-frame read buffer
    };

    TraceCursor(const std::string &path, const ir::Program &program,
                Backing backing = Backing::Auto);
    /** Replay `trace` wherever it lives: its held frames (which must
     * outlive the cursor, and are never madvised or unmapped) or the
     * stream file it names. */
    TraceCursor(const TraceFrames &trace, const ir::Program &program);
    ~TraceCursor() override;

    TraceCursor(const TraceCursor &) = delete;
    TraceCursor &operator=(const TraceCursor &) = delete;

    /**
     * Frames decode straight into structure-of-arrays buffers
     * (decodeRelinkedFrame) and batches are served as zero-copy views
     * into the decoded frame, so a batch never crosses a frame
     * boundary. Relinking (inst pointer + crypto flag) uses a
     * per-static-instruction table instead of the per-op range scan.
     */
    size_t nextBatch(uarch::OpBatch &out, size_t max_ops) override;

    /** Decode + relink frame `frame` into `out` (resized to its op
     * count), whatever the batch position; with the mmap backing, the
     * pages of earlier frames are dropped. */
    void decodeFrame(uint64_t frame, uarch::OpBatchStorage &out);

    /** The encoded bytes of frame `frame` (what decodeFrame decodes),
     * valid until the next call: held, mapped (dropping the pages of
     * earlier frames), or read into a buffer. */
    EncodedFrame encodedFrame(uint64_t frame);

    uint64_t numOps() const { return numOps_; }
    uint64_t numFrames() const { return numFrames_; }
    /** Ops of every frame but a partial last one. */
    uint32_t opsPerFrame() const { return frameOps_; }

    /** Always 0: kept for existing callers (perfbench). */
    static uint64_t prefetchBatches() { return 0; }
    static uint64_t prefetchStalls() { return 0; }

  private:
    /** Check a stream file's header and index, and map it. */
    void openFile(const std::string &path, Backing backing);
    void dropConsumedFrames(uint64_t upto);
    uint64_t frameOps(uint64_t frame) const;
    uint64_t frameEnd(uint64_t frame) const;

    const ir::Program &program_;
    const TraceFrames *held_ = nullptr; ///< in-memory frames, if any
    std::ifstream file_;
    uint64_t numOps_ = 0;
    uint32_t frameOps_ = 0;
    uint64_t numFrames_ = 0;
    uint64_t indexPos_ = 0;
    std::vector<uint64_t> frameOffsets_;

    // mmap backing
    const uint8_t *map_ = nullptr;
    size_t mapLen_ = 0;
    uint64_t droppedFrames_ = 0; ///< frames already madvise()d away

    std::vector<uint8_t> scratch_; ///< encoded frame (buffered read)

    // one frame decoded SoA + relinked, served as views
    uarch::OpBatchStorage soa_;
    uint64_t soaFrame_ = ~0ull;
    std::vector<uint8_t> cryptoByIndex_; ///< program_.cryptoPcTable()

    uint64_t pos_ = 0;
};

/**
 * Create `dir` and any missing parents (mkdir -p). Throws
 * std::runtime_error when a component cannot be created.
 */
void ensureDirectories(const std::string &dir);

/**
 * A string unique to this process on every platform: the pid where
 * available, a cached random token otherwise. Used wherever two
 * concurrent processes must never resolve to the same file
 * (defaultTraceStreamDir, rehydrated snapshot streams).
 */
std::string processUniqueSuffix();

/**
 * Directory for trace stream files when the caller names none:
 * $TMPDIR (or /tmp) / cassandra-traces-<processUniqueSuffix()>, so
 * concurrent runs never share — and never clobber — each other's
 * trace files.
 */
std::string defaultTraceStreamDir();

/**
 * Delete `path` recursively (rm -rf, symlinks not followed). Missing
 * paths and removal races are ignored; no-op on platforms without
 * POSIX directory I/O.
 */
void removeDirectoryTree(const std::string &path);

/**
 * Stream file path for a workload: the sanitized name ('/' and other
 * non-file characters become '_') plus the program fingerprint in hex.
 * The fingerprint keeps distinct workloads whose names sanitize to the
 * same string (e.g. "synthetic/aes/25" vs "synthetic_aes_25") from
 * silently clobbering each other's trace files.
 */
std::string traceStreamPath(const std::string &dir,
                            const std::string &workload_name,
                            uint64_t program_fingerprint);

} // namespace cassandra::core

#endif // CASSANDRA_CORE_TRACE_STREAM_HH
