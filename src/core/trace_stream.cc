#include "core/trace_stream.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>

#include "core/serialize.hh"

#if defined(__unix__) || defined(__APPLE__)
#define CASSANDRA_HAVE_MMAP 1
#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace cassandra::core {

namespace {

constexpr char streamMagic[8] = {'C', 'A', 'S', 'S', 'T', 'F', '3', '\n'};
constexpr uint32_t streamVersion = 3;
// magic(8) + version(4) + frameOps(4) + fingerprint(8) + numOps(8)
constexpr size_t headerBytes = 32;
constexpr size_t numOpsOffset = 24;
constexpr size_t footerBytes = 16; // indexPos(8) + numFrames(8)

// CASSTF3 frame header: u8 kind + u32 payloadBytes. Kind 1 was
// CASSTF2's delta frame and is no longer read.
constexpr size_t frameHeaderBytes = 5;
constexpr uint8_t frameKindRaw = 0;
constexpr uint8_t frameKindSparse = 2;

// Sparse record flags: which of an op's fields are not inferred.
constexpr unsigned sparsePc = 1;      ///< pc != prev nextPc
constexpr unsigned sparseMem = 2;     ///< memAddr != 0
constexpr unsigned sparseNextPc = 4;  ///< nextPc != pc + instBytes
constexpr unsigned sparseFlagBits = 3;

void
putU32(uint8_t *dst, uint32_t v)
{
    for (int i = 0; i < 4; i++)
        dst[i] = static_cast<uint8_t>(v >> (8 * i));
}

void
putU64(uint8_t *dst, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        dst[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t
getU32(const uint8_t *src)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; i++)
        v |= static_cast<uint32_t>(src[i]) << (8 * i);
    return v;
}

uint64_t
getU64(const uint8_t *src)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; i++)
        v |= static_cast<uint64_t>(src[i]) << (8 * i);
    return v;
}

/** Longest LEB128 varint of a u64. */
constexpr size_t maxVarintBytes = 10;

uint8_t *
putVarint(uint8_t *dst, uint64_t v)
{
    while (v >= 0x80) {
        *dst++ = static_cast<uint8_t>(v) | 0x80;
        v >>= 7;
    }
    *dst++ = static_cast<uint8_t>(v);
    return dst;
}

uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
        static_cast<uint64_t>(v >> 63);
}

int64_t
unzigzag(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

} // namespace

// ---------------------------------------------------------------------
// CASSTF3 frame codec
// ---------------------------------------------------------------------

size_t
encodeTraceFrame(const uint64_t *pc, const uint64_t *mem_addr,
                 const uint64_t *next_pc, size_t num_ops,
                 std::vector<uint8_t> &buf)
{
    const size_t raw_bytes = num_ops * traceStreamOpBytes;
    if (raw_bytes > 0xffffffffull)
        throw std::invalid_argument(
            "encodeTraceFrame: frame body exceeds the u32 "
            "payload-length field");
    // The sparse attempt stops once it reaches the raw size, so it never
    // writes more than one record's worst case (four varints) past it.
    const size_t bound =
        frameHeaderBytes + raw_bytes + 4 * maxVarintBytes;
    if (buf.size() < bound)
        buf.resize(bound);
    uint8_t *const body = buf.data() + frameHeaderBytes;
    uint8_t *const raw_end = body + raw_bytes;

    // Sparse attempt: a plain op (pc chains off the previous nextPc, no
    // memAddr, falls through) costs nothing; every other op closes a
    // record of the plain ops before it plus the fields it cannot
    // infer.
    uint8_t *p = body;
    uint64_t prev_next = 0, prev_mem = 0, plain = 0;
    for (size_t i = 0; i < num_ops && p < raw_end; i++) {
        const uint64_t pc_delta = pc[i] - prev_next;
        const uint64_t mem = mem_addr[i];
        const uint64_t next_delta = next_pc[i] - (pc[i] + ir::instBytes);
        prev_next = next_pc[i];
        if ((pc_delta | mem | next_delta) == 0) {
            plain++;
            continue;
        }
        const unsigned flags = (pc_delta ? sparsePc : 0) |
            (mem ? sparseMem : 0) | (next_delta ? sparseNextPc : 0);
        p = putVarint(p, plain << sparseFlagBits | flags);
        plain = 0;
        if (pc_delta)
            p = putVarint(p, zigzag(static_cast<int64_t>(pc_delta)));
        if (mem) {
            p = putVarint(p, zigzag(static_cast<int64_t>(mem - prev_mem)));
            prev_mem = mem;
        }
        if (next_delta)
            p = putVarint(p, zigzag(static_cast<int64_t>(next_delta)));
    }
    // The frame's tail of plain ops: a record without flags.
    if (plain > 0 && p < raw_end)
        p = putVarint(p, plain << sparseFlagBits);

    // Raw fallback: a frame whose sparse form is not strictly smaller
    // is stored verbatim, bounding worst-case file growth at the
    // 5-byte frame headers.
    const bool use_sparse = p < raw_end;
    if (!use_sparse) {
        p = body;
        for (size_t i = 0; i < num_ops; i++, p += traceStreamOpBytes) {
            putU64(p + 0, pc[i]);
            putU64(p + 8, mem_addr[i]);
            putU64(p + 16, next_pc[i]);
        }
    }
    buf[0] = use_sparse ? frameKindSparse : frameKindRaw;
    putU32(buf.data() + 1, static_cast<uint32_t>(p - body));
    return static_cast<size_t>(p - buf.data());
}

TraceFrameBuilder::TraceFrameBuilder(uint32_t frame_ops)
    : frameOps_(frame_ops)
{
    if (frame_ops == 0 || frame_ops > traceFrameMaxOps)
        throw std::invalid_argument(
            "TraceFrameBuilder: frame_ops " + std::to_string(frame_ops) +
            " outside 1.." + std::to_string(traceFrameMaxOps));
}

void
TraceFrameBuilder::stage(const uint64_t *pc, const uint64_t *mem_addr,
                         const uint64_t *next_pc, size_t n)
{
    if (pc_.empty()) {
        pc_.resize(frameOps_);
        memAddr_.resize(frameOps_);
        nextPc_.resize(frameOps_);
    }
    std::copy(pc, pc + n, pc_.begin() + staged_);
    std::copy(mem_addr, mem_addr + n, memAddr_.begin() + staged_);
    std::copy(next_pc, next_pc + n, nextPc_.begin() + staged_);
    staged_ += n;
}

void
decodeTraceFrameSoA(const uint8_t *frame, size_t frame_len,
                    size_t num_ops, uint64_t *pc, uint64_t *mem_addr,
                    uint64_t *next_pc)
{
    if (frame_len < frameHeaderBytes)
        throw ArtifactFormatError("trace stream frame is truncated");
    const uint8_t kind = frame[0];
    const size_t payload_len = getU32(frame + 1);
    if (payload_len > frame_len - frameHeaderBytes)
        throw ArtifactFormatError("trace stream frame is truncated");
    const uint8_t *p = frame + frameHeaderBytes;

    if (kind == frameKindRaw) {
        if (payload_len != num_ops * traceStreamOpBytes)
            throw ArtifactFormatError(
                "trace stream raw frame has a wrong op count");
        for (size_t i = 0; i < num_ops; i++) {
            const uint8_t *src = p + i * traceStreamOpBytes;
            pc[i] = getU64(src + 0);
            mem_addr[i] = getU64(src + 8);
            next_pc[i] = getU64(src + 16);
        }
        return;
    }
    if (kind != frameKindSparse)
        throw ArtifactFormatError(
            "trace stream frame has an unknown encoding kind");

    size_t pos = 0;
    auto varint = [&]() -> uint64_t {
        uint64_t v = 0;
        for (int shift = 0; shift < 70; shift += 7) {
            if (pos >= payload_len)
                throw ArtifactFormatError(
                    "trace stream sparse frame is truncated");
            const uint8_t byte = p[pos++];
            v |= static_cast<uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return v;
        }
        throw ArtifactFormatError(
            "trace stream sparse frame has an overlong varint");
    };

    uint64_t prev_next = 0, prev_mem = 0;
    size_t i = 0;
    while (i < num_ops) {
        const uint64_t head = varint();
        const uint64_t plain = head >> sparseFlagBits;
        const unsigned flags = static_cast<unsigned>(head) &
            ((1u << sparseFlagBits) - 1);
        // The plain ops, plus the record's own op when it has flags,
        // must fit in what is left of the frame.
        if (plain > num_ops - i || (flags && plain == num_ops - i))
            throw ArtifactFormatError(
                "trace stream sparse record runs past the frame end");
        const uint64_t base = prev_next;
        for (size_t k = 0; k < plain; k++) {
            pc[i + k] = base + k * ir::instBytes;
            mem_addr[i + k] = 0;
            next_pc[i + k] = base + (k + 1) * ir::instBytes;
        }
        i += static_cast<size_t>(plain);
        prev_next = base + plain * ir::instBytes;
        if (!flags)
            continue;
        uint64_t cur_pc = prev_next, mem = 0;
        if (flags & sparsePc)
            cur_pc += static_cast<uint64_t>(unzigzag(varint()));
        if (flags & sparseMem) {
            mem = prev_mem + static_cast<uint64_t>(unzigzag(varint()));
            prev_mem = mem;
        }
        uint64_t next = cur_pc + ir::instBytes;
        if (flags & sparseNextPc)
            next += static_cast<uint64_t>(unzigzag(varint()));
        pc[i] = cur_pc;
        mem_addr[i] = mem;
        next_pc[i] = next;
        prev_next = next;
        i++;
    }
    if (pos != payload_len)
        throw ArtifactFormatError(
            "trailing bytes in trace stream sparse frame");
}

void
decodeRelinkedFrame(const uint8_t *frame, size_t frame_len,
                    size_t num_ops, const ir::Program &program,
                    const std::vector<uint8_t> &crypto_table,
                    uarch::OpBatchStorage &out)
{
    out.resize(num_ops);
    decodeTraceFrameSoA(frame, frame_len, num_ops, out.pc.data(),
                        out.memAddr.data(), out.nextPc.data());
    // The off-based check accepts exactly the pcs program.validPc
    // accepts: an out-of-range or misaligned pc means a stale trace.
    const ir::Inst *insts = program.insts.data();
    const uint64_t limit = crypto_table.size() * ir::instBytes;
    for (size_t i = 0; i < num_ops; i++) {
        const uint64_t off = out.pc[i] - ir::Program::codeBase;
        if (off >= limit || off % ir::instBytes != 0)
            throw ArtifactStaleError(
                "trace stream op pc outside program (stale trace)");
        const size_t idx = static_cast<size_t>(off / ir::instBytes);
        out.inst[i] = insts + idx;
        out.crypto[i] = crypto_table[idx];
    }
}

// ---------------------------------------------------------------------
// TraceStreamWriter
// ---------------------------------------------------------------------

TraceStreamWriter::TraceStreamWriter(const std::string &path,
                                     uint64_t program_fingerprint,
                                     uint32_t frame_ops)
    : fileTarget_{frame_ops, 0, {}, path}, target_(&fileTarget_),
      builder_(frame_ops)
{
    openFile(program_fingerprint);
}

TraceStreamWriter::TraceStreamWriter(TraceFrames &target,
                                     uint64_t program_fingerprint)
    : target_(&target), builder_(target.frameOps)
{
    if (target.numOps != 0 || !target.frames.empty())
        throw std::logic_error(
            "TraceStreamWriter: the target already holds a trace");
    openFile(program_fingerprint);
}

void
TraceStreamWriter::openFile(uint64_t program_fingerprint)
{
    if (!target_->streamed())
        return;
    const std::string &path = target_->path;
    file_.open(path, std::ios::binary | std::ios::trunc);
    if (!file_)
        throw std::runtime_error("cannot open " + path + " for writing");
    uint8_t header[headerBytes];
    std::memcpy(header, streamMagic, sizeof streamMagic);
    putU32(header + 8, streamVersion);
    putU32(header + 12, target_->frameOps);
    putU64(header + 16, program_fingerprint);
    putU64(header + numOpsOffset, 0); // patched by finish()
    file_.write(reinterpret_cast<const char *>(header), headerBytes);
    checkStream("header write");
}

void
TraceStreamWriter::checkStream(const char *what) const
{
    if (!file_)
        throw std::runtime_error(std::string("trace stream ") + what +
                                 " failed for " + target_->path +
                                 " (disk full?)");
}

void
TraceStreamWriter::appendBatch(const uarch::OpBatch &batch)
{
    if (finished_)
        throw std::logic_error("TraceStreamWriter: append after finish");
    builder_.add(batch, [this](const uint8_t *frame, size_t bytes) {
        writeFrame(frame, bytes);
    });
    target_->numOps += batch.size;
}

void
TraceStreamWriter::appendFrame(const uint8_t *frame, size_t bytes,
                               uint32_t ops)
{
    // Every op so far sits in a full frame exactly when the count is a
    // multiple of the frame size (appendBatch stages the rest).
    if (finished_ || target_->numOps % target_->frameOps != 0 ||
        ops > target_->frameOps)
        throw std::logic_error(
            "TraceStreamWriter: appendFrame after finish or a partial "
            "frame");
    writeFrame(frame, bytes);
    target_->numOps += ops;
}

void
TraceStreamWriter::writeFrame(const uint8_t *frame, size_t bytes)
{
    if (!target_->streamed()) {
        // Each held frame gets a buffer of its exact size, never
        // copied again.
        target_->frames.emplace_back(frame, frame + bytes);
        return;
    }
    // A poisoned stream would report tellp() == -1 and corrupt every
    // later index entry: fail fast instead of finishing garbage.
    checkStream("write");
    const std::streampos pos = file_.tellp();
    if (pos == std::streampos(-1))
        throw std::runtime_error("cannot position in " + target_->path);
    frameOffsets_.push_back(static_cast<uint64_t>(pos));
    file_.write(reinterpret_cast<const char *>(frame),
                static_cast<std::streamsize>(bytes));
    checkStream("frame write");
}

void (*TraceStreamWriter::finishSeamHook)(const std::string &path) =
    nullptr;

void
TraceStreamWriter::finish()
{
    if (finished_)
        return;
    builder_.finish([this](const uint8_t *frame, size_t bytes) {
        writeFrame(frame, bytes);
    });
    if (!target_->streamed()) {
        finished_ = true;
        return;
    }
    const std::string &path = target_->path;
    // The durability seam: every data frame must be durable before a
    // single index/footer byte is issued, or a crash could leave a
    // footer that validates against truncated data. One flush drains
    // the stream buffer in write order; the fsync orders it against
    // kernel writeback.
    file_.flush();
    checkStream("data flush");
#if defined(__unix__) || defined(__APPLE__)
    {
        const int fd = ::open(path.c_str(), O_WRONLY);
        if (fd < 0 || ::fsync(fd) != 0) {
            if (fd >= 0)
                ::close(fd);
            throw std::runtime_error("cannot sync " + path);
        }
        ::close(fd);
    }
#endif
    if (finishSeamHook)
        finishSeamHook(path);
    const std::streampos raw_pos = file_.tellp();
    if (raw_pos == std::streampos(-1))
        throw std::runtime_error("cannot position in " + path);
    const uint64_t index_pos = static_cast<uint64_t>(raw_pos);
    std::vector<uint8_t> tail(frameOffsets_.size() * 8 + footerBytes);
    for (size_t i = 0; i < frameOffsets_.size(); i++)
        putU64(tail.data() + i * 8, frameOffsets_[i]);
    putU64(tail.data() + frameOffsets_.size() * 8, index_pos);
    putU64(tail.data() + frameOffsets_.size() * 8 + 8,
           frameOffsets_.size());
    file_.write(reinterpret_cast<const char *>(tail.data()),
                static_cast<std::streamsize>(tail.size()));
    uint8_t ops[8];
    putU64(ops, target_->numOps);
    file_.seekp(numOpsOffset);
    file_.write(reinterpret_cast<const char *>(ops), 8);
    file_.flush();
    if (!file_)
        throw std::runtime_error("short write to " + path);
    file_.close();
    finished_ = true;
}

void
TraceStreamWriter::discard()
{
    finished_ = true;
    target_->frames.clear();
    target_->frames.shrink_to_fit();
    target_->numOps = 0;
    if (target_->streamed()) {
        file_.close();
        std::remove(target_->path.c_str());
    }
}

// ---------------------------------------------------------------------
// TraceCursor
// ---------------------------------------------------------------------

TraceCursor::TraceCursor(const std::string &path,
                         const ir::Program &program, Backing backing)
    : program_(program), cryptoByIndex_(program.cryptoPcTable())
{
    openFile(path, backing);
}

TraceCursor::TraceCursor(const TraceFrames &trace,
                         const ir::Program &program)
    : program_(program), cryptoByIndex_(program.cryptoPcTable())
{
    if (trace.streamed()) {
        openFile(trace.path, Backing::Auto);
        return;
    }
    held_ = &trace;
    numOps_ = trace.numOps;
    frameOps_ = trace.frameOps;
    numFrames_ = trace.frames.size();
}

void
TraceCursor::openFile(const std::string &path, Backing backing)
{
    file_.open(path, std::ios::binary);
    if (!file_)
        throw std::runtime_error("cannot open trace stream " + path);
    file_.seekg(0, std::ios::end);
    const uint64_t file_len = static_cast<uint64_t>(file_.tellg());
    file_.seekg(0);
    if (file_len < headerBytes + footerBytes)
        throw ArtifactFormatError("trace stream " + path +
                                  " is truncated");

    uint8_t header[headerBytes];
    file_.read(reinterpret_cast<char *>(header), headerBytes);
    if (std::memcmp(header, streamMagic, 6) != 0)
        throw ArtifactFormatError(path + " is not a trace stream file");
    const uint32_t version_field = getU32(header + 8);
    if (std::memcmp(header, streamMagic, 8) != 0 ||
        version_field != streamVersion) {
        // Another container revision (the retired raw-frame version 1
        // and delta-frame version 2 among them), or a magic/version-
        // field mismatch.
        throw ArtifactFormatError(
            "trace stream " + path + " has format version " +
            std::to_string(version_field) +
            ", expected a CASSTF3 header with version 3");
    }
    frameOps_ = getU32(header + 12);
    const uint64_t fingerprint = getU64(header + 16);
    numOps_ = getU64(header + numOpsOffset);
    // Bound the frame size before sizing any buffer from it: a corrupt
    // frameOps must not make one frame's decode buffer huge.
    if (frameOps_ == 0 || frameOps_ > traceFrameMaxOps)
        throw ArtifactFormatError(
            "trace stream " + path + " has frame size " +
            std::to_string(frameOps_) + " outside 1.." +
            std::to_string(traceFrameMaxOps));
    // The fingerprint of the caller's program must match the one the
    // trace was recorded against.
    if (fingerprint != programFingerprint(program_))
        throw ArtifactStaleError(
            "trace stream " + path +
            ": program fingerprint mismatch (stale trace)");

    // Footer + index. Every bound is checked by subtraction against
    // file_len before any multiplication or allocation, so a corrupt
    // footer cannot pass the consistency check via uint64 wrap-around
    // and then trigger a numFrames_-sized allocation: each frame takes
    // an 8-byte index entry and at least traceFrameMinBytes of data.
    uint8_t footer[footerBytes];
    file_.seekg(static_cast<std::streamoff>(file_len - footerBytes));
    file_.read(reinterpret_cast<char *>(footer), footerBytes);
    const uint64_t index_pos = getU64(footer);
    numFrames_ = getU64(footer + 8);
    const uint64_t expect_frames =
        (numOps_ + frameOps_ - 1) / frameOps_;
    const uint64_t payload_bytes = file_len - headerBytes - footerBytes;
    if (numFrames_ != expect_frames ||
        numFrames_ > payload_bytes / (8 + traceFrameMinBytes) ||
        index_pos != file_len - footerBytes - numFrames_ * 8 ||
        index_pos < headerBytes)
        throw ArtifactFormatError("trace stream " + path +
                                  " has an inconsistent index");
    indexPos_ = index_pos;
    frameOffsets_.resize(numFrames_);
    file_.seekg(static_cast<std::streamoff>(index_pos));
    std::vector<uint8_t> raw(numFrames_ * 8);
    file_.read(reinterpret_cast<char *>(raw.data()),
               static_cast<std::streamsize>(raw.size()));
    if (!file_)
        throw ArtifactFormatError("trace stream " + path +
                                  " has a truncated index");
    for (uint64_t f = 0; f < numFrames_; f++) {
        frameOffsets_[f] = getU64(raw.data() + f * 8);
        // Frames vary in size: offsets must start at the header,
        // increase by at least the smallest frame, and leave room for
        // one before the index.
        const bool ok =
            (f == 0 ? frameOffsets_[f] == headerBytes
                    : frameOffsets_[f] >=
                         frameOffsets_[f - 1] + traceFrameMinBytes) &&
            frameOffsets_[f] + traceFrameMinBytes <= indexPos_;
        if (!ok)
            throw ArtifactFormatError("trace stream " + path +
                                      " has an inconsistent index");
    }

#ifdef CASSANDRA_HAVE_MMAP
    if (backing != Backing::Buffered) {
        int fd = ::open(path.c_str(), O_RDONLY);
        if (fd >= 0) {
            void *m = ::mmap(nullptr, static_cast<size_t>(file_len),
                             PROT_READ, MAP_PRIVATE, fd, 0);
            ::close(fd); // the mapping keeps its own reference
            if (m != MAP_FAILED) {
                map_ = static_cast<const uint8_t *>(m);
                mapLen_ = static_cast<size_t>(file_len);
#ifdef MADV_SEQUENTIAL
                ::madvise(const_cast<uint8_t *>(map_), mapLen_,
                          MADV_SEQUENTIAL);
#endif
            }
        }
    }
#endif
    if (!map_ && backing == Backing::Mmap)
        throw std::runtime_error("mmap unavailable for " + path);
}

TraceCursor::~TraceCursor()
{
#ifdef CASSANDRA_HAVE_MMAP
    if (map_)
        ::munmap(const_cast<uint8_t *>(map_), mapLen_);
#endif
}

uint64_t
TraceCursor::frameOps(uint64_t frame) const
{
    const uint64_t first = frame * frameOps_;
    return std::min<uint64_t>(frameOps_, numOps_ - first);
}

uint64_t
TraceCursor::frameEnd(uint64_t frame) const
{
    return frame + 1 < numFrames_ ? frameOffsets_[frame + 1] : indexPos_;
}

void
TraceCursor::dropConsumedFrames(uint64_t upto)
{
#ifdef CASSANDRA_HAVE_MMAP
    // Drop consumed frames so resident memory stays at ~one frame even
    // for multi-GB traces (clean file-backed pages refault on demand if
    // re-read).
    while (droppedFrames_ < upto) {
        const size_t page = 4096;
        size_t lo = static_cast<size_t>(frameOffsets_[droppedFrames_] &
                                        ~(page - 1));
        size_t hi = static_cast<size_t>(frameEnd(droppedFrames_));
        hi &= ~(page - 1); // keep the page the next frame starts in
        if (hi > lo)
            ::madvise(const_cast<uint8_t *>(map_) + lo, hi - lo,
                      MADV_DONTNEED);
        droppedFrames_++;
    }
#else
    (void)upto;
#endif
}

EncodedFrame
TraceCursor::encodedFrame(uint64_t frame)
{
    if (held_)
        return {held_->frames[frame].data(), held_->frames[frame].size()};
    const uint64_t start = frameOffsets_[frame];
    const size_t len = static_cast<size_t>(frameEnd(frame) - start);
    if (map_) {
        dropConsumedFrames(frame);
        return {map_ + start, len};
    }
    scratch_.resize(len);
    file_.seekg(static_cast<std::streamoff>(start));
    file_.read(reinterpret_cast<char *>(scratch_.data()),
               static_cast<std::streamsize>(len));
    if (!file_)
        throw ArtifactFormatError("trace stream read failed (frame " +
                                  std::to_string(frame) + ")");
    return {scratch_.data(), len};
}

void
TraceCursor::decodeFrame(uint64_t frame, uarch::OpBatchStorage &out)
{
    const EncodedFrame enc = encodedFrame(frame);
    decodeRelinkedFrame(enc.data, enc.size,
                        static_cast<size_t>(frameOps(frame)), program_,
                        cryptoByIndex_, out);
}

size_t
TraceCursor::nextBatch(uarch::OpBatch &out, size_t max_ops)
{
    if (pos_ >= numOps_ || max_ops == 0)
        return 0;
    const uint64_t frame = pos_ / frameOps_;
    if (soaFrame_ != frame) {
        decodeFrame(frame, soa_);
        soaFrame_ = frame;
    }
    const size_t within = static_cast<size_t>(pos_ % frameOps_);
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(max_ops, frameOps(frame) - within));
    pos_ += n;
    out = soa_.view(within, n);
    return n;
}

// ---------------------------------------------------------------------
// Paths
// ---------------------------------------------------------------------

void
ensureDirectories(const std::string &dir)
{
    if (dir.empty())
        return;
    std::string partial;
    size_t pos = 0;
    while (pos <= dir.size()) {
        size_t slash = dir.find('/', pos);
        if (slash == std::string::npos)
            slash = dir.size();
        partial = dir.substr(0, slash);
        pos = slash + 1;
        if (partial.empty() || partial == ".")
            continue;
#ifdef CASSANDRA_HAVE_MMAP
        if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
            throw std::runtime_error("cannot create directory " +
                                     partial);
#else
        // No POSIX mkdir: require the directory to exist already.
        std::ofstream probe(partial + "/.cassandra-probe");
        if (!probe)
            throw std::runtime_error("directory " + partial +
                                     " does not exist");
        probe.close();
        std::remove((partial + "/.cassandra-probe").c_str());
#endif
    }
}

std::string
processUniqueSuffix()
{
#ifdef CASSANDRA_HAVE_MMAP
    return std::to_string(::getpid());
#else
    static const std::string token = [] {
        std::random_device rd;
        const uint64_t t =
            (static_cast<uint64_t>(rd()) << 32) ^ rd();
        char buf[24];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, t);
        return std::string(buf);
    }();
    return token;
#endif
}

std::string
defaultTraceStreamDir()
{
    const char *tmp = std::getenv("TMPDIR");
    std::string base = tmp && *tmp ? tmp : "/tmp";
    if (!base.empty() && base.back() == '/')
        base.pop_back();
    return base + "/cassandra-traces-" + processUniqueSuffix();
}

void
removeDirectoryTree(const std::string &path)
{
#ifdef CASSANDRA_HAVE_MMAP
    if (DIR *dir = opendir(path.c_str())) {
        std::vector<std::string> entries;
        while (struct dirent *entry = readdir(dir)) {
            const std::string name = entry->d_name;
            if (name != "." && name != "..")
                entries.push_back(name);
        }
        closedir(dir);
        for (const std::string &name : entries) {
            const std::string full = path + "/" + name;
            struct stat st;
            // lstat: a symlink into the scratch dir must not make the
            // sweep follow it out of the tree.
            if (::lstat(full.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
                removeDirectoryTree(full);
            else
                std::remove(full.c_str());
        }
    }
    ::rmdir(path.c_str());
#else
    (void)path;
#endif
}

std::string
traceStreamPath(const std::string &dir, const std::string &workload_name,
                uint64_t program_fingerprint)
{
    std::string file = workload_name;
    for (char &c : file) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_';
        if (!ok)
            c = '_';
    }
    // Sanitization is lossy ("synthetic/aes/25" and "synthetic_aes_25"
    // collapse to one string): the program fingerprint keeps distinct
    // workloads on distinct files.
    char fp[24];
    std::snprintf(fp, sizeof fp, "-%016" PRIx64, program_fingerprint);
    return dir + "/" + file + fp + ".trace";
}

} // namespace cassandra::core
