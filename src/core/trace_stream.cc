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

constexpr char streamMagic[8] = {'C', 'A', 'S', 'S', 'T', 'F', '2', '\n'};
constexpr uint32_t streamVersion = 2;
// magic(8) + version(4) + frameOps(4) + fingerprint(8) + numOps(8)
constexpr size_t headerBytes = 32;
constexpr size_t numOpsOffset = 24;
constexpr size_t footerBytes = 16; // indexPos(8) + numFrames(8)

// CASSTF2 frame header: u8 kind + u32 payloadBytes.
constexpr size_t frameHeaderBytes = 5;
constexpr uint8_t frameKindRaw = 0;
constexpr uint8_t frameKindDelta = 1;

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
// CASSTF2 frame codec
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
    // The delta attempt stops once it reaches the raw size, so it never
    // writes more than one op's worst case (three varints) past it.
    const size_t bound =
        frameHeaderBytes + raw_bytes + 3 * maxVarintBytes;
    if (buf.size() < bound)
        buf.resize(bound);
    uint8_t *const body = buf.data() + frameHeaderBytes;
    uint8_t *const raw_end = body + raw_bytes;

    // Delta attempt: pc chains off the previous op's nextPc, memAddr
    // off the previous memAddr, nextPc off the fall-through pc. All
    // three are zero-delta for straight-line code.
    uint8_t *p = body;
    uint64_t prev_mem = 0, prev_next = 0;
    for (size_t i = 0; i < num_ops && p < raw_end; i++) {
        if (i == 0) {
            p = putVarint(p, pc[i]);
            p = putVarint(p, mem_addr[i]);
        } else {
            p = putVarint(p, zigzag(static_cast<int64_t>(pc[i] -
                                                         prev_next)));
            p = putVarint(p, zigzag(static_cast<int64_t>(mem_addr[i] -
                                                         prev_mem)));
        }
        p = putVarint(p, zigzag(static_cast<int64_t>(
                             next_pc[i] - (pc[i] + ir::instBytes))));
        prev_mem = mem_addr[i];
        prev_next = next_pc[i];
    }

    // Raw fallback: a frame whose delta form is not strictly smaller
    // is stored verbatim, bounding worst-case file growth at the
    // 5-byte frame headers.
    const bool use_delta = p < raw_end;
    if (!use_delta) {
        p = body;
        for (size_t i = 0; i < num_ops; i++, p += traceStreamOpBytes) {
            putU64(p + 0, pc[i]);
            putU64(p + 8, mem_addr[i]);
            putU64(p + 16, next_pc[i]);
        }
    }
    buf[0] = use_delta ? frameKindDelta : frameKindRaw;
    putU32(buf.data() + 1, static_cast<uint32_t>(p - body));
    return static_cast<size_t>(p - buf.data());
}

TraceFrameBuilder::TraceFrameBuilder(uint32_t frame_ops)
    : frameOps_(frame_ops)
{
    if (frame_ops == 0)
        throw std::invalid_argument("TraceFrameBuilder: frame_ops == 0");
    // A raw frame body must fit the CASSTF2 u32 payload-length field,
    // or encodeTraceFrame could not frame it.
    if (static_cast<uint64_t>(frame_ops) * traceStreamOpBytes >
        0xffffffffull - 64)
        throw std::invalid_argument(
            "TraceFrameBuilder: frame_ops too large for the frame "
            "length field");
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
    if (kind != frameKindDelta)
        throw ArtifactFormatError(
            "trace stream frame has an unknown encoding kind");

    size_t pos = 0;
    auto varint = [&]() -> uint64_t {
        uint64_t v = 0;
        for (int shift = 0; shift < 70; shift += 7) {
            if (pos >= payload_len)
                throw ArtifactFormatError(
                    "trace stream delta frame is truncated");
            const uint8_t byte = p[pos++];
            v |= static_cast<uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return v;
        }
        throw ArtifactFormatError(
            "trace stream delta frame has an overlong varint");
    };

    uint64_t prev_mem = 0, prev_next = 0;
    for (size_t i = 0; i < num_ops; i++) {
        uint64_t cur_pc, mem;
        if (i == 0) {
            cur_pc = varint();
            mem = varint();
        } else {
            cur_pc =
                prev_next + static_cast<uint64_t>(unzigzag(varint()));
            mem = prev_mem + static_cast<uint64_t>(unzigzag(varint()));
        }
        const uint64_t next = cur_pc + ir::instBytes +
            static_cast<uint64_t>(unzigzag(varint()));
        pc[i] = cur_pc;
        mem_addr[i] = mem;
        next_pc[i] = next;
        prev_mem = mem;
        prev_next = next;
    }
    if (pos != payload_len)
        throw ArtifactFormatError(
            "trailing bytes in trace stream delta frame");
}

std::vector<uint8_t>
cryptoPcTable(const ir::Program &program)
{
    std::vector<uint8_t> table(program.size());
    for (size_t idx = 0; idx < table.size(); idx++)
        table[idx] = program.isCryptoPc(ir::Program::pcOf(idx)) ? 1 : 0;
    return table;
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
        out.tainted[i] = 0;
    }
}

// ---------------------------------------------------------------------
// TraceStreamWriter
// ---------------------------------------------------------------------

TraceStreamWriter::TraceStreamWriter(const std::string &path,
                                     uint64_t program_fingerprint,
                                     uint32_t frame_ops)
    : path_(path), frameOps_(frame_ops), frames_(frame_ops)
{
    file_.open(path, std::ios::binary | std::ios::trunc);
    if (!file_)
        throw std::runtime_error("cannot open " + path + " for writing");
    uint8_t header[headerBytes];
    std::memcpy(header, streamMagic, sizeof streamMagic);
    putU32(header + 8, streamVersion);
    putU32(header + 12, frameOps_);
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
                                 " failed for " + path_ +
                                 " (disk full?)");
}

void
TraceStreamWriter::append(const uarch::TimingOp &op)
{
    uarch::OpBatch one;
    one.pc = &op.pc;
    one.memAddr = &op.memAddr;
    one.nextPc = &op.nextPc;
    one.size = 1;
    appendBatch(one);
}

void
TraceStreamWriter::appendBatch(const uarch::OpBatch &batch)
{
    if (finished_)
        throw std::logic_error("TraceStreamWriter: append after finish");
    frames_.add(batch, [this](const uint8_t *frame, size_t bytes) {
        writeFrame(frame, bytes);
    });
    numOps_ += batch.size;
}

void
TraceStreamWriter::writeFrame(const uint8_t *frame, size_t bytes)
{
    // A poisoned stream would report tellp() == -1 and corrupt every
    // later index entry: fail fast instead of finishing garbage.
    checkStream("write");
    const std::streampos pos = file_.tellp();
    if (pos == std::streampos(-1))
        throw std::runtime_error("cannot position in " + path_);
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
    frames_.finish([this](const uint8_t *frame, size_t bytes) {
        writeFrame(frame, bytes);
    });
    // The durability seam: every data frame must be durable before a
    // single index/footer byte is issued, or a crash could leave a
    // footer that validates against truncated data. One flush drains
    // the stream buffer in write order; the fsync orders it against
    // kernel writeback.
    file_.flush();
    checkStream("data flush");
#if defined(__unix__) || defined(__APPLE__)
    {
        const int fd = ::open(path_.c_str(), O_WRONLY);
        if (fd < 0 || ::fsync(fd) != 0) {
            if (fd >= 0)
                ::close(fd);
            throw std::runtime_error("cannot sync " + path_);
        }
        ::close(fd);
    }
#endif
    if (finishSeamHook)
        finishSeamHook(path_);
    const std::streampos raw_pos = file_.tellp();
    if (raw_pos == std::streampos(-1))
        throw std::runtime_error("cannot position in " + path_);
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
    putU64(ops, numOps_);
    file_.seekp(numOpsOffset);
    file_.write(reinterpret_cast<const char *>(ops), 8);
    file_.flush();
    if (!file_)
        throw std::runtime_error("short write to " + path_);
    file_.close();
    finished_ = true;
}

// ---------------------------------------------------------------------
// TraceCursor
// ---------------------------------------------------------------------

TraceCursor::TraceCursor(const std::string &path,
                         const ir::Program &program, Backing backing)
    : program_(program)
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
        // among them), or a magic/version-field mismatch.
        throw ArtifactFormatError(
            "trace stream " + path + " has format version " +
            std::to_string(version_field) +
            ", expected a CASSTF2 header with version 2");
    }
    frameOps_ = getU32(header + 12);
    const uint64_t fingerprint = getU64(header + 16);
    numOps_ = getU64(header + numOpsOffset);
    if (frameOps_ == 0)
        throw ArtifactFormatError("trace stream " + path +
                                  " has zero frame size");
    // The fingerprint of the caller's program must match the one the
    // trace was recorded against.
    if (fingerprint != programFingerprint(program))
        throw ArtifactStaleError(
            "trace stream " + path +
            ": program fingerprint mismatch (stale trace)");

    // Footer + index. Every bound is checked by subtraction against
    // file_len before any multiplication or allocation, so a corrupt
    // footer cannot pass the consistency check via uint64 wrap-around
    // and then trigger a numFrames_-sized allocation.
    uint8_t footer[footerBytes];
    file_.seekg(static_cast<std::streamoff>(file_len - footerBytes));
    file_.read(reinterpret_cast<char *>(footer), footerBytes);
    const uint64_t index_pos = getU64(footer);
    numFrames_ = getU64(footer + 8);
    const uint64_t expect_frames =
        (numOps_ + frameOps_ - 1) / frameOps_;
    const uint64_t payload_bytes = file_len - headerBytes - footerBytes;
    if (numFrames_ != expect_frames || numFrames_ > payload_bytes / 8 ||
        index_pos != file_len - footerBytes - numFrames_ * 8 ||
        index_pos < headerBytes)
        throw ArtifactFormatError("trace stream " + path +
                                  " has an inconsistent index");
    // Bound the header's size fields against the file before sizing
    // any buffer from them: the writer never exceeds the u32 frame
    // length field, and every op costs at least 3 encoded bytes, so a
    // corrupt frameOps/numOps pair cannot coerce the frame buffer into
    // an allocation beyond ~8x the file size.
    const uint64_t frame_payload = index_pos - headerBytes;
    if (static_cast<uint64_t>(frameOps_) * traceStreamOpBytes >
            0xffffffffull - 64 ||
        numOps_ > frame_payload / 3)
        throw ArtifactFormatError("trace stream " + path +
                                  " has inconsistent size fields");
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
        // strictly increase, and leave room for at least a frame
        // header before the index.
        const bool ok =
            (f == 0 ? frameOffsets_[f] == headerBytes
                    : frameOffsets_[f] >
                         frameOffsets_[f - 1] + frameHeaderBytes) &&
            frameOffsets_[f] + frameHeaderBytes <= indexPos_;
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
    // Per-op relinking is then a bounds check plus two table loads
    // instead of a linear crypto-range scan.
    cryptoByIndex_ = cryptoPcTable(program);
}

TraceCursor::TraceCursor(const TraceFrames &held, const ir::Program &program)
    : program_(program), held_(&held), numOps_(held.numOps),
      frameOps_(held.frameOps), numFrames_(held.frames.size()),
      cryptoByIndex_(cryptoPcTable(program))
{
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

void
TraceCursor::decodeFrame(uint64_t frame, uarch::OpBatchStorage &out)
{
    const uint8_t *enc;
    size_t len;
    if (held_) {
        enc = held_->frames[frame].data();
        len = held_->frames[frame].size();
    } else if (map_) {
        enc = map_ + frameOffsets_[frame];
        len = static_cast<size_t>(frameEnd(frame) - frameOffsets_[frame]);
    } else {
        const uint64_t start = frameOffsets_[frame];
        len = static_cast<size_t>(frameEnd(frame) - start);
        scratch_.resize(len);
        file_.seekg(static_cast<std::streamoff>(start));
        file_.read(reinterpret_cast<char *>(scratch_.data()),
                   static_cast<std::streamsize>(len));
        if (!file_)
            throw ArtifactFormatError("trace stream read failed (frame " +
                                      std::to_string(frame) + ")");
        enc = scratch_.data();
    }
    decodeRelinkedFrame(enc, len, static_cast<size_t>(frameOps(frame)),
                        program_, cryptoByIndex_, out);
    if (map_)
        dropConsumedFrames(frame);
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

const uarch::TimingOp *
TraceCursor::next()
{
    if (pos_ >= numOps_)
        return nullptr;
    const uint64_t frame = pos_ / frameOps_;
    if (soaFrame_ != frame) {
        decodeFrame(frame, soa_);
        soaFrame_ = frame;
    }
    const size_t i = static_cast<size_t>(pos_ % frameOps_);
    op_.pc = soa_.pc[i];
    op_.memAddr = soa_.memAddr[i];
    op_.nextPc = soa_.nextPc[i];
    op_.inst = soa_.inst[i];
    op_.crypto = soa_.crypto[i] != 0;
    op_.tainted = false;
    pos_++;
    return &op_;
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
