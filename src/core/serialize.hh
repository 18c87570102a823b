/**
 * @file
 * Bit-exact serialization of branch traces into data pages.
 *
 * This is the wire format Algorithm 2 embeds in the binary and the BTU
 * fill path reads: a small header (pattern / trace element counts and
 * flags) followed by bit-packed 20-bit pattern elements and 32-bit
 * trace elements at the Figure 4 field widths. The simulator normally
 * passes decoded structures around for speed; this module exists to
 * pin down the storage format, validate the bit-width accounting and
 * support the round-trip property tests.
 *
 * On top of the per-branch wire format, this module snapshots whole
 * AnalyzedWorkload artifacts (magic "CASSAW4\n" + format version):
 * workload name + program fingerprint, which analysis phases ran, the
 * Algorithm 2 results (when that phase ran) and the recorded timing
 * trace. Reloading resolves the workload by name (normally through
 * WorkloadRegistry::global().resolver()), verifies the version and
 * fingerprint so outdated or stale artifacts fail loudly with typed
 * errors (ArtifactFormatError / ArtifactStaleError from
 * core/trace_stream.hh — cache layers evict such files instead of
 * silently re-analyzing around them), and relinks the timing trace
 * against the rebuilt program — repeated sweeps skip analysis
 * entirely.
 *
 * Snapshots are stream-aware: a whole-mode artifact inlines its ops
 * as CASSTF2-codec frames (delta + zig-zag varint with per-frame raw
 * fallback — the same codec trace stream files use, typically ~7x
 * smaller than 24 B/op), encoded straight from the artifact's
 * retained chunks and decoded straight back into them, while a
 * streamed artifact embeds its CASSTF2 *stream file* by chunked copy
 * — saving and loading never materialize an op vector. Writers emit
 * and readers accept CASSAW4 only; the older CASSAW1–3 revisions
 * raise the typed eviction error.
 * loadAnalyzedWorkload extracts an embedded stream back to a trace
 * file and rehydrates straight into stream mode, validating both the
 * snapshot's workload fingerprint and the stream's own program
 * fingerprint. The snapshotIoStats() counters make the "no
 * materialization" guarantee observable: a streamed save/load round
 * trip moves stream bytes but zero inline ops.
 *
 * The module also defines the CASSCR1 cell-result set: the partial
 * `Experiment` a shard worker hands back to the coordinator (one
 * CellResult per global cell index). SubprocessShardExecutor merges
 * these sets into the final result vector byte-identically to an
 * in-process run.
 */

#ifndef CASSANDRA_CORE_SERIALIZE_HH
#define CASSANDRA_CORE_SERIALIZE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/analyzed_workload.hh"
#include "core/byte_io.hh"
#include "core/experiment.hh"
#include "core/trace_format.hh"
#include "core/trace_image.hh"
#include "core/trace_stream.hh"

namespace cassandra::core {

/**
 * Container format version written for AnalyzedWorkload snapshots.
 * Bumped on every incompatible layout change; loaders additionally
 * accept artifactMinReadVersion..artifactFormatVersion and reject
 * anything else with ArtifactFormatError so stale caches evict
 * instead of drifting.
 */
constexpr uint32_t artifactFormatVersion = 4;

/** Oldest snapshot version loaders still read; every older revision
 * (version 3 stored raw 24 B/op inline ops) is rejected. */
constexpr uint32_t artifactMinReadVersion = 4;

/** Pack a multi-target branch trace into its data-page bytes. */
std::vector<uint8_t> packTrace(const BranchTrace &trace);

/**
 * Decode a data-page image back into a trace.
 *
 * @param bytes packed image from packTrace
 * @param branch_pc the branch the trace belongs to (offsets are
 *        PC-relative)
 */
BranchTrace unpackTrace(const std::vector<uint8_t> &bytes,
                        uint64_t branch_pc);

/** Exact packed size in bytes (header + bit-packed payload). */
size_t packedTraceBytes(const BranchTrace &trace);

/** Pack a 14-bit hint word (Figure: single-target, offset, short). */
uint16_t packHint(const HintInfo &hint, uint64_t branch_pc);

// ---------------------------------------------------------------------
// AnalyzedWorkload snapshots (analyze once, reload forever)
// ---------------------------------------------------------------------

/** Structural fingerprint of a program (guards stale artifacts). */
uint64_t programFingerprint(const ir::Program &program);

/**
 * Fingerprint of everything hashable that shapes a workload's runs:
 * the program, maxDynInsts, secret regions and the sandbox fraction.
 * Caveat: setInput/check are closures and cannot be hashed — a
 * change to input *data* that leaves the program identical is not
 * detected; delete stale snapshot directories after such edits.
 */
uint64_t workloadFingerprint(const Workload &workload);

/**
 * Snapshot a full analysis artifact into bytes. `name` is the
 * resolver (registry) name stored for reloading; empty uses
 * Workload::name, which differs from the registry spelling for
 * parameterized entries like "synthetic/chacha20/75".
 */
std::vector<uint8_t> packAnalyzedWorkload(const AnalyzedWorkload &aw,
                                          const std::string &name = "");

/**
 * Rebuild an artifact from packAnalyzedWorkload bytes. The workload
 * is rebuilt by name through the resolver and its program must match
 * the stored fingerprint. Phases absent from the snapshot (e.g. the
 * trace image of a baseline-only sweep) stay demand-driven on the
 * rebuilt artifact. A snapshot of a streamed artifact rehydrates into
 * stream mode: its embedded trace stream is extracted to a fresh file
 * under `stream_dir` (empty = defaultTraceStreamDir()) owned by the
 * returned artifact.
 * @throws ArtifactFormatError on bad magic or a version mismatch,
 *         ArtifactStaleError on a fingerprint mismatch,
 *         std::invalid_argument on corrupt bytes (and whatever the
 *         resolver throws on unknown names).
 */
AnalyzedWorkload::Ptr
unpackAnalyzedWorkload(const std::vector<uint8_t> &bytes,
                       const AnalysisCache::Resolver &resolver,
                       const std::string &stream_dir = "");

/**
 * packAnalyzedWorkload straight to a file (throws on I/O errors).
 * Streamed artifacts embed their trace stream file by chunked copy —
 * the op vector is never materialized in memory.
 */
void saveAnalyzedWorkload(const AnalyzedWorkload &aw,
                          const std::string &path,
                          const std::string &name = "");

/**
 * Load + unpack an artifact file. Streamed snapshots are extracted by
 * chunked copy into a trace file under `stream_dir` (empty =
 * defaultTraceStreamDir()) and rehydrate straight into stream mode —
 * the whole trace is never resident.
 */
AnalyzedWorkload::Ptr
loadAnalyzedWorkload(const std::string &path,
                     const AnalysisCache::Resolver &resolver,
                     const std::string &stream_dir = "");

/**
 * Process-wide snapshot I/O counters: ops written/read through the
 * inline (whole-mode) trace section and bytes moved through embedded
 * stream sections. The stream-aware save/load paths are *observably*
 * zero-materialization: a streamed round trip leaves inlineOpsWritten
 * and inlineOpsRead untouched.
 */
struct SnapshotIoStats
{
    uint64_t inlineOpsWritten = 0;
    uint64_t inlineOpsRead = 0;
    uint64_t streamBytesCopied = 0;
};

SnapshotIoStats snapshotIoStats();

// ---------------------------------------------------------------------
// Shard cell-result sets (CASSCR1)
// ---------------------------------------------------------------------

/** One executed cell plus its global index in the coordinator's
 * cell plan (the unit a shard worker reports back). */
struct IndexedCellResult
{
    uint32_t index = 0;
    CellResult cell;
};

/** Serialize a partial cell-result set (magic "CASSCR1\n"). Every
 * counter of every cell is stored, so a merged report is
 * byte-identical to an in-process run. */
std::vector<uint8_t>
packCellResults(const std::vector<IndexedCellResult> &cells);

/**
 * Parse CASSCR1 bytes.
 * @throws ArtifactFormatError on bad magic or version,
 *         std::invalid_argument on truncated/corrupt bytes (unknown
 *         scheme names included).
 */
std::vector<IndexedCellResult>
unpackCellResults(const std::vector<uint8_t> &bytes);

/** packCellResults straight to a file (throws on I/O errors). */
void saveCellResults(const std::vector<IndexedCellResult> &cells,
                     const std::string &path);

/** Load + unpack a CASSCR1 file (throws like unpackCellResults). */
std::vector<IndexedCellResult>
loadCellResults(const std::string &path);

/**
 * Number of u64 counters in an ExperimentResult (the CASSCR1 fixed
 * field list). Containers embedding counter blocks (shard result
 * sets, the result store) record this count and treat a mismatch as
 * a stale format — a counter added to the simulator must not be
 * silently replayed as zero from old entries.
 */
size_t experimentResultCounterCount();

/** Append every counter of `result` in the CASSCR1 field order. */
void packExperimentResult(ByteWriter &w, const ExperimentResult &result);

/** Read experimentResultCounterCount() u64 counters back (CASSCR1
 * field order; throws std::invalid_argument when truncated). */
ExperimentResult unpackExperimentResult(ByteReader &r);

} // namespace cassandra::core

#endif // CASSANDRA_CORE_SERIALIZE_HH
