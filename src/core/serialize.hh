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
 * AnalyzedWorkload artifacts (magic "CASSAW6\n" + format version):
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
 * Both trace modes share one trace section: the CASSTF3 frames the
 * artifact holds (sparse records with per-frame raw fallback, under
 * 1 B/op on the crypto kernels), written verbatim from memory or from
 * the stream file. A storage byte records the mode the artifact was
 * saved in, which is where a load puts the frames unless the caller
 * asks for the other mode: into the memory of a whole-mode artifact,
 * or into a fresh stream file it owns. Every frame passes the checked
 * decode on load, and neither saving nor loading ever materializes the
 * ops. Writers emit and readers accept CASSAW6 only; CASSAW1–5 raise
 * the typed eviction error.
 *
 * The module also packs an ExperimentResult's counters, in
 * forEachResultCounter order, into the blocks the result store's
 * CASSRS1 entries embed.
 */

#ifndef CASSANDRA_CORE_SERIALIZE_HH
#define CASSANDRA_CORE_SERIALIZE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzed_workload.hh"
#include "core/byte_io.hh"
#include "core/trace_format.hh"
#include "core/trace_image.hh"
#include "core/trace_stream.hh"

namespace cassandra::core {

/**
 * Container format version of AnalyzedWorkload snapshots, the only one
 * loaders read. Bumped on every incompatible layout change; loaders
 * reject every other version with ArtifactFormatError so stale caches
 * evict instead of drifting.
 */
constexpr uint32_t artifactFormatVersion = 6;

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
 * Snapshot a full analysis artifact to a file (throws on I/O errors),
 * recording the trace first if it has not been recorded yet. `name` is
 * the resolver (registry) name stored for reloading; empty uses
 * Workload::name, which differs from the registry spelling for
 * parameterized entries like "synthetic/chacha20/75". The frames are
 * written one at a time from the artifact's TraceCursor.
 */
void saveAnalyzedWorkload(const AnalyzedWorkload &aw,
                          const std::string &path,
                          const std::string &name = "");

/**
 * Rebuild an artifact from a saveAnalyzedWorkload file. The workload
 * is rebuilt by name through the resolver and its program must match
 * the stored fingerprint. Phases absent from the snapshot (e.g. the
 * trace image of a baseline-only sweep) stay demand-driven on the
 * rebuilt artifact. The artifact comes back in trace mode `mode`, by
 * default the mode it was saved in: a whole-mode one holds its frames
 * in memory, a streamed one gets them in a fresh trace file under
 * `stream_dir` (empty = defaultTraceStreamDir()), which it owns.
 * @throws ArtifactFormatError on bad magic, a version mismatch, a
 *         frame size outside 1..traceFrameMaxOps or a corrupt frame
 *         (no trace file is left behind),
 *         ArtifactStaleError on a fingerprint mismatch,
 *         std::invalid_argument on other corrupt or truncated bytes
 *         (and whatever the resolver throws on unknown names).
 */
AnalyzedWorkload::Ptr
loadAnalyzedWorkload(const std::string &path,
                     const AnalysisCache::Resolver &resolver,
                     const std::string &stream_dir = "",
                     std::optional<TraceMode> mode = std::nullopt);

// ---------------------------------------------------------------------
// ExperimentResult counter blocks
// ---------------------------------------------------------------------

/**
 * Number of u64 counters in an ExperimentResult (the length of
 * forEachResultCounter's list). Containers embedding counter blocks
 * (the result store) record this count and treat a mismatch as a
 * stale format — a counter added to the simulator must not be
 * silently replayed as zero from old entries.
 */
size_t experimentResultCounterCount();

/** Append every counter of `result` in forEachResultCounter order. */
void packExperimentResult(ByteWriter &w, const ExperimentResult &result);

/** Read experimentResultCounterCount() u64 counters back, in
 * forEachResultCounter order (throws std::invalid_argument when
 * truncated). */
ExperimentResult unpackExperimentResult(ByteReader &r);

} // namespace cassandra::core

#endif // CASSANDRA_CORE_SERIALIZE_HH
