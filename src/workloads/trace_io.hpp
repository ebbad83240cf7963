/**
 * @file
 * The IMPTRACE on-disk trace format: a versioned, ChampSim-style
 * binary record stream (pc, address, load/store kind, access size,
 * branch records with a taken bit) preceded by the functional-memory
 * image IMP's indirect-pattern detector reads index values from.
 *
 * Layout (all integers little-endian; docs/traces.md is the full
 * field-by-field reference):
 *
 *   header      40 bytes: magic "IMPTRACE", version, core count,
 *               record count, memory-chunk count, checksum
 *   mem chunks  memChunkCount x (16-byte chunk header + payload):
 *               the sparse memory image, one chunk per written region
 *   records     recordCount x 32 bytes, each carrying its own
 *               index-seeded checksum
 *
 * Every byte of the file is covered by one of the checksums, and the
 * header pins both section lengths, so truncation, bit flips and
 * trailing garbage are all detected deterministically and reported as
 * a TraceError with the byte offset — never UB, never an allocation
 * sized from an attacker-controlled field.
 *
 * Compression goes through external filter commands run via popen:
 * a ".gz" path through gzip, a ".xz" path through xz, so there is no
 * library dependency; any other path is plain stdio. The reader streams through a fixed-size buffer —
 * it never slurps a whole file (scripts/impsim_lint.py enforces
 * this: no-unbounded-trace-read).
 */
#ifndef IMPSIM_WORKLOADS_TRACE_IO_HPP
#define IMPSIM_WORKLOADS_TRACE_IO_HPP

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/func_mem.hpp"
#include "cpu/trace.hpp"

namespace impsim {

/** Current format version written by writeTraceFile(). */
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/** Encoded sizes (bytes). */
inline constexpr std::size_t kTraceHeaderBytes = 40;
inline constexpr std::size_t kTraceChunkHeaderBytes = 16;
inline constexpr std::size_t kTraceRecordBytes = 32;

/** Cap on one memory chunk's payload: bounds any single read loop. */
inline constexpr std::uint32_t kTraceMaxChunkBytes = 1u << 20;

/** Cap on the header's core count (the mesh tops out at 64x64). */
inline constexpr std::uint32_t kTraceMaxCores = 4096;

/**
 * A decode/encode failure with the byte offset (into the decoded
 * stream) where it was detected. what() is preformatted as
 * "path: byte N: message".
 */
class TraceError : public std::runtime_error
{
  public:
    TraceError(const std::string &path, std::uint64_t offset,
               const std::string &message);

    const std::string &path() const { return path_; }
    std::uint64_t offset() const { return offset_; }
    /** The message without the "path: byte N:" prefix. */
    const std::string &message() const { return message_; }

  private:
    std::string path_;
    std::uint64_t offset_;
    std::string message_;
};

/** Record kinds (the `kind` byte). */
enum class TraceRecordKind : std::uint8_t {
    Load = 0,
    Store = 1,
    SwPrefetch = 2, ///< Non-binding software prefetch instruction.
    Branch = 3,     ///< Control transfer; folded into the next gap.
    Tail = 4,       ///< Trailing non-memory instructions of one core.
};

/** TraceRecord::flags bits. */
inline constexpr std::uint8_t kTraceFlagBarrierBefore = 1;
/** Branch records only: the branch was taken (addr = target). */
inline constexpr std::uint8_t kTraceFlagBranchTaken = 2;

/** One decoded 32-byte record. */
struct TraceRecord
{
    /** Access address; branch target for Branch; instruction count
     *  for Tail. */
    std::uint64_t addr = 0;
    std::uint32_t pc = 0;
    /** Non-memory, non-branch instructions preceding this record. */
    std::uint32_t gap = 0;
    /** Back-distance to the access producing this address (0=none). */
    std::uint32_t dep = 0;
    std::uint16_t core = 0;
    TraceRecordKind kind = TraceRecordKind::Load;
    std::uint8_t size = 0;
    std::uint8_t flags = 0;
    AccessType type = AccessType::Other;

    bool
    operator==(const TraceRecord &o) const
    {
        return addr == o.addr && pc == o.pc && gap == o.gap &&
               dep == o.dep && core == o.core && kind == o.kind &&
               size == o.size && flags == o.flags && type == o.type;
    }
};

/** The validated header of a trace file. */
struct TraceSummary
{
    std::uint32_t version = 0;
    std::uint32_t numCores = 0;
    std::uint64_t recordCount = 0;
    std::uint64_t memChunkCount = 0;
};

// ---- Bounded streaming I/O --------------------------------------------

/**
 * A pull source of decoded trace bytes. Implementations are bounded:
 * read() fills at most @p len caller-owned bytes per call.
 */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;

    /**
     * Reads up to @p len bytes into @p out.
     * @return bytes read; 0 means end of stream.
     * @throws TraceError on I/O or decompressor failure.
     */
    virtual std::size_t read(void *out, std::size_t len) = 0;

    /** The path diagnostics should cite. */
    virtual const std::string &path() const = 0;
};

/**
 * Opens @p path for reading, decompressing a ".gz" or ".xz" path
 * through `gzip -dc` or `xz -dc`. @throws TraceError if the file
 * cannot be opened.
 */
std::unique_ptr<ByteSource> openTraceSource(const std::string &path);

/**
 * Reads and validates only the 40-byte header — the cheap existence/
 * version/shape probe `--check` and SUBMIT-time binding use.
 * @throws TraceError on any problem, byte offset included.
 */
TraceSummary probeTraceHeader(const std::string &path);

/**
 * Streaming decoder: header on construction, then the memory image,
 * then one record at a time through a fixed 64 KiB buffer.
 */
class TraceReader
{
  public:
    /** Reads and validates the header. @throws TraceError */
    explicit TraceReader(std::unique_ptr<ByteSource> src);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    const TraceSummary &summary() const { return summary_; }
    const std::string &path() const;

    /**
     * Streams every memory chunk into @p mem, verifying per-chunk
     * checksums. Must be called exactly once, before next().
     * @throws TraceError
     */
    void readMemoryImage(FuncMem &mem);

    /**
     * Decodes the next record. After the header's recordCount records
     * the stream must end exactly; trailing bytes are an error.
     * @return false at the (clean) end of the trace.
     * @throws TraceError on checksum/field/framing problems.
     */
    bool next(TraceRecord &out);

    /** Offset of the first byte of the last record next() returned. */
    std::uint64_t lastRecordOffset() const { return lastRecordOffset_; }

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    TraceSummary summary_;
    std::uint64_t lastRecordOffset_ = 0;
};

// ---- Writing ----------------------------------------------------------

/** What writeTraceFile() produced (decoded sizes, pre-compression). */
struct TraceWriteStats
{
    std::uint64_t recordCount = 0;
    std::uint64_t memChunkCount = 0;
    std::uint64_t decodedBytes = 0;
};

/**
 * Encodes and writes a complete trace file, compressing a ".gz" or
 * ".xz" path through `gzip -c` or `xz -c`. @p mem may be nullptr
 * for a trace with no memory image. @throws TraceError on I/O or
 * filter failure.
 */
TraceWriteStats writeTraceFile(const std::string &path,
                               std::uint32_t numCores,
                               const std::vector<TraceRecord> &records,
                               const FuncMem *mem);

/**
 * Flattens per-core access streams into file records, core-major:
 * every access of core 0 (barrier flags preserved), its Tail record
 * if it has trailing instructions, then core 1, ...
 */
std::vector<TraceRecord>
encodeTraceRecords(const std::vector<CoreTrace> &traces);

/** writeTraceFile() over a generated workload's traces + memory. */
TraceWriteStats recordTrace(const std::string &path,
                            const std::vector<CoreTrace> &traces,
                            const FuncMem &mem);

} // namespace impsim

#endif // IMPSIM_WORKLOADS_TRACE_IO_HPP
