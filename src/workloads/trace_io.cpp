/**
 * @file
 * IMPTRACE codec: bounded streaming reader, writer, popen codecs.
 */
#include "workloads/trace_io.hpp"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>

#include <pthread.h>

#include "common/access_type.hpp"
#include "common/logging.hpp"

namespace impsim {

namespace {

constexpr char kTraceMagic[8] = {'I', 'M', 'P', 'T', 'R', 'A', 'C', 'E'};

/** Streaming buffer size: the only unit the reader ever pulls in. */
constexpr std::size_t kStreamBytes = 64u << 10;

// ---- FNV-1a 64 --------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Mixes a little-endian u64 (section/record index seeds). */
std::uint64_t
fnvMixU64(std::uint64_t h, std::uint64_t v)
{
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return fnv1a(b, sizeof(b), h);
}

std::uint32_t
fold32(std::uint64_t h)
{
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

// ---- Little-endian field access ---------------------------------------

void
putU16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
}

void
putU32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
putU64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t
getU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

// ---- Compression codecs -----------------------------------------------

/**
 * An external filter pair for one path extension. Commands run via
 * popen with the (shell-quoted) file redirected in or out, e.g.
 * "gzip -dc" reads the compressed file on stdin and writes decoded
 * bytes to its stdout.
 */
struct TraceCodec
{
    const char *extension;  ///< Including the dot, e.g. ".gz".
    const char *decompress; ///< Filter: compressed stdin -> raw stdout.
    const char *compress;   ///< Filter: raw stdin -> compressed stdout.
};

constexpr TraceCodec kCodecs[] = {
    {".gz", "gzip -dc", "gzip -c"},
    {".xz", "xz -dc", "xz -c"},
};

/** The codec whose extension ends @p path, or nullptr for plain stdio. */
const TraceCodec *
codecFor(const std::string &path)
{
    for (const TraceCodec &c : kCodecs) {
        const std::size_t n = std::strlen(c.extension);
        if (path.size() > n &&
            path.compare(path.size() - n, n, c.extension) == 0)
            return &c;
    }
    return nullptr;
}

/** Single-quotes @p path for the shell ('"'"'-escaping embedded '). */
std::string
shellQuote(const std::string &path)
{
    std::string out = "'";
    for (char ch : path) {
        if (ch == '\'')
            out += "'\\''";
        else
            out += ch;
    }
    out += "'";
    return out;
}

// ---- Byte sources -----------------------------------------------------

class FileSource : public ByteSource
{
  public:
    FileSource(std::string path, std::FILE *f)
        : path_(std::move(path)), f_(f)
    {
    }

    ~FileSource() override
    {
        if (f_)
            std::fclose(f_);
    }

    std::size_t
    read(void *out, std::size_t len) override
    {
        std::size_t n = std::fread(out, 1, len, f_);
        if (n < len && std::ferror(f_))
            throw TraceError(path_, 0, "read error");
        return n;
    }

    const std::string &path() const override { return path_; }

  private:
    std::string path_;
    std::FILE *f_;
};

class PipeSource : public ByteSource
{
  public:
    PipeSource(std::string path, std::string command, std::FILE *f)
        : path_(std::move(path)), command_(std::move(command)), f_(f)
    {
    }

    ~PipeSource() override
    {
        if (f_)
            ::pclose(f_);
    }

    std::size_t
    read(void *out, std::size_t len) override
    {
        std::size_t n = std::fread(out, 1, len, f_);
        if (n < len) {
            if (std::ferror(f_))
                throw TraceError(path_, 0,
                                 "read error from decompressor '" +
                                     command_ + "'");
            if (n == 0 && !eofChecked_) {
                // EOF: the filter's exit status is the only way to
                // tell clean end-of-data from "gzip: not found" or a
                // corrupt compressed container.
                eofChecked_ = true;
                int status = ::pclose(f_);
                f_ = nullptr;
                if (status != 0)
                    throw TraceError(
                        path_, 0,
                        "decompressor '" + command_ +
                            "' failed (status " + std::to_string(status) +
                            ")");
            }
        }
        return n;
    }

    const std::string &path() const override { return path_; }

  private:
    std::string path_;
    std::string command_;
    std::FILE *f_;
    bool eofChecked_ = false;
};

// ---- Byte sinks -------------------------------------------------------

class ByteSink
{
  public:
    virtual ~ByteSink() = default;
    /** Writes all @p len bytes. @throws TraceError */
    virtual void write(const void *data, std::size_t len) = 0;
    /** Flushes and closes, surfacing deferred errors. @throws TraceError */
    virtual void finish() = 0;
};

class FileSink : public ByteSink
{
  public:
    FileSink(std::string path, std::FILE *f)
        : path_(std::move(path)), f_(f)
    {
    }

    ~FileSink() override
    {
        if (f_)
            std::fclose(f_);
    }

    void
    write(const void *data, std::size_t len) override
    {
        if (std::fwrite(data, 1, len, f_) != len)
            throw TraceError(path_, 0, "write error");
    }

    void
    finish() override
    {
        int rc = std::fclose(f_);
        f_ = nullptr;
        if (rc != 0)
            throw TraceError(path_, 0, "write error on close");
    }

  private:
    std::string path_;
    std::FILE *f_;
};

/**
 * Blocks SIGPIPE on this thread while alive, so writing into a
 * compressor that has already exited fails with EPIPE instead of
 * killing the process. A SIGPIPE raised inside the window is consumed
 * before the mask is restored; one pending before it stays pending.
 */
class SigpipeBlock
{
  public:
    SigpipeBlock()
    {
        sigemptyset(&pipe_);
        sigaddset(&pipe_, SIGPIPE);
        sigset_t pending;
        wasPending_ = sigpending(&pending) == 0 &&
                      sigismember(&pending, SIGPIPE) == 1;
        pthread_sigmask(SIG_BLOCK, &pipe_, &saved_);
    }

    ~SigpipeBlock()
    {
        sigset_t pending;
        if (!wasPending_ && sigpending(&pending) == 0 &&
            sigismember(&pending, SIGPIPE) == 1) {
            const timespec noWait{0, 0};
            while (sigtimedwait(&pipe_, nullptr, &noWait) == -1 &&
                   errno == EINTR) {
            }
        }
        pthread_sigmask(SIG_SETMASK, &saved_, nullptr);
    }

    SigpipeBlock(const SigpipeBlock &) = delete;
    SigpipeBlock &operator=(const SigpipeBlock &) = delete;

  private:
    sigset_t pipe_;
    sigset_t saved_;
    bool wasPending_;
};

class PipeSink : public ByteSink
{
  public:
    PipeSink(std::string path, std::string command, std::FILE *f)
        : path_(std::move(path)), command_(std::move(command)), f_(f)
    {
    }

    ~PipeSink() override
    {
        // Reached after a write threw: pclose flushes what is still
        // buffered into the dead pipe.
        if (f_)
            ::pclose(f_);
    }

    void
    write(const void *data, std::size_t len) override
    {
        if (std::fwrite(data, 1, len, f_) != len)
            throw TraceError(path_, 0,
                             "write error to compressor '" + command_ +
                                 "'");
    }

    void
    finish() override
    {
        int status = ::pclose(f_);
        f_ = nullptr;
        if (status != 0)
            throw TraceError(path_, 0,
                             "compressor '" + command_ +
                                 "' failed (status " +
                                 std::to_string(status) + ")");
    }

  private:
    // First member, so it is destroyed last: the window spans every
    // write and flush, the destructor's pclose included. A sink is
    // opened, written and destroyed on one thread.
    SigpipeBlock block_;
    std::string path_;
    std::string command_;
    std::FILE *f_;
};

std::unique_ptr<ByteSink>
openTraceSink(const std::string &path)
{
    if (const TraceCodec *codec = codecFor(path)) {
        std::string cmd =
            std::string(codec->compress) + " > " + shellQuote(path);
        std::FILE *f = ::popen(cmd.c_str(), "w");
        if (!f)
            throw TraceError(path, 0,
                             "cannot start compressor '" +
                                 std::string(codec->compress) + "'");
        return std::make_unique<PipeSink>(path, codec->compress, f);
    }
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw TraceError(path, 0, "cannot open for writing");
    return std::make_unique<FileSink>(path, f);
}

// ---- Bounded buffered reading -----------------------------------------

/**
 * Pulls from a ByteSource through one fixed buffer, tracking the
 * absolute decoded-stream offset for diagnostics.
 */
class BoundedReader
{
  public:
    explicit BoundedReader(std::unique_ptr<ByteSource> src)
        : src_(std::move(src))
    {
    }

    const std::string &path() const { return src_->path(); }
    std::uint64_t offset() const { return offset_; }

    /** Reads exactly @p len bytes or throws citing @p what. */
    void
    readExact(void *out, std::size_t len, const char *what)
    {
        auto *dst = static_cast<std::uint8_t *>(out);
        while (len > 0) {
            if (pos_ == end_ && !fill())
                throw TraceError(path(), offset_,
                                 std::string("unexpected end of trace "
                                             "inside ") +
                                     what);
            std::size_t n = std::min(len, end_ - pos_);
            std::memcpy(dst, buf_ + pos_, n);
            dst += n;
            pos_ += n;
            offset_ += n;
            len -= n;
        }
    }

    /** True iff the stream ends here (no byte left). */
    bool
    atEnd()
    {
        return pos_ == end_ && !fill();
    }

  private:
    bool
    fill()
    {
        pos_ = 0;
        end_ = src_->read(buf_, sizeof(buf_));
        return end_ > 0;
    }

    std::unique_ptr<ByteSource> src_;
    std::uint8_t buf_[kStreamBytes];
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
    std::uint64_t offset_ = 0;
};

// ---- Header / record codecs -------------------------------------------

void
encodeHeader(std::uint8_t out[kTraceHeaderBytes], std::uint32_t numCores,
             std::uint64_t recordCount, std::uint64_t memChunkCount)
{
    std::memcpy(out, kTraceMagic, sizeof(kTraceMagic));
    putU32(out + 8, kTraceFormatVersion);
    putU32(out + 12, numCores);
    putU64(out + 16, recordCount);
    putU64(out + 24, memChunkCount);
    putU32(out + 32, 0); // reserved
    putU32(out + 36, fold32(fnv1a(out, 36)));
}

TraceSummary
decodeHeader(const std::uint8_t in[kTraceHeaderBytes],
             const std::string &path)
{
    if (std::memcmp(in, kTraceMagic, sizeof(kTraceMagic)) != 0)
        throw TraceError(path, 0,
                         "not an impsim trace (bad magic; expected "
                         "\"IMPTRACE\")");
    if (fold32(fnv1a(in, 36)) != getU32(in + 36))
        throw TraceError(path, 36, "header checksum mismatch");
    TraceSummary s;
    s.version = getU32(in + 8);
    if (s.version != kTraceFormatVersion)
        throw TraceError(path, 8,
                         "unsupported trace version " +
                             std::to_string(s.version) +
                             " (this reader speaks " +
                             std::to_string(kTraceFormatVersion) + ")");
    if (getU32(in + 32) != 0)
        throw TraceError(path, 32, "reserved header bytes must be zero");
    s.numCores = getU32(in + 12);
    if (s.numCores == 0 || s.numCores > kTraceMaxCores)
        throw TraceError(path, 12,
                         "core count " + std::to_string(s.numCores) +
                             " is out of range (1 .. " +
                             std::to_string(kTraceMaxCores) + ")");
    s.recordCount = getU64(in + 16);
    s.memChunkCount = getU64(in + 24);
    return s;
}

void
encodeRecord(std::uint8_t out[kTraceRecordBytes], const TraceRecord &r,
             std::uint64_t index)
{
    putU64(out, r.addr);
    putU32(out + 8, r.pc);
    putU32(out + 12, r.gap);
    putU32(out + 16, r.dep);
    putU16(out + 20, r.core);
    out[22] = static_cast<std::uint8_t>(r.kind);
    out[23] = r.size;
    out[24] = r.flags;
    out[25] = static_cast<std::uint8_t>(r.type);
    putU16(out + 26, 0); // reserved
    putU32(out + 28, fold32(fnvMixU64(fnv1a(out, 28), index)));
}

TraceRecord
decodeRecord(const std::uint8_t in[kTraceRecordBytes], std::uint64_t index,
             std::uint32_t numCores, const std::string &path,
             std::uint64_t offset)
{
    auto fail = [&](const std::string &msg) -> void {
        throw TraceError(path, offset,
                         "record " + std::to_string(index) + ": " + msg);
    };
    if (fold32(fnvMixU64(fnv1a(in, 28), index)) != getU32(in + 28))
        fail("checksum mismatch (corrupt, reordered or truncated "
             "record)");
    if (getU16(in + 26) != 0)
        fail("reserved bytes must be zero");

    TraceRecord r;
    r.addr = getU64(in);
    r.pc = getU32(in + 8);
    r.gap = getU32(in + 12);
    r.dep = getU32(in + 16);
    r.core = getU16(in + 20);
    if (in[22] > static_cast<std::uint8_t>(TraceRecordKind::Tail))
        fail("unknown record kind " + std::to_string(in[22]));
    r.kind = static_cast<TraceRecordKind>(in[22]);
    r.size = in[23];
    r.flags = in[24];
    if (in[25] >= kNumAccessTypes)
        fail("unknown access type " + std::to_string(in[25]));
    r.type = static_cast<AccessType>(in[25]);

    if (r.core >= numCores)
        fail("core " + std::to_string(r.core) + " is out of range for a " +
             std::to_string(numCores) + "-core trace");
    switch (r.kind) {
      case TraceRecordKind::Load:
      case TraceRecordKind::Store:
        if (r.size == 0 || r.size > 64)
            fail("access size must be 1 .. 64 bytes, got " +
                 std::to_string(r.size));
        if (r.flags & ~kTraceFlagBarrierBefore)
            fail("invalid flags for a load/store record");
        break;
      case TraceRecordKind::SwPrefetch:
        // TraceBuilder::swPrefetch pins these (4-byte, Other-typed,
        // dependency-free), and replay copies records as they are.
        if (r.size != 4 || r.dep != 0 || r.type != AccessType::Other)
            fail("software-prefetch records must have size 4, dep 0 "
                 "and type other");
        if (r.flags & ~kTraceFlagBarrierBefore)
            fail("invalid flags for a software-prefetch record");
        break;
      case TraceRecordKind::Branch:
        if (r.size != 0 || r.dep != 0 || r.type != AccessType::Other)
            fail("branch records must have size 0, dep 0 and type "
                 "other");
        if (r.flags & ~kTraceFlagBranchTaken)
            fail("invalid flags for a branch record");
        break;
      case TraceRecordKind::Tail:
        if (r.size != 0 || r.dep != 0 || r.gap != 0 || r.flags != 0 ||
            r.type != AccessType::Other)
            fail("tail records carry only a core and an instruction "
                 "count");
        break;
    }
    return r;
}

} // namespace

// ---- TraceError -------------------------------------------------------

TraceError::TraceError(const std::string &path, std::uint64_t offset,
                       const std::string &message)
    : std::runtime_error(path + ": byte " + std::to_string(offset) +
                         ": " + message),
      path_(path), offset_(offset), message_(message)
{
}

// ---- Sources ----------------------------------------------------------

std::unique_ptr<ByteSource>
openTraceSource(const std::string &path)
{
    if (const TraceCodec *codec = codecFor(path)) {
        // Probe existence first: popen would happily start a filter
        // on a missing file and only fail later with a shell message.
        if (std::FILE *probe = std::fopen(path.c_str(), "rb"))
            std::fclose(probe);
        else
            throw TraceError(path, 0, "cannot open trace file");
        std::string cmd =
            std::string(codec->decompress) + " < " + shellQuote(path);
        std::FILE *f = ::popen(cmd.c_str(), "r");
        if (!f)
            throw TraceError(path, 0,
                             "cannot start decompressor '" +
                                 std::string(codec->decompress) + "'");
        return std::make_unique<PipeSource>(path, codec->decompress, f);
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw TraceError(path, 0, "cannot open trace file");
    return std::make_unique<FileSource>(path, f);
}

// ---- TraceReader ------------------------------------------------------

struct TraceReader::Impl
{
    explicit Impl(std::unique_ptr<ByteSource> src)
        : reader(std::move(src))
    {
    }

    BoundedReader reader;
    std::uint64_t chunksLeft = 0;
    std::uint64_t recordsLeft = 0;
    std::uint64_t nextRecordIndex = 0;
    bool memDone = false;
    bool tailChecked = false;
};

TraceReader::TraceReader(std::unique_ptr<ByteSource> src)
    : impl_(std::make_unique<Impl>(std::move(src)))
{
    std::uint8_t h[kTraceHeaderBytes];
    impl_->reader.readExact(h, sizeof(h), "the header");
    summary_ = decodeHeader(h, impl_->reader.path());
    impl_->chunksLeft = summary_.memChunkCount;
    impl_->recordsLeft = summary_.recordCount;
    impl_->memDone = summary_.memChunkCount == 0;
}

TraceReader::~TraceReader() = default;

const std::string &
TraceReader::path() const
{
    return impl_->reader.path();
}

void
TraceReader::readMemoryImage(FuncMem &mem)
{
    BoundedReader &in = impl_->reader;
    std::uint64_t total = summary_.memChunkCount;
    for (std::uint64_t i = total - impl_->chunksLeft; impl_->chunksLeft > 0;
         ++i, --impl_->chunksLeft) {
        std::uint64_t chunkStart = in.offset();
        std::uint8_t h[kTraceChunkHeaderBytes];
        in.readExact(h, sizeof(h), "a memory-chunk header");
        Addr addr = getU64(h);
        std::uint32_t len = getU32(h + 8);
        std::uint32_t want = getU32(h + 12);
        if (len == 0 || len > kTraceMaxChunkBytes)
            throw TraceError(in.path(), chunkStart,
                             "memory chunk " + std::to_string(i) +
                                 ": length " + std::to_string(len) +
                                 " is out of range (1 .. " +
                                 std::to_string(kTraceMaxChunkBytes) +
                                 ")");
        // Stream the payload into memory in bounded pieces, folding
        // the checksum as we go — the claimed length never sizes an
        // allocation, and a truncated payload fails inside the loop.
        std::uint64_t sum = fnvMixU64(kFnvOffset, i);
        sum = fnv1a(h, 12, sum);
        std::uint8_t piece[4096];
        std::uint32_t left = len;
        Addr at = addr;
        while (left > 0) {
            std::uint32_t n = std::min<std::uint32_t>(left, sizeof(piece));
            in.readExact(piece, n, "a memory-chunk payload");
            sum = fnv1a(piece, n, sum);
            mem.write(at, piece, n);
            at += n;
            left -= n;
        }
        if (fold32(sum) != want)
            throw TraceError(in.path(), chunkStart,
                             "memory chunk " + std::to_string(i) +
                                 ": checksum mismatch");
    }
    impl_->memDone = true;
}

bool
TraceReader::next(TraceRecord &out)
{
    IMPSIM_CHECK(impl_->memDone,
                 "readMemoryImage() must run before record iteration");
    BoundedReader &in = impl_->reader;
    if (impl_->recordsLeft == 0) {
        if (!impl_->tailChecked) {
            impl_->tailChecked = true;
            if (!in.atEnd())
                throw TraceError(in.path(), in.offset(),
                                 "trailing bytes after the last record");
        }
        return false;
    }
    lastRecordOffset_ = in.offset();
    std::uint8_t buf[kTraceRecordBytes];
    in.readExact(buf, sizeof(buf), "a record");
    out = decodeRecord(buf, impl_->nextRecordIndex, summary_.numCores,
                       in.path(), lastRecordOffset_);
    ++impl_->nextRecordIndex;
    --impl_->recordsLeft;
    return true;
}

// ---- Probe ------------------------------------------------------------

TraceSummary
probeTraceHeader(const std::string &path)
{
    BoundedReader in(openTraceSource(path));
    std::uint8_t h[kTraceHeaderBytes];
    in.readExact(h, sizeof(h), "the header");
    return decodeHeader(h, path);
}

// ---- Writing ----------------------------------------------------------

TraceWriteStats
writeTraceFile(const std::string &path, std::uint32_t numCores,
               const std::vector<TraceRecord> &records, const FuncMem *mem)
{
    IMPSIM_CHECK(numCores > 0 && numCores <= kTraceMaxCores,
                 "trace core count out of range");

    // Pages are materialised on write, so zero pages carry no
    // information a reader could miss (unwritten reads are zero
    // anyway); skipping them keeps shipped traces small.
    std::vector<std::pair<Addr, const std::uint8_t *>> chunks;
    if (mem) {
        mem->forEachPage([&](Addr base, const std::uint8_t *data) {
            for (std::uint32_t i = 0; i < FuncMem::kPageBytes; ++i) {
                if (data[i] != 0) {
                    chunks.emplace_back(base, data);
                    return;
                }
            }
        });
    }

    std::unique_ptr<ByteSink> sink = openTraceSink(path);
    TraceWriteStats stats;
    stats.recordCount = records.size();
    stats.memChunkCount = chunks.size();

    std::uint8_t header[kTraceHeaderBytes];
    encodeHeader(header, numCores, records.size(), chunks.size());
    sink->write(header, sizeof(header));
    stats.decodedBytes += sizeof(header);

    for (std::size_t i = 0; i < chunks.size(); ++i) {
        std::uint8_t h[kTraceChunkHeaderBytes];
        putU64(h, chunks[i].first);
        putU32(h + 8, FuncMem::kPageBytes);
        std::uint64_t sum = fnvMixU64(kFnvOffset, i);
        sum = fnv1a(h, 12, sum);
        sum = fnv1a(chunks[i].second, FuncMem::kPageBytes, sum);
        putU32(h + 12, fold32(sum));
        sink->write(h, sizeof(h));
        sink->write(chunks[i].second, FuncMem::kPageBytes);
        stats.decodedBytes += sizeof(h) + FuncMem::kPageBytes;
    }

    // Batch record encoding through the same bounded unit the reader
    // uses; one fwrite per record would dominate the encode cost.
    std::uint8_t buf[kStreamBytes];
    std::size_t used = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TraceRecord &r = records[i];
        IMPSIM_CHECK(r.core < numCores, "record core out of range");
        encodeRecord(buf + used, r, i);
        used += kTraceRecordBytes;
        if (used + kTraceRecordBytes > sizeof(buf)) {
            sink->write(buf, used);
            used = 0;
        }
    }
    if (used > 0)
        sink->write(buf, used);
    stats.decodedBytes += records.size() * kTraceRecordBytes;

    sink->finish();
    return stats;
}

std::vector<TraceRecord>
encodeTraceRecords(const std::vector<CoreTrace> &traces)
{
    std::vector<TraceRecord> records;
    std::size_t total = 0;
    for (const CoreTrace &t : traces)
        total += t.accesses.size() + (t.tailInstructions > 0 ? 1 : 0);
    records.reserve(total);

    for (std::size_t c = 0; c < traces.size(); ++c) {
        for (const MemAccess &a : traces[c].accesses) {
            TraceRecord r;
            r.addr = a.addr;
            r.pc = a.pc;
            r.gap = a.gap;
            r.dep = a.dep;
            r.core = static_cast<std::uint16_t>(c);
            r.kind = a.isSwPrefetch() ? TraceRecordKind::SwPrefetch
                     : a.isWrite()    ? TraceRecordKind::Store
                                      : TraceRecordKind::Load;
            r.size = a.size;
            r.flags = a.hasBarrier() ? kTraceFlagBarrierBefore : 0;
            r.type = a.type;
            records.push_back(r);
        }
        if (traces[c].tailInstructions > 0) {
            TraceRecord r;
            r.addr = traces[c].tailInstructions;
            r.core = static_cast<std::uint16_t>(c);
            r.kind = TraceRecordKind::Tail;
            records.push_back(r);
        }
    }
    return records;
}

TraceWriteStats
recordTrace(const std::string &path, const std::vector<CoreTrace> &traces,
            const FuncMem &mem)
{
    return writeTraceFile(path,
                          static_cast<std::uint32_t>(traces.size()),
                          encodeTraceRecords(traces), &mem);
}

} // namespace impsim
