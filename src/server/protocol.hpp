/**
 * @file
 * The impsim job-server wire protocol: line-oriented framing over a
 * byte stream (Unix-domain or TCP socket).
 *
 * Every frame is one `\n`-terminated ASCII line of space-separated
 * tokens, optionally followed by a byte-counted payload announced on
 * the line. Tokens never contain spaces; values that might (file
 * names, diagnostics) are percent-escaped with escapeToken(). The
 * full protocol reference with examples is docs/job_server.md.
 *
 * Client -> server:
 *   SUBMIT <nbytes> [key=value ...]   then <nbytes> of config text
 *   STATUS <id>
 *   CANCEL <id>
 *   FETCH <id>                        re-read a stored finished result
 *   LIST                              enumerate known jobs
 *   WORKERS                           enumerate the worker fleet
 *
 * Server -> client:
 *   IMPSIM <version>                  greeting on connect
 *   QUEUED <id>                       SUBMIT accepted
 *   ERROR <nbytes>                    then <nbytes> of diagnostics
 *   STATUS <id> <state> <done>/<total>
 *   CANCELLING <id>                   CANCEL accepted
 *   RESULT <id> <nbytes>              then <nbytes> of report/CSV
 *   DONE <id>                         after a RESULT payload
 *   CANCELLED <id>                    job ended without a result
 *   JOBS <nbytes>                     then <nbytes> of job listing,
 *                                     one "<id> <state> <done>/<total>
 *                                     <bytes> <origin>" line per job
 *   FLEET <nbytes>                    then <nbytes> of fleet listing,
 *                                     one "<workerId> <activeLeases>"
 *                                     line per registered worker
 *
 * Worker mode (the distributed sweep fabric, docs/job_server.md): a
 * connection that registers as a worker leaves the client command set
 * and speaks only these frames from then on.
 *
 * Worker -> coordinator:
 *   WORKER <version>                  register as a remote worker;
 *                                     it holds one lease at a time
 *   ROW <leaseId> <run> <nbytes>      then <nbytes> of one run's output
 *   LEASEDONE <leaseId>               sub-batch processing ended
 *   LEASEFAIL <leaseId> <nbytes>      then <nbytes> of diagnostics;
 *                                     the worker could not run the
 *                                     lease at all (version skew)
 *
 * Coordinator -> worker:
 *   REGISTERED <workerId>             WORKER accepted
 *   LEASE <leaseId> <first> <count> <nbytes> [key=value ...]
 *                                     then <nbytes> of config text:
 *                                     run runs [first, first+count) of
 *                                     the experiment the payload plus
 *                                     the SUBMIT-style options bind to
 *   REVOKE <leaseId>                  stop working on a lease (the job
 *                                     was cancelled)
 */
#ifndef IMPSIM_SERVER_PROTOCOL_HPP
#define IMPSIM_SERVER_PROTOCOL_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config_file.hpp"

namespace impsim {
namespace server {

/** Protocol version announced in the greeting line (6: a worker
 *  holds one lease at a time; the WORKER slots= token and the FLEET
 *  slot column are gone). 5: overrides travel as generic name=value
 *  tokens named like [sweep] axes, and the ooo= token is gone —
 *  --ooo is system.core_model=ooo. 4 added WORKERS/FLEET fleet
 *  enumeration. 3 added worker mode —
 *  WORKER/REGISTERED registration, LEASE/ROW/LEASEDONE/LEASEFAIL/
 *  REVOKE sub-batch frames, `gone` diagnostics for evicted results.
 *  2 added FETCH/LIST, the priority= submit token, and jobs surviving
 *  their submitter's disconnect. */
inline constexpr int kProtocolVersion = 6;

/**
 * Percent-escapes @p s so it is a single space-free token: '%', ' ',
 * and control bytes (<0x20, 0x7f) become "%XX".
 */
std::string escapeToken(const std::string &s);

/** Reverses escapeToken(); malformed escapes are kept literally. */
std::string unescapeToken(const std::string &s);

/** Splits a frame line at single spaces; no empty tokens kept. */
std::vector<std::string> splitTokens(const std::string &line);

/**
 * Parses a non-negative decimal token into @p out — digits only, no
 * signs or whitespace, overflow-checked, capped at @p max. The one
 * validator for every wire-side number (byte counts, job ids,
 * manifest fields). @return false on anything else.
 */
bool parseNumber(const std::string &s, std::uint64_t &out,
                 std::uint64_t max = UINT64_MAX);

/**
 * A parsed SUBMIT request line. The config text itself travels as
 * the byte-counted payload after the line; everything else — where
 * the text came from and which CLI-style overrides to apply — rides
 * on the line as key=value tokens so a submitted job binds exactly
 * like `impsim_cli --config` with the same flags.
 */
struct SubmitRequest
{
    /** Payload length in bytes (the raw config text). */
    std::size_t configBytes = 0;
    /** Name used in diagnostics, e.g. the client-side file path. */
    std::string origin = "<submit>";
    /** Force CSV output for single-run configs (the CLI's --csv). */
    bool csv = false;
    /**
     * Scheduling priority in [1, 100]: orders the queue and weights
     * the running job's worker-pool share (docs/job_server.md).
     */
    int priority = 1;
    /** Flag overrides, identical semantics to the CLI's. */
    CliOverrides cli;
};

/**
 * Parses the tokens of a "SUBMIT ..." line (tokens[0] == "SUBMIT").
 * Recognised keys: origin, csv (0, 1, false or true), priority, and
 * the CLI overrides (pt, system.core_model, ...), read by addOverride().
 * @return false and sets @p error on any malformed token.
 */
bool parseSubmitLine(const std::vector<std::string> &tokens,
                     SubmitRequest &out, std::string &error);

/**
 * Parses only the key=value option tokens of a SUBMIT-shaped line,
 * starting at tokens[firstOption]. SUBMIT and LEASE lines carry the
 * same option set, so both parsers share this one interpreter.
 * @return false and sets @p error on any malformed token.
 */
bool parseSubmitOptions(const std::vector<std::string> &tokens,
                        std::size_t firstOption, SubmitRequest &out,
                        std::string &error);

/**
 * Serializes @p req's options as " key=value ..." tokens (leading
 * space, empty only if nothing is set) — the shared tail of SUBMIT
 * and LEASE lines.
 */
std::string formatSubmitOptions(const SubmitRequest &req);

/** Serializes @p req back into a SUBMIT line (no trailing newline). */
std::string formatSubmitLine(const SubmitRequest &req);

/**
 * One leased sub-batch of an experiment: run runs
 * [firstRun, firstRun+runCount) of the experiment that
 * `submit.configBytes` bytes of config text (the byte-counted payload
 * after the LEASE line) bind to under `submit`'s overrides — the same
 * binder as SUBMIT, so coordinator and worker expand the identical
 * run list and a run index means the same simulation on both ends.
 */
struct LeaseRequest
{
    std::uint64_t leaseId = 0;
    std::size_t firstRun = 0;
    std::size_t runCount = 0;
    /** Origin/csv/overrides plus the config payload byte count. */
    SubmitRequest submit;
};

/**
 * Parses the tokens of a "LEASE ..." line (tokens[0] == "LEASE").
 * @return false and sets @p error on any malformed token.
 */
bool parseLeaseLine(const std::vector<std::string> &tokens,
                    LeaseRequest &out, std::string &error);

/** Serializes @p req into a LEASE line (no trailing newline). */
std::string formatLeaseLine(const LeaseRequest &req);

/** One registered worker in a FLEET payload line. */
struct FleetEntry
{
    std::uint64_t workerId = 0;
    std::size_t activeLeases = 0; ///< Leases it holds now: 0 or 1.
};

/** Serializes @p e as one FLEET payload line (no trailing newline). */
std::string formatFleetLine(const FleetEntry &e);

/**
 * Parses one FLEET payload line ("<workerId> <activeLeases>").
 * @return false and sets @p error on any malformed token.
 */
bool parseFleetLine(const std::string &line, FleetEntry &out,
                    std::string &error);

// ---- Blocking socket I/O helpers ----------------------------------

/**
 * Writes all @p n bytes to @p fd (send with MSG_NOSIGNAL, retrying
 * short writes and EINTR). @return false on any error, e.g. the peer
 * hung up.
 */
bool writeAll(int fd, const void *buf, std::size_t n);

/** writeAll() for a string. */
bool writeAll(int fd, const std::string &s);

/**
 * Buffered reader for one socket: lines and byte-counted payloads
 * off the same stream.
 */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    /**
     * Reads up to and including the next '\n'; the newline is
     * stripped from @p line. @return false on EOF/error with no
     * (partial) line.
     */
    bool readLine(std::string &line);

    /** Reads exactly @p n payload bytes. @return false on EOF/error. */
    bool readBytes(std::string &out, std::size_t n);

  private:
    bool fill();

    int fd_;
    std::string buf_;
    std::size_t pos_ = 0;
};

} // namespace server
} // namespace impsim

#endif // IMPSIM_SERVER_PROTOCOL_HPP
