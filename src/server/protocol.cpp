/**
 * @file
 * Wire-protocol framing and blocking socket I/O.
 */
#include "server/protocol.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace impsim {
namespace server {

namespace {

bool
needsEscape(unsigned char c)
{
    return c == '%' || c == ' ' || c < 0x20 || c == 0x7f;
}

int
hexVal(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

bool
parseNumber(const std::string &s, std::uint64_t &out, std::uint64_t max)
{
    if (s.empty() || s.size() > 20 ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        auto d = static_cast<std::uint64_t>(c - '0');
        // Full uint64 range must parse (a --seed accepted by the CLI
        // has to survive the --submit round trip), so check overflow
        // instead of capping the digit count at 19.
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    if (v > max)
        return false;
    out = v;
    return true;
}

std::string
escapeToken(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        if (needsEscape(c)) {
            char buf[4];
            std::snprintf(buf, sizeof(buf), "%%%02X", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out;
}

std::string
unescapeToken(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '%' && i + 2 < s.size()) {
            int hi = hexVal(s[i + 1]), lo = hexVal(s[i + 2]);
            if (hi >= 0 && lo >= 0) {
                out += static_cast<char>(hi * 16 + lo);
                i += 2;
                continue;
            }
        }
        out += s[i];
    }
    return out;
}

std::vector<std::string>
splitTokens(const std::string &line)
{
    std::vector<std::string> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
        std::size_t j = line.find(' ', i);
        if (j == std::string::npos)
            j = line.size();
        if (j > i)
            tokens.push_back(line.substr(i, j - i));
        i = j + 1;
    }
    return tokens;
}

bool
parseSubmitLine(const std::vector<std::string> &tokens, SubmitRequest &out,
                std::string &error)
{
    if (tokens.size() < 2) {
        error = "SUBMIT needs a byte count";
        return false;
    }
    // Cap submissions at 4 MiB: far beyond any real experiment file,
    // small enough that a garbage count cannot balloon the server.
    std::uint64_t nbytes = 0;
    if (!parseNumber(tokens[1], nbytes, 4u << 20)) {
        error = "SUBMIT byte count '" + tokens[1] +
                "' is not a number in [0, 4194304]";
        return false;
    }
    out.configBytes = static_cast<std::size_t>(nbytes);
    return parseSubmitOptions(tokens, 2, out, error);
}

bool
parseSubmitOptions(const std::vector<std::string> &tokens,
                   std::size_t firstOption, SubmitRequest &out,
                   std::string &error)
{
    for (std::size_t i = firstOption; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        std::size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0) {
            error = "SUBMIT option '" + tok + "' is not key=value";
            return false;
        }
        std::string key = tok.substr(0, eq);
        std::string value = unescapeToken(tok.substr(eq + 1));
        std::uint64_t num = 0;

        if (key == "origin") {
            out.origin = value;
        } else if (key == "csv") {
            if (value != "0" && value != "1" && value != "false" &&
                value != "true") {
                error = "SUBMIT csv '" + value +
                        "' is not 0, 1, false or true";
                return false;
            }
            out.csv = value == "1" || value == "true";
        } else if (key == "priority") {
            if (!parseNumber(value, num, 100) || num < 1) {
                error = "SUBMIT priority '" + value +
                        "' is not a number in [1, 100]";
                return false;
            }
            out.priority = static_cast<int>(num);
        } else if (std::string why = addOverride(out.cli, key, value);
                   !why.empty()) {
            error = "SUBMIT option '" + key + "': " + why;
            return false;
        }
    }
    return true;
}

std::string
formatSubmitLine(const SubmitRequest &req)
{
    return "SUBMIT " + std::to_string(req.configBytes) +
           formatSubmitOptions(req);
}

std::string
formatSubmitOptions(const SubmitRequest &req)
{
    std::string line;
    line += " origin=" + escapeToken(req.origin);
    if (req.csv)
        line += " csv=1";
    if (req.priority != 1)
        line += " priority=" + std::to_string(req.priority);
    // Names never need escaping, so escaping the whole "name=value"
    // escapes just the value.
    for (const std::string &o : overrideTexts(req.cli))
        line += " " + escapeToken(o);
    return line;
}

bool
parseLeaseLine(const std::vector<std::string> &tokens, LeaseRequest &out,
               std::string &error)
{
    if (tokens.size() < 5) {
        error = "LEASE needs <leaseId> <first> <count> <nbytes>";
        return false;
    }
    std::uint64_t lease = 0, first = 0, count = 0, nbytes = 0;
    if (!parseNumber(tokens[1], lease)) {
        error = "LEASE id '" + tokens[1] + "' is not a number";
        return false;
    }
    if (!parseNumber(tokens[2], first) || !parseNumber(tokens[3], count)) {
        error = "LEASE run range '" + tokens[2] + " " + tokens[3] +
                "' is not numeric";
        return false;
    }
    // A zero-run lease is never produced; reject it so a worker loop
    // cannot spin on an empty sub-batch.
    if (count == 0 || first > UINT64_MAX - count) {
        error = "LEASE run range [" + tokens[2] + ", " + tokens[2] + "+" +
                tokens[3] + ") is empty or overflows";
        return false;
    }
    if (!parseNumber(tokens[4], nbytes, 4u << 20)) {
        error = "LEASE byte count '" + tokens[4] +
                "' is not a number in [0, 4194304]";
        return false;
    }
    out.leaseId = lease;
    out.firstRun = static_cast<std::size_t>(first);
    out.runCount = static_cast<std::size_t>(count);
    out.submit.configBytes = static_cast<std::size_t>(nbytes);
    return parseSubmitOptions(tokens, 5, out.submit, error);
}

std::string
formatLeaseLine(const LeaseRequest &req)
{
    return "LEASE " + std::to_string(req.leaseId) + " " +
           std::to_string(req.firstRun) + " " +
           std::to_string(req.runCount) + " " +
           std::to_string(req.submit.configBytes) +
           formatSubmitOptions(req.submit);
}

std::string
formatFleetLine(const FleetEntry &e)
{
    return std::to_string(e.workerId) + " " +
           std::to_string(e.activeLeases);
}

bool
parseFleetLine(const std::string &line, FleetEntry &out,
               std::string &error)
{
    std::vector<std::string> tokens = splitTokens(line);
    if (tokens.size() != 2) {
        error = "FLEET line needs <workerId> <activeLeases>";
        return false;
    }
    std::uint64_t id = 0, leases = 0;
    if (!parseNumber(tokens[0], id)) {
        error = "FLEET worker id '" + tokens[0] + "' is not a number";
        return false;
    }
    if (!parseNumber(tokens[1], leases)) {
        error = "FLEET lease count '" + tokens[1] + "' is not a number";
        return false;
    }
    out.workerId = id;
    out.activeLeases = static_cast<std::size_t>(leases);
    return true;
}

bool
writeAll(int fd, const void *buf, std::size_t n)
{
    const char *p = static_cast<const char *>(buf);
    while (n > 0) {
        ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

bool
writeAll(int fd, const std::string &s)
{
    return writeAll(fd, s.data(), s.size());
}

bool
LineReader::fill()
{
    if (pos_ > 0) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    char chunk[4096];
    for (;;) {
        ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        buf_.append(chunk, static_cast<std::size_t>(r));
        return true;
    }
}

bool
LineReader::readLine(std::string &line)
{
    // Frame lines are short (commands + escaped tokens); a peer
    // streaming unbounded bytes with no newline must not grow the
    // buffer until the process OOMs — this is untrusted input.
    constexpr std::size_t kMaxLine = 64 * 1024;
    for (;;) {
        std::size_t nl = buf_.find('\n', pos_);
        if (nl != std::string::npos) {
            if (nl - pos_ > kMaxLine)
                return false;
            line.assign(buf_, pos_, nl - pos_);
            pos_ = nl + 1;
            return true;
        }
        if (buf_.size() - pos_ > kMaxLine)
            return false;
        if (!fill())
            return false;
    }
}

bool
LineReader::readBytes(std::string &out, std::size_t n)
{
    while (buf_.size() - pos_ < n) {
        if (!fill())
            return false;
    }
    out.assign(buf_, pos_, n);
    pos_ += n;
    return true;
}

} // namespace server
} // namespace impsim
