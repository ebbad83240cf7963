/**
 * @file
 * Job-server client implementation.
 */
#include "server/client.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace impsim {
namespace server {

namespace {

/** One greeted connection; the fd closes with the object. */
struct ServerChannel
{
    int fd = -1;
    std::unique_ptr<LineReader> reader;

    ServerChannel() = default;
    ServerChannel(ServerChannel &&o) noexcept
        : fd(o.fd), reader(std::move(o.reader))
    {
        o.fd = -1;
    }
    ServerChannel &operator=(ServerChannel &&) = delete;
    ~ServerChannel()
    {
        if (fd >= 0)
            ::close(fd);
    }
    bool ok() const { return fd >= 0; }
};

/** Connects and consumes the IMPSIM greeting; diagnoses to @p err. */
ServerChannel
openChannel(const std::string &address, std::ostream &err)
{
    ServerChannel ch;
    std::string error;
    int fd = connectToServer(address, error);
    if (fd < 0) {
        err << error << "\n";
        return ch;
    }
    auto reader = std::make_unique<LineReader>(fd);
    std::string line;
    if (!reader->readLine(line)) {
        err << "server closed the connection before greeting\n";
        ::close(fd);
        return ch;
    }
    std::vector<std::string> greeting = splitTokens(line);
    if (greeting.size() != 2 || greeting[0] != "IMPSIM") {
        err << "not an impsim job server at " << address << "\n";
        ::close(fd);
        return ch;
    }
    ch.fd = fd;
    ch.reader = std::move(reader);
    return ch;
}

/** Parses number @p token of reply @p line; diagnoses a bad one. */
bool
replyNumber(const std::string &line, const std::string &token,
            std::uint64_t &out, std::ostream &err)
{
    if (parseNumber(token, out))
        return true;
    err << "protocol error: bad number '" << token << "' in reply '"
        << line << "'\n";
    return false;
}

} // namespace

int
connectToServer(const std::string &address, std::string &error)
{
    sockaddr_in in{};
    sockaddr_un un{};
    int family = AF_UNIX;
    const sockaddr *addr = reinterpret_cast<const sockaddr *>(&un);
    socklen_t len = sizeof(un);
    if (address.rfind("tcp:", 0) == 0) {
        std::string hostport = address.substr(4);
        std::size_t colon = hostport.rfind(':');
        if (colon == std::string::npos) {
            error = "tcp address needs tcp:HOST:PORT, got '" + address +
                    "'";
            return -1;
        }
        std::string host = hostport.substr(0, colon);
        if (host == "localhost")
            host = "127.0.0.1";
        std::uint64_t port = 0;
        if (!parseNumber(hostport.substr(colon + 1), port, 65535) ||
            port == 0 ||
            ::inet_pton(AF_INET, host.c_str(), &in.sin_addr) != 1) {
            error = "bad tcp address '" + address + "'";
            return -1;
        }
        family = in.sin_family = AF_INET;
        in.sin_port = htons(static_cast<std::uint16_t>(port));
        addr = reinterpret_cast<const sockaddr *>(&in);
        len = sizeof(in);
    } else if (address.size() >= sizeof(un.sun_path)) {
        error = "socket path too long: " + address;
        return -1;
    } else {
        un.sun_family = AF_UNIX;
        std::strncpy(un.sun_path, address.c_str(), sizeof(un.sun_path) - 1);
    }
    int fd = ::socket(family, SOCK_STREAM, 0);
    if (fd < 0 || ::connect(fd, addr, len) < 0) {
        error = "cannot connect to " + address + ": " +
                std::strerror(errno);
        if (fd >= 0)
            ::close(fd);
        return -1;
    }
    return fd;
}

int
submitAndWait(const std::string &address, const std::string &configPath,
              SubmitRequest req, std::ostream &out, std::ostream &err)
{
    std::ifstream in(configPath, std::ios::binary);
    if (!in) {
        // Matches ConfigFile::parseFile's diagnostic for the same
        // failure, so client and in-process error output agree.
        err << ConfigError(configPath, 0, 0, "cannot open config file")
                   .what()
            << "\n";
        return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    ServerChannel ch = openChannel(address, err);
    if (!ch.ok())
        return 1;

    req.origin = configPath;
    req.configBytes = text.size();

    if (!writeAll(ch.fd, formatSubmitLine(req) + "\n") ||
        !writeAll(ch.fd, text)) {
        err << "connection lost while submitting\n";
        return 1;
    }

    int code = 1;
    bool finished = false;
    std::uint64_t jobId = 0;
    std::string line;
    while (!finished && ch.reader->readLine(line)) {
        std::vector<std::string> tokens = splitTokens(line);
        if (tokens.empty())
            continue;
        const std::string &head = tokens[0];
        std::uint64_t n = 0;
        std::string payload;
        if (head == "QUEUED" && tokens.size() == 2) {
            if (!replyNumber(line, tokens[1], jobId, err))
                return 1;
        } else if (head == "ERROR" && tokens.size() == 2) {
            if (!replyNumber(line, tokens[1], n, err))
                return 1;
            if (ch.reader->readBytes(payload, n))
                err << payload;
            finished = true;
        } else if (head == "RESULT" && tokens.size() == 3) {
            if (!replyNumber(line, tokens[2], n, err))
                return 1;
            if (!ch.reader->readBytes(payload, n)) {
                err << "connection lost mid-result\n";
                finished = true;
                continue;
            }
            out << payload;
            code = 0;
        } else if (head == "DONE") {
            finished = true;
        } else if (head == "CANCELLED") {
            err << "job " << (jobId ? std::to_string(jobId) : "?")
                << " was cancelled\n";
            finished = true;
        }
        // Unknown lines (future protocol additions) are skipped.
    }
    if (!finished && code != 0)
        err << "server closed the connection mid-job\n";
    return code;
}

int
fetchResult(const std::string &address, const std::string &jobId,
            std::ostream &out, std::ostream &err)
{
    ServerChannel ch = openChannel(address, err);
    if (!ch.ok())
        return 1;
    if (!writeAll(ch.fd, "FETCH " + jobId + "\n")) {
        err << "connection lost while fetching\n";
        return 1;
    }
    std::string line;
    while (ch.reader->readLine(line)) {
        std::vector<std::string> tokens = splitTokens(line);
        if (tokens.empty())
            continue;
        std::uint64_t n = 0;
        std::string payload;
        if (tokens[0] == "RESULT" && tokens.size() == 3) {
            if (!replyNumber(line, tokens[2], n, err))
                return 1;
            if (!ch.reader->readBytes(payload, n)) {
                err << "connection lost mid-result\n";
                return 1;
            }
            out << payload;
            return 0; // don't wait for DONE: the payload is complete
        }
        if (tokens[0] == "ERROR" && tokens.size() == 2) {
            if (replyNumber(line, tokens[1], n, err) &&
                ch.reader->readBytes(payload, n))
                err << payload;
            return 1;
        }
        // Anything else (a stray push for another consumer of this
        // connection) cannot happen on a fresh FETCH-only channel;
        // skip defensively.
    }
    err << "server closed the connection mid-fetch\n";
    return 1;
}

int
listJobs(const std::string &address, std::ostream &out, std::ostream &err)
{
    ServerChannel ch = openChannel(address, err);
    if (!ch.ok())
        return 1;
    if (!writeAll(ch.fd, "LIST\n")) {
        err << "connection lost while listing\n";
        return 1;
    }
    std::string line;
    if (!ch.reader->readLine(line)) {
        err << "server closed the connection mid-list\n";
        return 1;
    }
    std::vector<std::string> tokens = splitTokens(line);
    if (tokens.size() != 2 || tokens[0] != "JOBS") {
        err << "unexpected reply: " << line << "\n";
        return 1;
    }
    std::uint64_t n = 0;
    if (!replyNumber(line, tokens[1], n, err))
        return 1;
    std::string payload;
    if (!ch.reader->readBytes(payload, n)) {
        err << "connection lost mid-list\n";
        return 1;
    }
    // Re-humanize the origin column (escaped on the wire so listing
    // lines stay tokenizable).
    std::istringstream lines(payload);
    while (std::getline(lines, line)) {
        std::size_t sp = line.rfind(' ');
        if (sp != std::string::npos)
            line = line.substr(0, sp + 1) +
                   unescapeToken(line.substr(sp + 1));
        out << line << "\n";
    }

    // The worker fleet rides along on the same listing. A pre-v4
    // server answers WORKERS with an ERROR frame; swallow it and skip
    // the section rather than failing a listing that already printed.
    if (!writeAll(ch.fd, "WORKERS\n"))
        return 0;
    if (!ch.reader->readLine(line))
        return 0;
    tokens = splitTokens(line);
    if (tokens.size() != 2 || tokens[0] != "FLEET") {
        if (tokens.size() == 2 && tokens[0] == "ERROR") {
            if (!replyNumber(line, tokens[1], n, err))
                return 1;
            ch.reader->readBytes(payload, n);
        }
        return 0;
    }
    if (!replyNumber(line, tokens[1], n, err))
        return 1;
    if (!ch.reader->readBytes(payload, n)) {
        err << "connection lost mid-list\n";
        return 1;
    }
    if (payload.empty()) {
        out << "workers: none\n";
        return 0;
    }
    out << "workers:\n";
    std::istringstream fleet(payload);
    while (std::getline(fleet, line)) {
        FleetEntry e;
        std::string perr;
        if (parseFleetLine(line, e, perr)) {
            out << "  " << e.workerId << " active=" << e.activeLeases
                << "\n";
        }
    }
    return 0;
}

} // namespace server
} // namespace impsim
