#include "util/crc_log.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.hh"
#include "util/checksum.hh"

namespace looppoint {

bool
writeFileAtomic(const std::string &path, const std::string &contents)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!(os << contents).flush())
            return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) == 0)
        return true;
    std::remove(tmp.c_str());
    return false;
}

CrcLog::CrcLog(std::string path, std::vector<std::string> header_,
               std::string what_, std::string metrics_)
    : filePath(std::move(path)), header(std::move(header_)),
      what(std::move(what_)), metrics(std::move(metrics_))
{
}

void
CrcLog::count(const char *name, uint64_t n) const
{
    if (!metrics.empty())
        MetricsRegistry::global().counter(metrics + "." + name).add(n);
}

std::optional<LoadError>
CrcLog::open(bool must_exist, const Decoder &decode)
{
    validBytes.reset();
    tornTail = needsNewline = false;
    nDropped = 0;
    std::ifstream is(filePath, std::ios::binary);
    if (!is) {
        if (!must_exist)
            return std::nullopt; // a fresh log
        return LoadError{LoadErrorKind::Io,
                         "cannot open " + what + " '" + filePath + "'"};
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string bytes = buf.str();

    size_t pos = 0;
    std::string line;
    auto next = [&] {
        if (pos >= bytes.size())
            return false;
        const size_t end = std::min(bytes.find('\n', pos), bytes.size());
        line.assign(bytes, pos, end - pos);
        pos = std::min(end + 1, bytes.size());
        return true;
    };

    for (size_t i = 0; i < header.size(); ++i) {
        const bool have = next();
        const auto payload = have ? checkCrcLine(line) : std::nullopt;
        if (payload == header[i])
            continue;
        if (!have)
            return LoadError{LoadErrorKind::Truncated,
                             what + (i ? " has no key line" : " is empty")};
        if (i == 0)
            return LoadError{LoadErrorKind::BadMagic,
                             "'" + filePath + "' is not a looppoint " +
                                 what};
        if (!payload)
            return LoadError{LoadErrorKind::BadChecksum,
                             what + " key line fails its checksum"};
        return LoadError{LoadErrorKind::Validation,
                         what + " was written by a different run (key "
                                "mismatch): it has '" + *payload +
                             "', this run is '" + header[i] + "'"};
    }

    size_t valid = pos, records = 0;
    while (next()) {
        auto payload = checkCrcLine(line);
        if (!payload || !decode(*payload)) {
            // Torn tail: this line and every later one (written
            // later) are unusable. Keep the valid prefix.
            ++nDropped;
            while (next())
                ++nDropped;
            break;
        }
        ++records;
        valid = pos;
    }
    validBytes = valid;
    tornTail = valid < bytes.size();
    needsNewline = valid > 0 && bytes[valid - 1] != '\n';
    count("loaded_records", records);
    if (nDropped)
        count("dropped_records", nDropped);
    return std::nullopt;
}

bool
CrcLog::append(const std::string &payload)
{
    bool ok = false;
    if (!validBytes) {
        ok = rewrite({payload});
    } else {
        const std::string text = (needsNewline ? "\n" : "") +
                                 withCrcLine(payload) + '\n';
        const int fd =
            !tornTail || ::truncate(filePath.c_str(),
                                    static_cast<off_t>(*validBytes)) == 0
                ? ::open(filePath.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC)
                : -1;
        ok = fd >= 0 && ::write(fd, text.data(), text.size()) ==
                            static_cast<ssize_t>(text.size());
        if (fd >= 0)
            ::close(fd);
        // A failed write may leave part of the line: cut it next time.
        tornTail = !ok;
        if (ok) {
            *validBytes += text.size();
            needsNewline = false;
        }
    }
    nFailed += !ok;
    count(ok ? "appends" : "failed_writes", 1);
    return ok;
}

bool
CrcLog::rewrite(const std::vector<std::string> &payloads)
{
    std::string text;
    for (const auto &h : header)
        text += withCrcLine(h) + '\n';
    for (const auto &p : payloads)
        text += withCrcLine(p) + '\n';
    if (!writeFileAtomic(filePath, text))
        return false;
    validBytes = text.size();
    tornTail = needsNewline = false;
    return true;
}

} // namespace looppoint
