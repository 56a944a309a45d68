/**
 * @file
 * CrcLog: the one append-only text log behind the campaign journal
 * and the artifact-store manifest.
 *
 * A file is a fixed header (a magic line, optionally a key line), then
 * one record per line; every line ends in the ` crc=XXXXXXXX` trailer
 * of util/checksum.hh. Clients own the record codec and their load
 * policy; the log owns the bytes:
 *
 *  - open() checks the header and hands each record of the valid
 *    prefix to the client's decoder. The first line that fails its CRC
 *    or the decoder ends the prefix: it and every later line are
 *    dropped and counted.
 *  - append() writes one line at the end of the file (flushed, no
 *    fsync). Its first call after open() truncates a torn tail back to
 *    the valid prefix, so no record lands behind a bad line. A file
 *    open() did not accept (missing, foreign, another key, or never
 *    opened) is replaced by header + record instead.
 *  - rewrite() replaces the file atomically: compaction.
 *
 * Not thread-safe: clients serialize calls.
 */

#ifndef LOOPPOINT_UTIL_CRC_LOG_HH
#define LOOPPOINT_UTIL_CRC_LOG_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/load_result.hh"

namespace looppoint {

/** Replace `path` with `contents` via `<path>.tmp` + rename. */
bool writeFileAtomic(const std::string &path, const std::string &contents);

/** See file comment. */
class CrcLog
{
  public:
    /** Decodes one record payload; false ends the valid prefix. */
    using Decoder = std::function<bool(const std::string &payload)>;

    /**
     * `header`: the payloads every file starts with, magic first.
     * `what` names the log in errors ("store manifest").
     */
    CrcLog(std::string path, std::vector<std::string> header,
           std::string what);

    /** Read the file. Missing is an Io error iff `must_exist`, else an
     * empty log; a bad header decodes nothing; a torn tail is no error. */
    std::optional<LoadError> open(bool must_exist, const Decoder &decode);
    /** Append one record line; false (and counted) when not written. */
    bool append(const std::string &payload);
    /** Atomically replace the file with header + `payloads`. */
    bool rewrite(const std::vector<std::string> &payloads);

    const std::string &path() const { return filePath; }
    /** Torn-tail lines the last open() dropped. */
    size_t dropped() const { return nDropped; }
    /** Appends that could not be written. */
    size_t failedWrites() const { return nFailed; }

  private:
    std::string filePath;
    std::vector<std::string> header;
    std::string what;
    /** Bytes of the accepted header + records; nullopt until open() or
     * a write accepts the file, and then the next append replaces it. */
    std::optional<uint64_t> validBytes;
    /** The file runs past validBytes (a torn tail to cut). */
    bool tornTail = false;
    /** The last accepted line lost its newline. */
    bool needsNewline = false;
    size_t nDropped = 0, nFailed = 0;
};

} // namespace looppoint

#endif // LOOPPOINT_UTIL_CRC_LOG_HH
