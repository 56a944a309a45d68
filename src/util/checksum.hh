/**
 * @file
 * CRC32 payload checksums for serialized artifacts (pinballs, region
 * pinballs, run-journal records). The polynomial is the standard
 * reflected IEEE 802.3 one (0xEDB88320), so values match zlib's
 * crc32() and `python3 -c "import zlib; print(zlib.crc32(b'...'))"` —
 * artifacts stay verifiable with stock tools. The implementation is
 * zlib's crc32_z.
 */

#ifndef LOOPPOINT_UTIL_CHECKSUM_HH
#define LOOPPOINT_UTIL_CHECKSUM_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace looppoint {

/** CRC32 (IEEE, reflected) of `len` bytes; `seed` chains calls. */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

/** Convenience overload for string payloads. */
inline uint32_t
crc32(std::string_view payload, uint32_t seed = 0)
{
    return crc32(payload.data(), payload.size(), seed);
}

/** Render a CRC as the canonical 8-digit lowercase hex used on disk. */
std::string crcHex(uint32_t crc);

/**
 * Parse an 8-digit hex CRC written by crcHex(). Returns false (and
 * leaves `out` untouched) on malformed input.
 */
bool parseCrcHex(std::string_view text, uint32_t &out);

/**
 * Line-trailer convention shared by the run journal and the artifact
 * store manifest: every line ends in ` crc=XXXXXXXX` covering the
 * bytes before it.
 */
std::string withCrcLine(const std::string &line);

/**
 * Strip and verify a line's ` crc=XXXXXXXX` trailer. Returns the
 * payload (everything before the trailer), or nullopt when the trailer
 * is missing, malformed, or does not match the payload bytes.
 */
std::optional<std::string> checkCrcLine(const std::string &line);

} // namespace looppoint

#endif // LOOPPOINT_UTIL_CHECKSUM_HH
