#include "util/checksum.hh"

#include <zlib.h>

namespace looppoint {

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    // zlib's crc32_z has the same pre/post inversion, so `seed`
    // chains exactly like the historical byte-table loop did. It
    // returns 0 for a null buffer, which a zero-length call may pass.
    if (len == 0)
        return seed;
    return static_cast<uint32_t>(
        ::crc32_z(seed, static_cast<const Bytef *>(data), len));
}

std::string
crcHex(uint32_t crc)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(8, '0');
    for (int i = 7; i >= 0; --i) {
        out[i] = digits[crc & 0xFu];
        crc >>= 4;
    }
    return out;
}

std::string
withCrcLine(const std::string &line)
{
    return line + " crc=" + crcHex(crc32(line));
}

std::optional<std::string>
checkCrcLine(const std::string &line)
{
    static const std::string marker = " crc=";
    auto pos = line.rfind(marker);
    if (pos == std::string::npos)
        return std::nullopt;
    uint32_t stored = 0;
    if (!parseCrcHex(std::string_view(line).substr(pos + marker.size()),
                     stored))
        return std::nullopt;
    std::string payload = line.substr(0, pos);
    if (crc32(payload) != stored)
        return std::nullopt;
    return payload;
}

bool
parseCrcHex(std::string_view text, uint32_t &out)
{
    if (text.size() != 8)
        return false;
    uint32_t value = 0;
    for (char ch : text) {
        uint32_t nibble;
        if (ch >= '0' && ch <= '9')
            nibble = static_cast<uint32_t>(ch - '0');
        else if (ch >= 'a' && ch <= 'f')
            nibble = static_cast<uint32_t>(ch - 'a' + 10);
        else
            return false;
        value = (value << 4) | nibble;
    }
    out = value;
    return true;
}

} // namespace looppoint
