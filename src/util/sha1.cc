#include "util/sha1.hh"

#include <cstring>

#include "util/logging.hh"

namespace looppoint {

Sha1::Sha1(sha1_blocks::BlockFn blocks) : compress(blocks)
{
    h[0] = 0x67452301u;
    h[1] = 0xEFCDAB89u;
    h[2] = 0x98BADCFEu;
    h[3] = 0x10325476u;
    h[4] = 0xC3D2E1F0u;
}

void
Sha1::update(const void *data, size_t len)
{
    LP_ASSERT(!finalized);
    const uint8_t *p = static_cast<const uint8_t *>(data);
    totalBytes += len;
    while (len > 0) {
        if (bufLen == 0 && len >= 64) {
            // Whole blocks straight from the input, in one call so the
            // state stays in registers across them.
            const size_t blocks = len / 64;
            compress(h, p, blocks);
            p += blocks * 64;
            len -= blocks * 64;
            continue;
        }
        size_t take = 64 - bufLen;
        if (take > len)
            take = len;
        std::memcpy(buf + bufLen, p, take);
        bufLen += take;
        p += take;
        len -= take;
        if (bufLen == 64) {
            compress(h, buf, 1);
            bufLen = 0;
        }
    }
}

std::string
Sha1::hex()
{
    LP_ASSERT(!finalized);
    const uint64_t total_bits = totalBytes * 8;

    // Pad: 0x80, zeros to 56 mod 64, then the bit length big-endian.
    buf[bufLen++] = 0x80;
    if (bufLen > 56) {
        std::memset(buf + bufLen, 0, 64 - bufLen);
        compress(h, buf, 1);
        bufLen = 0;
    }
    std::memset(buf + bufLen, 0, 56 - bufLen);
    for (int i = 0; i < 8; ++i)
        buf[56 + i] = static_cast<uint8_t>(total_bits >> (56 - 8 * i));
    compress(h, buf, 1);
    finalized = true;

    static const char *digits = "0123456789abcdef";
    std::string out;
    out.reserve(40);
    for (uint32_t word : h) {
        for (int shift = 28; shift >= 0; shift -= 4)
            out.push_back(digits[(word >> shift) & 0xF]);
    }
    return out;
}

std::string
sha1Hex(std::string_view payload)
{
    Sha1 s;
    s.update(payload);
    return s.hex();
}

} // namespace looppoint
