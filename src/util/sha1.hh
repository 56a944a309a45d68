/**
 * @file
 * SHA-1 content hashing for the artifact store. CRC32 (util/checksum)
 * stays the per-artifact integrity check; SHA-1 is the *addressing*
 * hash — 160 bits so unrelated artifacts cannot collide into the same
 * object file at any realistic store size. Values match
 * `python3 -c "import hashlib; print(hashlib.sha1(b'...').hexdigest())"`
 * so stores remain auditable with stock tools.
 */

#ifndef LOOPPOINT_UTIL_SHA1_HH
#define LOOPPOINT_UTIL_SHA1_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/sha1_blocks.hh"

namespace looppoint {

/**
 * Incremental SHA-1 (FIPS 180-1). Block compression uses the x86 SHA
 * extensions when the CPU has them and portable rounds otherwise
 * (util/sha1_blocks.hh); the digests are identical either way.
 */
class Sha1
{
  public:
    Sha1() : Sha1(sha1_blocks::best()) {}
    /** Hash with a specific block function (tests pin each one). */
    explicit Sha1(sha1_blocks::BlockFn blocks);

    void update(const void *data, size_t len);
    void
    update(std::string_view s)
    {
        update(s.data(), s.size());
    }

    /** Finalize and return the 40-char lowercase hex digest. */
    std::string hex();

  private:
    sha1_blocks::BlockFn compress;
    uint32_t h[5];
    uint64_t totalBytes = 0;
    uint8_t buf[64];
    size_t bufLen = 0;
    bool finalized = false;
};

/** One-shot digest of a payload. */
std::string sha1Hex(std::string_view payload);

} // namespace looppoint

#endif // LOOPPOINT_UTIL_SHA1_HH
