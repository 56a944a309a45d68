/**
 * @file
 * The SHA-1 block-compression functions behind util/sha1.hh. Sha1
 * picks one at construction: the SHA-NI one when the CPU has the SHA
 * extensions, the portable one otherwise. Both produce identical
 * digests; this header exists so the tests can pin each of them
 * against the same vectors on a machine that has both.
 */

#ifndef LOOPPOINT_UTIL_SHA1_BLOCKS_HH
#define LOOPPOINT_UTIL_SHA1_BLOCKS_HH

#include <cstddef>
#include <cstdint>

namespace looppoint::sha1_blocks {

/** Compress `blocks` consecutive 64-byte blocks into `state`. */
using BlockFn = void (*)(uint32_t state[5], const uint8_t *data,
                         size_t blocks);

/** FIPS 180-1 reference rounds; runs everywhere. */
void portable(uint32_t state[5], const uint8_t *data, size_t blocks);

/** SHA-NI rounds (x86 sha1rnds4/sha1nexte/sha1msg1/sha1msg2). Only
 * callable when shaNiAvailable(). */
void shaNi(uint32_t state[5], const uint8_t *data, size_t blocks);

/** The CPU has the SHA extensions (and this build targets x86-64). */
bool shaNiAvailable();

/** shaNi when available, else portable. */
BlockFn best();

} // namespace looppoint::sha1_blocks

#endif // LOOPPOINT_UTIL_SHA1_BLOCKS_HH
