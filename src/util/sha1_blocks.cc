#include "util/sha1_blocks.hh"

#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace looppoint::sha1_blocks {

namespace {

inline uint32_t
rotl(uint32_t v, unsigned bits)
{
    return (v << bits) | (v >> (32 - bits));
}

} // namespace

void
portable(uint32_t h[5], const uint8_t *data, size_t blocks)
{
    for (; blocks > 0; --blocks, data += 64) {
        uint32_t w[80];
        for (int i = 0; i < 16; ++i) {
            w[i] = (static_cast<uint32_t>(data[i * 4]) << 24) |
                   (static_cast<uint32_t>(data[i * 4 + 1]) << 16) |
                   (static_cast<uint32_t>(data[i * 4 + 2]) << 8) |
                   static_cast<uint32_t>(data[i * 4 + 3]);
        }
        for (int i = 16; i < 80; ++i)
            w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);

        uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
        for (int i = 0; i < 80; ++i) {
            uint32_t f, k;
            if (i < 20) {
                f = (b & c) | (~b & d);
                k = 0x5A827999u;
            } else if (i < 40) {
                f = b ^ c ^ d;
                k = 0x6ED9EBA1u;
            } else if (i < 60) {
                f = (b & c) | (b & d) | (c & d);
                k = 0x8F1BBCDCu;
            } else {
                f = b ^ c ^ d;
                k = 0xCA62C1D6u;
            }
            uint32_t tmp = rotl(a, 5) + f + e + k + w[i];
            e = d;
            d = c;
            c = rotl(b, 30);
            b = a;
            a = tmp;
        }
        h[0] += a;
        h[1] += b;
        h[2] += c;
        h[3] += d;
        h[4] += e;
    }
}

#if defined(__x86_64__)

namespace {

#define LP_SHA_TARGET __attribute__((target("sha,ssse3,sse4.1")))

/**
 * Four rounds (round group G of 20). The message schedule lives in a
 * ring of four registers: group G consumes msg[G % 4], and the same
 * word feeds the sha1msg1/xor/sha1msg2 steps that build the schedule
 * four groups ahead. The two E registers alternate between "input of
 * this group" and "saved ABCD for the next group's sha1nexte".
 */
template <int G>
LP_SHA_TARGET __attribute__((always_inline)) inline void
roundGroup(__m128i &abcd, __m128i (&e)[2], __m128i (&msg)[4],
           const uint8_t *data, __m128i byte_swap)
{
    __m128i &w = msg[G % 4];
    if constexpr (G < 4)
        w = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(data + 16 * G)),
            byte_swap);
    __m128i &cur = e[G % 2];
    if constexpr (G == 0)
        cur = _mm_add_epi32(cur, w);
    else
        cur = _mm_sha1nexte_epu32(cur, w);
    e[(G + 1) % 2] = abcd;
    if constexpr (G >= 3 && G <= 18)
        msg[(G + 1) % 4] = _mm_sha1msg2_epu32(msg[(G + 1) % 4], w);
    abcd = _mm_sha1rnds4_epu32(abcd, cur, G / 5);
    if constexpr (G >= 1 && G <= 16)
        msg[(G + 3) % 4] = _mm_sha1msg1_epu32(msg[(G + 3) % 4], w);
    if constexpr (G >= 2 && G <= 17)
        msg[(G + 2) % 4] = _mm_xor_si128(msg[(G + 2) % 4], w);
}

template <int... G>
LP_SHA_TARGET __attribute__((always_inline)) inline void
allRounds(__m128i &abcd, __m128i (&e)[2], __m128i (&msg)[4],
          const uint8_t *data, __m128i byte_swap,
          std::integer_sequence<int, G...>)
{
    (roundGroup<G>(abcd, e, msg, data, byte_swap), ...);
}

} // namespace

LP_SHA_TARGET void
shaNi(uint32_t h[5], const uint8_t *data, size_t blocks)
{
    const __m128i byte_swap =
        _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
    __m128i abcd = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(h)), 0x1B);
    __m128i e_in = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abcd_save = abcd;
        const __m128i e_save = e_in;
        __m128i e[2] = {e_in, _mm_setzero_si128()};
        __m128i msg[4];
        allRounds(abcd, e, msg, data, byte_swap,
                  std::make_integer_sequence<int, 20>{});
        e_in = _mm_sha1nexte_epu32(e[0], e_save);
        abcd = _mm_add_epi32(abcd, abcd_save);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i *>(h),
                     _mm_shuffle_epi32(abcd, 0x1B));
    h[4] = static_cast<uint32_t>(_mm_extract_epi32(e_in, 3));
}

#undef LP_SHA_TARGET

bool
shaNiAvailable()
{
    static const bool have = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sha") != 0 &&
               __builtin_cpu_supports("sse4.1") != 0;
    }();
    return have;
}

#else // !__x86_64__

void
shaNi(uint32_t h[5], const uint8_t *data, size_t blocks)
{
    portable(h, data, blocks);
}

bool
shaNiAvailable()
{
    return false;
}

#endif

BlockFn
best()
{
    return shaNiAvailable() ? shaNi : portable;
}

} // namespace looppoint::sha1_blocks
