/* Compiled draw refills for BufferedDraws: numpy's PCG64 and the two
 * Generator methods the chain draws with, bit for bit.
 *
 * PCG64 is the 128-bit LCG state <- state * MULTIPLIER + inc, whose output
 * is the XSL-RR permutation of the advanced state. numpy hands out 32-bit
 * words in halves of one 64-bit output, carrying the unused high half in
 * has_uint32/uinteger across calls, and so does this file.
 *
 * fill_bounded is Generator.integers(0, high, size=count) for int64: the
 * scalar-bound path of numpy's random_bounded_uint64_fill, which for
 * high - 1 = rng < 2^32 - 1 draws each value with
 * buffered_bounded_lemire_uint32 (Lemire's multiply-shift with rejection),
 * and for rng == 0 writes zeros and consumes no draw. fill_unit is
 * Generator.random(size=count): (next64 >> 11) * 2^-53.
 */
#include <stdint.h>

typedef unsigned __int128 u128;

typedef struct {
    uint64_t state[2];    /* low and high 64-bit words */
    uint64_t inc[2];
    int64_t has_uint32;   /* a high half is waiting in uinteger */
    uint64_t uinteger;
} pcg64_state;

static inline uint64_t next64(pcg64_state *s)
{
    const u128 multiplier = ((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;
    u128 state = ((u128)s->state[1] << 64) | s->state[0];
    state = state * multiplier + (((u128)s->inc[1] << 64) | s->inc[0]);
    s->state[0] = (uint64_t)state;
    s->state[1] = (uint64_t)(state >> 64);
    uint64_t word = s->state[1] ^ s->state[0];
    unsigned rot = (unsigned)(s->state[1] >> 58);
    return (word >> rot) | (word << ((64 - rot) & 63));
}

static inline uint32_t next32(pcg64_state *s)
{
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return (uint32_t)s->uinteger;
    }
    uint64_t next = next64(s);
    s->has_uint32 = 1;
    s->uinteger = next >> 32;
    return (uint32_t)next;
}

/* Fills out[0..count) with integers uniform on [0, high), for
 * 1 <= high <= 2^32 - 1. */
void fill_bounded(pcg64_state *s, int64_t high, int64_t *out, int64_t count)
{
    const uint32_t rng = (uint32_t)(high - 1);
    if (rng == 0) {
        for (int64_t i = 0; i < count; i++)
            out[i] = 0;
        return;
    }
    const uint32_t rng_excl = rng + 1;
    for (int64_t i = 0; i < count; i++) {
        uint64_t m = (uint64_t)next32(s) * rng_excl;
        uint32_t leftover = (uint32_t)m;
        if (leftover < rng_excl) {
            const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
            while (leftover < threshold) {
                m = (uint64_t)next32(s) * rng_excl;
                leftover = (uint32_t)m;
            }
        }
        out[i] = (int64_t)(m >> 32);
    }
}

/* Fills out[0..count) with doubles uniform on [0, 1). */
void fill_unit(pcg64_state *s, double *out, int64_t count)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = (double)(next64(s) >> 11) * (1.0 / 9007199254740992.0);
}
