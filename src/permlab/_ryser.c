/* Compiled permanent_ryser: Ryser's formula in the form of Nijenhuis and
 * Wilf (1978), which fixes the last column and visits only the 2^(n-1)
 * subsets S of the other n - 1 columns, in reflected Gray code order from
 * the empty set. With the doubled row values
 *
 *     v_u(S) = 2 sum_{j in S} A[u][j] + 2 A[u][n-1] - r_u,
 *
 * r_u being row u's sum,
 *
 *     sum over S of (-1)^|S| prod_u v_u(S) = (-1)^(n-1) 2^(n-1) perm(A).
 *
 * Each v_u lies in [-r_u, r_u] and r_u <= n <= 34, so the values live in
 * int16 lanes, eight to a vector, and one Gray-code step adds or subtracts
 * a doubled column to all of them at once; the lanes past n hold 1. The
 * product of a subset is formed in SSE2 lanes and reduced to three int64
 * factors p0, p1, p2 (see product), then multiplied out in 192 bits; the
 * signed sum wraps mod 2^192. Wrapping is a ring homomorphism, and the
 * true sum is at most n! 2^(n-1) <= 34! 2^33 < 2^162 in magnitude, so the
 * wrapped sum read as a signed 192-bit integer is the sum itself for
 * n <= 34. A 128-bit sum would not do: it wraps from n = 29. exact.py
 * shifts the sum right by n - 1 and fixes its sign.
 */
/* The product takes SSE2, which x86-64 has as baseline. Elsewhere this
 * file is empty and the library has no ryser, so that permanent_ryser runs
 * its Python loop while the other kernels still build. */
#ifdef __SSE2__
#include <emmintrin.h>
#include <stdint.h>

typedef unsigned __int128 u128;
typedef __int128 i128;
/* Eight int16 lanes; GCC lowers the vector arithmetic to baseline SSE2. */
typedef int16_t lanes __attribute__((vector_size(16)));

enum { MAX_N = 34, VECS = (MAX_N + 7) / 8 };

typedef struct {
    int64_t n;            /* 1 <= n <= 34 */
    const int64_t *cols;  /* n columns of n entries each, column-major, 0 or 1 */
    uint64_t k;           /* Gray-code index of the next subset, from 0 */
    uint64_t total[3];    /* the sum so far mod 2^192, low word first */
    int64_t values[MAX_N];  /* v_u of subset k - 1; set by the call with k = 0 */
} ryser_state;

/* The eight int32 products a_i b_i, two to an int64 word in lane order:
 * words[0] holds lanes 0 and 1, lane 0 in its low half. */
static inline __attribute__((always_inline)) void
widen(lanes a, lanes b, int64_t words[4])
{
    __m128i lo = _mm_mullo_epi16((__m128i)a, (__m128i)b);
    __m128i hi = _mm_mulhi_epi16((__m128i)a, (__m128i)b);
    __m128i q03 = _mm_unpacklo_epi16(lo, hi), q47 = _mm_unpackhi_epi16(lo, hi);
    words[0] = _mm_cvtsi128_si64(q03);
    words[1] = _mm_cvtsi128_si64(_mm_unpackhi_epi64(q03, q03));
    words[2] = _mm_cvtsi128_si64(q47);
    words[3] = _mm_cvtsi128_si64(_mm_unpackhi_epi64(q47, q47));
}

#define LOW(w) ((int64_t)(int32_t)(w))
#define HIGH(w) ((w) >> 32)

/* Whether no row value in v is 0, and if so, the product of the 8 vecs
 * lanes of v as p[0] p[1] p[2], with |v| <= n. The values are multiplied
 * in SSE2 lanes and reduced to int64 factors, and a factor 0 shows in the
 * int16 products, none of which wraps. Up to three vectors (n <= 24) the
 * lanes' product x, at most 24^3 < 2^15, is formed in int16; x_i x_{i+4}
 * for i = 0 to 3 in int32, below 24^6 < 2^28; and p0 = x_0 x_4 x_2 x_6 and
 * p1 = x_1 x_5 x_3 x_7, each below 24^12 < 2^56, with p2 = 1. With four or
 * five (n <= 34), a = v0 v1 and b = v2 v3, each at most 34^2 < 2^15, in
 * int16; q_i = a_i b_i in int32, at most 34^4 < 2^21; p0 = q0 q1 q2,
 * p1 = q3 q4 q5 and p2 = q6 q7, each at most 34^12 < 2^62, and five
 * vectors multiply lanes 32 and 33, the only ones of v4 not 1, into p2. */
static inline __attribute__((always_inline)) int
product(const int vecs, const lanes *v, int64_t p[3])
{
    int64_t w[4];
    if (vecs <= 3) {
        lanes x = v[0];
        for (int i = 1; i < vecs; i++)
            x *= v[i];
        if (_mm_movemask_epi8((__m128i)(x == 0)))
            return 0;
        widen(x, (lanes)_mm_unpackhi_epi64((__m128i)x, (__m128i)x), w);
        p[0] = LOW(w[0]) * LOW(w[1]);
        p[1] = HIGH(w[0]) * HIGH(w[1]);
        p[2] = 1;
    } else {
        lanes a = v[0] * v[1], b = v[2] * v[3];
        lanes zero = (a == 0) | (b == 0);
        if (vecs == 5)
            zero |= v[4] == 0;
        if (_mm_movemask_epi8((__m128i)zero))
            return 0;
        widen(a, b, w);
        p[0] = LOW(w[0]) * HIGH(w[0]) * LOW(w[1]);
        p[1] = HIGH(w[1]) * LOW(w[2]) * HIGH(w[2]);
        p[2] = LOW(w[3]) * HIGH(w[3]);
        if (vecs == 5)
            p[2] *= (int64_t)v[4][0] * v[4][1];
    }
    return 1;
}

/* The subset loop of ryser, from Gray-code index k up to end - 1, adding the
 * terms to the 192-bit sum high 2^128 + low. The row values of subset
 * k - 1 come in values and the loop keeps them in registers, v, writing
 * them back at the end. ryser calls it with vecs a constant, (n + 7) / 8,
 * so that GCC compiles one loop for each count and unrolls the loops over
 * the vectors, which it cannot do for a count known only at run time. */
static inline __attribute__((always_inline)) void
subsets(const int vecs, lanes steps[2][MAX_N - 1][VECS], lanes values[VECS],
        uint64_t k, uint64_t end, u128 *sum_low, uint64_t *sum_high)
{
    lanes v[VECS];
    for (int i = 0; i < vecs; i++)
        v[i] = values[i];
    u128 low = *sum_low;
    uint64_t high = *sum_high;
    for (; k < end; k++) {
        /* Column j = ctz(k) flips; it joins S when bit j + 1 of k is 0. Every
         * odd k flips column 0. */
        const lanes *step = 0;
        if (k & 1) {
            step = steps[(k >> 1) & 1][0];
        } else if (k) {
            int j = __builtin_ctzll(k);
            step = steps[(k >> (j + 1)) & 1][j];
        }
        if (step)
            for (int i = 0; i < vecs; i++)
                v[i] += step[i];
        int64_t p[3];
        if (!product(vecs, v, p))
            continue;
        /* The term p0 p1 p2 mod 2^192, as x 2^64 + y with p0 p1 = h 2^64 + l,
         * x = h p2 and y = l p2; l is unsigned, h, x and y are signed. */
        i128 p01 = (i128)p[0] * p[1];
        uint64_t l = (uint64_t)p01;
        int64_t h = (int64_t)(p01 >> 64);
        i128 x = (i128)h * p[2];
        u128 y = (u128)l * (uint64_t)p[2];
        y -= (u128)(l & (uint64_t)(p[2] >> 63)) << 64;  /* p2 < 0: p2 = (uint64_t)p2 - 2^64 */
        u128 term_low = y + ((u128)x << 64);
        uint64_t term_high = (uint64_t)((i128)y >> 127) + (uint64_t)(x >> 64)
                             + (term_low < y);
        /* (-1)^|S|, and |S| has the parity of k. */
        if (k & 1) {
            high -= term_high + (low < term_low);
            low -= term_low;
        } else {
            low += term_low;
            high += term_high + (low < term_low);
        }
    }
    for (int i = 0; i < vecs; i++)
        values[i] = v[i];
    *sum_low = low;
    *sum_high = high;
}

/* Adds the terms of the subsets with Gray-code index s->k up to end - 1;
 * the caller starts from k = 0 and a zero total, and runs up to 2^(n-1),
 * in as many calls as it likes. */
void ryser(ryser_state *s, uint64_t end)
{
    const int n = (int)s->n;
    /* steps[0][j] adds the doubled column j, steps[1][j] subtracts it. */
    lanes steps[2][MAX_N - 1][VECS];
    lanes v[VECS];
    for (int j = 0; j < n - 1; j++)
        for (int u = 0; u < VECS * 8; u++) {
            int16_t twice = u < n ? (int16_t)(2 * s->cols[j * n + u]) : 0;
            steps[0][j][u / 8][u % 8] = twice;
            steps[1][j][u / 8][u % 8] = (int16_t)-twice;
        }
    /* The unused lanes hold 1, so that no zero is seen there and the
     * product is that of the n row values. */
    for (int u = 0; u < VECS * 8; u++)
        v[u / 8][u % 8] = 1;
    if (s->k == 0) {
        for (int u = 0; u < n; u++) {
            int64_t r = 0;
            for (int j = 0; j < n; j++)
                r += s->cols[j * n + u];
            v[u / 8][u % 8] = (int16_t)(2 * s->cols[(n - 1) * n + u] - r);
        }
    } else {
        for (int u = 0; u < n; u++)
            v[u / 8][u % 8] = (int16_t)s->values[u];
    }
    u128 low = (u128)s->total[1] << 64 | s->total[0];
    uint64_t high = s->total[2];
    switch ((n + 7) / 8) {
    case 1: subsets(1, steps, v, s->k, end, &low, &high); break;
    case 2: subsets(2, steps, v, s->k, end, &low, &high); break;
    case 3: subsets(3, steps, v, s->k, end, &low, &high); break;
    case 4: subsets(4, steps, v, s->k, end, &low, &high); break;
    case 5: subsets(5, steps, v, s->k, end, &low, &high); break;
    }
    for (int u = 0; u < n; u++)
        s->values[u] = v[u / 8][u % 8];
    s->k = end;
    s->total[0] = (uint64_t)low;
    s->total[1] = (uint64_t)(low >> 64);
    s->total[2] = high;
}
#endif
