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
 * product of a subset is formed in SSE2 lanes. Up to n = 24 (see pairs)
 * it is reduced to two int64 factors, and the subsets are taken two at a
 * time; their terms, at most 24^24 < 2^111 in magnitude, are summed
 * exactly in 128 bits over blocks of at most 2^15 subsets, and each block
 * sum is added to the total. Above (see subsets) it is reduced to three
 * int64 factors p0, p1, p2 (see product), multiplied out in 192 bits and
 * added term by term. The total is kept mod 2^192. Wrapping is a ring
 * homomorphism, and the true sum is at most n! 2^(n-1) <= 34! 2^33 < 2^162
 * in magnitude, so the wrapped sum read as a signed 192-bit integer is the
 * sum itself for n <= 34. A 128-bit total would not do: it wraps from
 * n = 29, and at n = 24 the bound of 24^24 per term would let a 128-bit
 * sum over a 2^22-subset range pass 2^127, though on real matrices the
 * sums stay far lower (one 128-bit sum over the whole all-ones n = 24
 * permanent never passed 2^109 in magnitude).
 *
 * A call sums one range of subsets, from an even Gray-code index to an
 * even end, from scratch: it keeps nothing between calls. The caller may
 * split the 2^(n-1) subsets into such ranges as it likes and add their
 * sums mod 2^192, which is exact for the same reason, even where the sum
 * of one range wraps (2^22 34^34 > 2^191). exact.py does, and shifts the
 * total right by n - 1 and fixes its sign.
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

/* Subsets per block sum of pairs: at most 2^15 terms of at most
 * 24^24 < 2^111 in magnitude, so the block sum stays below 2^126. */
enum { BLOCK = 1 << 15 };

/* The step that takes the row values from subset k - 1 to subset k, k > 0:
 * column j = ctz(k) flips, and it joins S when bit j + 1 of k is 0. */
static inline __attribute__((always_inline)) const lanes *
flip(lanes steps[2][MAX_N - 1][VECS], uint64_t k)
{
    int j = __builtin_ctzll(k);
    return steps[(k >> (j + 1)) & 1][j];
}

/* v += step, over three vectors. */
static inline __attribute__((always_inline)) void
add(lanes v[3], const lanes *step)
{
    for (int i = 0; i < 3; i++)
        v[i] += step[i];
}

/* The lane-by-lane int16 product of three vectors of row values, at most
 * 24^3 < 2^15 in magnitude: none wraps, so a lane is 0 exactly when one of
 * its row values is. */
static inline __attribute__((always_inline)) lanes
lane_product(const lanes v[3])
{
    return v[0] * v[1] * v[2];
}

/* The products of the eight lanes of x and of those of y, as p[0] p[1] and
 * p[2] p[3], from one widen of the low halves of both by their high
 * halves: x_i x_{i+4} and y_i y_{i+4} for i = 0 to 3 in int32, below
 * 24^6 < 2^28, then p0 = x_0 x_4 x_2 x_6, p1 = x_1 x_5 x_3 x_7, and p2 and
 * p3 likewise from y, each below 24^12 < 2^56. A lane 0 makes its product 0. */
static inline __attribute__((always_inline)) void
halves(lanes x, lanes y, int64_t p[4])
{
    int64_t w[4];
    widen((lanes)_mm_unpacklo_epi64((__m128i)x, (__m128i)y),
          (lanes)_mm_unpackhi_epi64((__m128i)x, (__m128i)y), w);
    p[0] = LOW(w[0]) * LOW(w[1]);
    p[1] = HIGH(w[0]) * HIGH(w[1]);
    p[2] = LOW(w[2]) * LOW(w[3]);
    p[3] = HIGH(w[2]) * HIGH(w[3]);
}

/* The subset loop of ryser up to n = 24, from Gray-code index k up to
 * end - 1, both even, writing the sum of the terms mod 2^192 as
 * high 2^128 + low. The row values fill three vectors at every such n, so
 * that one loop is compiled; with the lanes past n at 1 and their steps 0,
 * the vectors that hold no row value multiply by 1. It takes the subsets
 * in pairs k, k + 1 with k even: k > 0 flips column ctz(k), and k + 1
 * flips column 0 with direction (k >> 1) & 1, so the odd subset's row
 * values are the even one's plus steps[(k >> 1) & 1][0]. One widen gives
 * both products, and one movemask both zero tests; (-1)^|S| is (-1)^k, so
 * the pair adds the even term and subtracts the odd one. The terms go into
 * a 128-bit block sum of at most BLOCK subsets, which is exact, and the
 * block sum is added to the 192-bit sum with its sign extended; blocks end
 * at multiples of BLOCK or at end, all even. The row values of subset
 * k - 1 come in values (those of subset 0 when k = 0) and the loop keeps
 * them in registers, v. It is not inlined into ryser, which keeps the
 * compiler's peak memory below that of one function holding every loop:
 * compiled for one, two and three vectors inside ryser, it took cc1's peak
 * for this file from 37.3 to 39.6 MB; compiled once and apart, the file
 * takes 36.5 MB (gcc 12 at _CC_ARGS). */
static __attribute__((noinline)) void
pairs(lanes steps[2][MAX_N - 1][VECS], const lanes values[VECS], uint64_t k,
      uint64_t end, u128 *sum_low, uint64_t *sum_high)
{
    lanes v[3] = {values[0], values[1], values[2]};
    u128 low = 0;
    uint64_t high = 0;
    while (k < end) {
        uint64_t stop = (k | (BLOCK - 1)) + 1;
        if (stop > end)
            stop = end;
        i128 block = 0;
        for (; k < stop; k += 2) {
            if (k)
                add(v, flip(steps, k));
            lanes even = lane_product(v);
            add(v, steps[(k >> 1) & 1][0]);
            lanes odd = lane_product(v);
            int zero = _mm_movemask_epi8(_mm_packs_epi16((__m128i)(even == 0),
                                                         (__m128i)(odd == 0)));
            int zero_even = zero & 0xff, zero_odd = zero >> 8;
            if (zero_even && zero_odd)
                continue;
            int64_t p[4];
            halves(even, odd, p);
            if (!zero_even)
                block += (i128)p[0] * p[1];
            if (!zero_odd)
                block -= (i128)p[2] * p[3];
        }
        low += (u128)block;
        high += (uint64_t)(block >> 127) + (low < (u128)block);
    }
    *sum_low = low;
    *sum_high = high;
}

/* With four or five vectors (25 <= n <= 34), whether no row value in v is
 * 0, and if so, the product of the 8 vecs lanes of v as p[0] p[1] p[2],
 * with |v| <= n. The values are multiplied in SSE2 lanes and reduced to
 * int64 factors, and a factor 0 shows in the int16 products, none of which
 * wraps: a = v0 v1 and b = v2 v3, each at most 34^2 < 2^15, in int16;
 * q_i = a_i b_i in int32, at most 34^4 < 2^21; p0 = q0 q1 q2,
 * p1 = q3 q4 q5 and p2 = q6 q7, each at most 34^12 < 2^62, and five
 * vectors multiply lanes 32 and 33, the only ones of v4 not 1, into p2. */
static inline __attribute__((always_inline)) int
product(const int vecs, const lanes *v, int64_t p[3])
{
    int64_t w[4];
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
    return 1;
}

/* The subset loop of ryser above n = 24, one subset at a time, from
 * Gray-code index k up to end - 1, writing the sum of the terms mod 2^192
 * as high 2^128 + low. The row values of subset k - 1 come in values
 * (those of subset 0 when k = 0) and the loop keeps them in registers, v.
 * ryser calls it with vecs a constant, 4 or 5, so that GCC compiles one
 * loop for each count and unrolls the loops over the vectors, which it
 * cannot do for a count known only at run time. */
static inline __attribute__((always_inline)) void
subsets(const int vecs, lanes steps[2][MAX_N - 1][VECS], const lanes values[VECS],
        uint64_t k, uint64_t end, u128 *sum_low, uint64_t *sum_high)
{
    lanes v[VECS];
    for (int i = 0; i < vecs; i++)
        v[i] = values[i];
    u128 low = 0;
    uint64_t high = 0;
    for (; k < end; k++) {
        /* Every odd k flips column 0, found without flip's ctz. */
        const lanes *step = 0;
        if (k & 1)
            step = steps[(k >> 1) & 1][0];
        else if (k)
            step = flip(steps, k);
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
    *sum_low = low;
    *sum_high = high;
}

/* Writes to sum, low word first, the sum mod 2^192 of the terms of the
 * subsets with Gray-code index start up to end - 1, for 2 <= n <= 34, cols
 * the n columns of n entries each (column-major, 0 or 1) and start < end
 * <= 2^(n-1) both even. */
void ryser(int64_t n, const int64_t *cols, uint64_t start, uint64_t end, uint64_t sum[3])
{
    /* steps[0][j] adds the doubled column j, steps[1][j] subtracts it. */
    lanes steps[2][MAX_N - 1][VECS];
    lanes v[VECS];
    for (int j = 0; j < n - 1; j++)
        for (int u = 0; u < VECS * 8; u++) {
            int16_t twice = u < n ? (int16_t)(2 * cols[j * n + u]) : 0;
            steps[0][j][u / 8][u % 8] = twice;
            steps[1][j][u / 8][u % 8] = (int16_t)-twice;
        }
    /* The row values of subset 0, the empty set. The unused lanes hold 1,
     * so that no zero is seen there and the product is that of the n row
     * values. */
    for (int u = 0; u < VECS * 8; u++)
        v[u / 8][u % 8] = 1;
    for (int u = 0; u < n; u++) {
        int64_t r = 0;
        for (int j = 0; j < n; j++)
            r += cols[j * n + u];
        v[u / 8][u % 8] = (int16_t)(2 * cols[(n - 1) * n + u] - r);
    }
    /* Then those of subset start - 1, whose columns are the bits of its
     * Gray code. */
    uint64_t gray = start ? (start - 1) ^ ((start - 1) >> 1) : 0;
    for (int j = 0; j < n - 1; j++)
        if (gray >> j & 1)
            for (int i = 0; i < VECS; i++)
                v[i] += steps[0][j][i];
    u128 low;
    uint64_t high;
    switch ((n + 7) / 8) {
    case 4: subsets(4, steps, v, start, end, &low, &high); break;
    case 5: subsets(5, steps, v, start, end, &low, &high); break;
    default: pairs(steps, v, start, end, &low, &high); break;
    }
    sum[0] = (uint64_t)low;
    sum[1] = (uint64_t)(low >> 64);
    sum[2] = high;
}
#endif
