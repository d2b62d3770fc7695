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
 * int16 lanes and one Gray-code step adds or subtracts a doubled column to
 * all of them at once. The product of a subset is formed in three int64
 * chains of at most 12 factors (34^12 < 2^62) and then in 192 bits; the
 * signed sum wraps mod 2^192. Wrapping is a ring homomorphism, and the true
 * sum is at most n! 2^(n-1) <= 34! 2^33 < 2^162 in magnitude, so the wrapped
 * sum read as a signed 192-bit integer is the sum itself for n <= 34. A
 * 128-bit sum would not do: it wraps from n = 29. exact.py shifts the sum
 * right by n - 1 and fixes its sign.
 */
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

/* Adds the terms of the subsets with Gray-code index s->k up to end - 1;
 * the caller starts from k = 0 and a zero total, and runs up to 2^(n-1),
 * in as many calls as it likes. */
void ryser(ryser_state *s, uint64_t end)
{
    const int n = (int)s->n;
    const int vecs = (n + 7) / 8;
    /* steps[0][j] adds the doubled column j, steps[1][j] subtracts it. */
    lanes steps[2][MAX_N - 1][VECS];
    union {
        lanes vec[VECS];
        int16_t lane[VECS * 8];
    } v;
    for (int j = 0; j < n - 1; j++)
        for (int u = 0; u < VECS * 8; u++) {
            int16_t twice = u < n ? (int16_t)(2 * s->cols[j * n + u]) : 0;
            steps[0][j][u / 8][u % 8] = twice;
            steps[1][j][u / 8][u % 8] = (int16_t)-twice;
        }
    /* The unused lanes hold 1, so that no zero is seen there. */
    for (int u = 0; u < VECS * 8; u++)
        v.lane[u] = 1;
    if (s->k == 0) {
        for (int u = 0; u < n; u++) {
            int64_t r = 0;
            for (int j = 0; j < n; j++)
                r += s->cols[j * n + u];
            v.lane[u] = (int16_t)(2 * s->cols[(n - 1) * n + u] - r);
        }
    } else {
        for (int u = 0; u < n; u++)
            v.lane[u] = (int16_t)s->values[u];
    }
    u128 low = (u128)s->total[1] << 64 | s->total[0];
    uint64_t high = s->total[2];
    for (uint64_t k = s->k; k < end; k++) {
        if (k) {
            /* Column j = ctz(k) flips; it joins S when bit j + 1 of k is 0. */
            int j = __builtin_ctzll(k);
            const lanes *step = steps[(k >> (j + 1)) & 1][j];
            for (int i = 0; i < vecs; i++)
                v.vec[i] += step[i];
        }
        lanes zero = v.vec[0] == 0;
        for (int i = 1; i < vecs; i++)
            zero |= v.vec[i] == 0;
        uint64_t halves[2];
        __builtin_memcpy(halves, &zero, sizeof halves);
        if (halves[0] | halves[1])
            continue;
        int64_t p0 = 1, p1 = 1, p2 = 1;
        int u = 0;
        for (; u + 3 <= n; u += 3) {
            p0 *= v.lane[u];
            p1 *= v.lane[u + 1];
            p2 *= v.lane[u + 2];
        }
        if (u < n)
            p0 *= v.lane[u];
        if (u + 1 < n)
            p1 *= v.lane[u + 1];
        /* The term p0 p1 p2 mod 2^192, as x 2^64 + y with p0 p1 = h 2^64 + l,
         * x = h p2 and y = l p2; l is unsigned, h, x and y are signed. */
        i128 p01 = (i128)p0 * p1;
        uint64_t l = (uint64_t)p01;
        int64_t h = (int64_t)(p01 >> 64);
        i128 x = (i128)h * p2;
        u128 y = (u128)l * (uint64_t)p2;
        y -= (u128)(l & (uint64_t)(p2 >> 63)) << 64;  /* p2 < 0: p2 = (uint64_t)p2 - 2^64 */
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
    for (int u = 0; u < n; u++)
        s->values[u] = v.lane[u];
    s->k = end;
    s->total[0] = (uint64_t)low;
    s->total[1] = (uint64_t)(low >> 64);
    s->total[2] = high;
}
