/* Compiled permanent_ryser: Ryser's inclusion-exclusion formula over the
 * nonempty column subsets, visited in reflected Gray code order as in the
 * Python loop of exact.py.
 *
 *     perm(A) = sum over S of (-1)^(n - |S|) prod_u sum_{v in S} A[u][v]
 *
 * Row sums are int64 and change by one column per subset. The row products
 * and the signed sum are formed in unsigned __int128, wrapping mod 2^128.
 * Wrapping is a ring homomorphism, so the result is perm(A) mod 2^128, which
 * is perm(A) itself while 0 <= perm(A) <= n! < 2^128, that is for n <= 34.
 */
#include <stdint.h>

typedef unsigned __int128 u128;

typedef struct {
    int64_t n;            /* 1 <= n <= 34 */
    const int64_t *cols;  /* n columns of n entries each, column-major, 0 or 1 */
    uint64_t k;           /* Gray-code index of the next subset, from 1 */
    int64_t zeros;        /* rows whose sum is 0; the product is 0 unless none */
    uint64_t total[2];    /* low and high 64-bit words of the sum so far */
    int64_t sums[64];     /* row sums over the current subset */
} ryser_state;

/* Adds the terms of the subsets with Gray-code index s->k up to end - 1;
 * the caller starts from k = 1, zeros = n and zero sums, and runs up to
 * 2^n, in as many calls as it likes. */
void ryser(ryser_state *s, uint64_t end)
{
    const int64_t n = s->n;
    const int64_t *cols = s->cols;
    int64_t sums[64];
    for (int64_t u = 0; u < n; u++)
        sums[u] = s->sums[u];
    int64_t zeros = s->zeros;
    u128 total = (u128)s->total[1] << 64 | s->total[0];
    uint64_t prev = (s->k - 1) ^ ((s->k - 1) >> 1);  /* the previous subset */
    for (uint64_t k = s->k; k < end; k++) {
        uint64_t mask = k ^ (k >> 1);
        const int64_t *col = cols + __builtin_ctzll(k) * n;  /* the flipped column */
        if (mask & ~prev) {
            for (int64_t u = 0; u < n; u++) {
                zeros -= col[u] & (sums[u] == 0);
                sums[u] += col[u];
            }
        } else {
            for (int64_t u = 0; u < n; u++) {
                sums[u] -= col[u];
                zeros += col[u] & (sums[u] == 0);
            }
        }
        prev = mask;
        if (zeros)
            continue;
        /* Each row sum is at most 34 < 2^6, so ten of them multiply in
         * 64 bits without overflow; only each group of ten touches the
         * 128-bit product. */
        u128 product = 1;
        int64_t u = 0;
        for (; u + 10 <= n; u += 10) {
            uint64_t part = 1;
            for (int j = 0; j < 10; j++)
                part *= (uint64_t)sums[u + j];
            product *= part;
        }
        uint64_t part = 1;
        for (; u < n; u++)
            part *= (uint64_t)sums[u];
        product *= part;
        /* |S| = popcount(mask); the term is positive when n - |S| is even. */
        if ((n - __builtin_popcountll(mask)) & 1)
            total -= product;
        else
            total += product;
    }
    for (int64_t u = 0; u < n; u++)
        s->sums[u] = sums[u];
    s->k = end;
    s->zeros = zeros;
    s->total[0] = (uint64_t)total;
    s->total[1] = (uint64_t)(total >> 64);
}
