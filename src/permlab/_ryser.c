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

/* cols: n columns of n entries each, column-major, 0 or 1; 1 <= n <= 34.
 * out: the low and high 64-bit words of the result. */
void ryser(int64_t n, const int64_t *cols, uint64_t *out)
{
    int64_t sums[64] = {0};
    int64_t zeros = n;  /* rows whose sum is 0; the product is 0 unless none */
    u128 total = 0;
    uint64_t prev = 0;  /* the previous subset */
    for (uint64_t k = 1; k < (uint64_t)1 << n; k++) {
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
    out[0] = (uint64_t)total;
    out[1] = (uint64_t)(total >> 64);
}
