/* The compiled kernel of ChainSampler.walk. ChainSampler._python_walk in
 * chain.py is the other kernel, and both keep one contract: the same move
 * rules, draw order and spaced tally, step for step, on the state of one
 * walk_state struct.
 *
 * Built with -ffp-contract=off so that no fused multiply-add changes how
 * delta rounds; with the same libm exp, every acceptance decision is the one
 * the Python kernel makes.
 *
 * A kernel never refills a draw buffer. When the next draw it needs is in
 * an empty buffer it stops before that step, stores the state back, sets
 * `need`, and returns the steps still to take; ChainSampler.walk, the one
 * caller of both kernels, refills that buffer and calls again. A step whose
 * proposal draw has been read but whose acceptance draw is missing is
 * abandoned whole: the proposal draw is read again on the next call.
 */
#include <math.h>
#include <stdint.h>

enum { NEED_EDGE = 0, NEED_VERT = 1, NEED_UNIT = 2 };

typedef struct {
    int64_t n;
    const int64_t *edge;  /* n * n instance matrix, row-major, 0 or 1 */
    const double *log_w;  /* n * n hole weights, row-major */
    double log_lambda;
    int64_t *r2c, *c2r;   /* assignments, -1 at the hole row and column */
    const int64_t *ebuf, *vbuf;
    const double *ubuf;
    int64_t elen, vlen, ulen;
    /* The fields from epos to countdown move on every call; they are
     * adjacent so that the Python kernel moves them in one struct call. */
    int64_t epos, vpos, upos;
    int64_t hu, hv, k;    /* hole (hu < 0 when perfect), non-instance pairs */
    /* Steps to the next tallied sample, then `spacing` again; negative
     * while nothing is tallied. */
    int64_t countdown, spacing;
    int64_t need;
    int64_t *counts;      /* per-key sample counts */
    int64_t *seen;        /* keys in first-seen order */
    int64_t nseen;
} walk_state;

int64_t walk(walk_state *s, int64_t steps)
{
    const int64_t n = s->n;
    const int64_t *edge = s->edge;
    const double *log_w = s->log_w;
    const double log_lambda = s->log_lambda;
    int64_t *r2c = s->r2c, *c2r = s->c2r;
    int64_t hu = s->hu, hv = s->hv, k = s->k;
    const int64_t *ebuf = s->ebuf, *vbuf = s->vbuf;
    const double *ubuf = s->ubuf;
    const int64_t elen = s->elen, vlen = s->vlen, ulen = s->ulen;
    int64_t epos = s->epos, vpos = s->vpos, upos = s->upos;
    const int64_t spacing = s->spacing;
    int64_t countdown = s->countdown;
    int64_t *counts = s->counts, *seen = s->seen;
    int64_t nseen = s->nseen;

    for (; steps > 0; steps--) {
        int64_t dk;
        double delta;
        int accept;
        if (hu < 0) {
            /* Perfect: drop a uniformly chosen matched pair. */
            if (epos >= elen) {
                s->need = NEED_EDGE;
                break;
            }
            int64_t u = ebuf[epos];
            int64_t v = r2c[u];
            dk = edge[u * n + v] - 1;
            delta = dk * log_lambda + log_w[u * n + v];
            if (delta >= 0.0) {
                accept = 1;
            } else {
                if (upos >= ulen) {
                    s->need = NEED_UNIT;
                    break;
                }
                accept = ubuf[upos++] < exp(delta);
            }
            epos++;
            if (accept) {
                r2c[u] = -1;
                c2r[v] = -1;
                hu = u;
                hv = v;
                k += dk;
            }
        } else {
            if (vpos >= vlen) {
                s->need = NEED_VERT;
                break;
            }
            int64_t x = vbuf[vpos];
            int move; /* 0 complete, 1 matched row, 2 matched column */
            int64_t z = 0, w = 0, xc = 0;
            if (x == hu || x - n == hv) {
                /* Hole row or hole column: complete the hole pair. */
                move = 0;
                dk = 1 - edge[hu * n + hv];
                delta = dk * log_lambda - log_w[hu * n + hv];
            } else if (x < n) {
                /* Matched row x: swing its column onto the hole column. */
                move = 1;
                z = r2c[x];
                dk = edge[x * n + z] - edge[x * n + hv];
                delta = dk * log_lambda + log_w[hu * n + z] - log_w[hu * n + hv];
            } else {
                /* Matched column xc: pull it onto the hole row. */
                move = 2;
                xc = x - n;
                w = c2r[xc];
                dk = edge[w * n + xc] - edge[hu * n + xc];
                delta = dk * log_lambda + log_w[w * n + hv] - log_w[hu * n + hv];
            }
            if (delta >= 0.0) {
                accept = 1;
            } else {
                if (upos >= ulen) {
                    s->need = NEED_UNIT;
                    break;
                }
                accept = ubuf[upos++] < exp(delta);
            }
            vpos++;
            if (accept) {
                if (move == 0) {
                    r2c[hu] = hv;
                    c2r[hv] = hu;
                    hu = -1;
                } else if (move == 1) {
                    r2c[x] = hv;
                    c2r[hv] = x;
                    c2r[z] = -1;
                    hv = z;
                } else {
                    r2c[w] = -1;
                    r2c[hu] = xc;
                    c2r[xc] = hu;
                    hu = w;
                }
                k += dk;
            }
        }
        if (--countdown == 0) {
            int64_t key = hu >= 0 ? (hu * n + hv + 1) * (n + 1) + k : k;
            if (counts[key]++ == 0)
                seen[nseen++] = key;
            countdown = spacing;
        }
    }

    s->hu = hu;
    s->hv = hv;
    s->k = k;
    s->epos = epos;
    s->vpos = vpos;
    s->upos = upos;
    s->countdown = countdown;
    s->nseen = nseen;
    return steps;
}
