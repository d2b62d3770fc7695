/* The compiled kernel of ChainSampler.walk. ChainSampler._python_walk in
 * chain.py is the other kernel, and both keep one contract: the same move
 * rules, draw order and spaced tally, step for step, on the state of one
 * walk_state struct.
 *
 * Neither kernel does any floating-point arithmetic. Each step reads its
 * move's entry of the stage's acceptance table, which chain.acceptance_table
 * fills once per stage (layout in its docstring): a negative entry, NO_DRAW,
 * accepts without a unit draw, and any other accepts when the next unit draw
 * is below it. Both kernels compare the same doubles, so every acceptance
 * decision is the same on both.
 *
 * A unit draw is consumed exactly when the entry is not NO_DRAW. This kernel
 * reads a unit value on every step, at the read position clamped into the
 * block, so that it needs no branch on the entry; on a NO_DRAW step that
 * value decides nothing, since a negative entry accepts whatever it is, a
 * stale or never-filled (NaN) value included. That is why NO_DRAW stays
 * negative: an entry above 1 would accept any draw in [0, 1), but not a
 * NaN.
 *
 * The struct points at the three draw blocks of a BufferedDraws, each of
 * `size` draws, and at its `positions`: the read positions in the edge,
 * vertex and unit blocks, which have no other store. The blocks are refilled
 * in place, so these pointers never change. A kernel takes `left` steps,
 * and never refills a block. When the next draw it needs is in a used-up
 * block it stops before that step, sets `need`, and stores the state and
 * the positions back with the steps still to take in `left`;
 * ChainSampler.walk, the one caller of both kernels, refills that block and
 * calls again. A step whose proposal draw has been read but whose
 * acceptance draw is missing is abandoned whole: the proposal draw is read
 * again on the next call.
 */
#include <stdint.h>

enum { NEED_EDGE = 0, NEED_VERT = 1, NEED_UNIT = 2 };

typedef struct {
    int64_t n;
    const int64_t *edge;  /* n * n instance matrix, row-major, 0 or 1 */
    const double *accept; /* 2 n^2 + 6 n^3 acceptance entries */
    int64_t *r2c, *c2r;   /* assignments, -1 at the hole row and column */
    const int64_t *ebuf, *vbuf; /* the draw blocks */
    const double *ubuf;
    int64_t size;         /* draws per block */
    int64_t *pos;         /* read positions in ebuf, vbuf and ubuf */
    int64_t left;         /* steps still to take */
    int64_t hu, hv, k;    /* hole (hu < 0 when perfect), non-instance pairs */
    /* Steps to the next tallied sample, then `spacing` again; negative
     * while nothing is tallied. */
    int64_t countdown, spacing;
    int64_t need;
    int64_t *counts;      /* per-key sample counts */
    int64_t *seen;        /* keys in first-seen order */
    int64_t nseen;
} walk_state;

void walk(walk_state *s)
{
    int64_t steps = s->left;
    const int64_t n = s->n, nn = n * n, cube = nn * n;
    const int64_t *edge = s->edge;
    const double *drops = s->accept, *completions = drops + nn;
    /* The row-move and column-move entries with dk = 0. */
    const double *row_moves = drops + 2 * nn + cube;
    const double *column_moves = drops + 2 * nn + 4 * cube;
    int64_t *r2c = s->r2c, *c2r = s->c2r;
    int64_t hu = s->hu, hv = s->hv, k = s->k;
    const int64_t *ebuf = s->ebuf, *vbuf = s->vbuf;
    const double *ubuf = s->ubuf;
    const int64_t size = s->size;
    int64_t epos = s->pos[0], vpos = s->pos[1], upos = s->pos[2];
    const int64_t spacing = s->spacing;
    int64_t countdown = s->countdown;
    int64_t *counts = s->counts, *seen = s->seen;
    int64_t nseen = s->nseen;

    for (; steps > 0; steps--) {
        int64_t dk, x, z = 0, w = 0;
        int move; /* 0 drop, 1 complete, 2 matched row, 3 matched column */
        double ratio;
        if (hu < 0) {
            /* Perfect: drop a uniformly chosen matched pair (x, z). */
            if (epos >= size) {
                s->need = NEED_EDGE;
                break;
            }
            move = 0;
            x = ebuf[epos];
            z = r2c[x];
            dk = edge[x * n + z] - 1;
            ratio = drops[x * n + z];
        } else {
            if (vpos >= size) {
                s->need = NEED_VERT;
                break;
            }
            x = vbuf[vpos];
            if (x == hu || x - n == hv) {
                /* Hole row or hole column: complete the hole pair. */
                move = 1;
                dk = 1 - edge[hu * n + hv];
                ratio = completions[hu * n + hv];
            } else if (x < n) {
                /* Matched row x: swing its column z onto the hole column. */
                move = 2;
                z = r2c[x];
                dk = edge[x * n + z] - edge[x * n + hv];
                ratio = row_moves[dk * cube + hu * nn + z * n + hv];
            } else {
                /* Matched column x - n: pull it, from its row w, onto the
                 * hole row. */
                move = 3;
                x -= n;
                w = c2r[x];
                dk = edge[w * n + x] - edge[hu * n + x];
                ratio = column_moves[dk * cube + w * nn + hu * n + hv];
            }
        }
        /* The acceptance draw without a branch on the entry: on annealed
         * stages "a draw is due" and "accepted" are close to independent,
         * and one data-dependent branch fewer is one mispredict fewer. The
         * rare, predictable test of a used-up block comes first. */
        const int64_t draw = !(ratio < 0.0);
        if (upos >= size && draw) {
            s->need = NEED_UNIT;
            break;
        }
        const double u = ubuf[upos < size ? upos : size - 1];
        const int accept = (ratio < 0.0) | (u < ratio);
        upos += draw;
        if (move == 0)
            epos++;
        else
            vpos++;
        if (accept) {
            switch (move) {
            case 0:
                r2c[x] = -1;
                c2r[z] = -1;
                hu = x;
                hv = z;
                break;
            case 1:
                r2c[hu] = hv;
                c2r[hv] = hu;
                hu = -1;
                break;
            case 2:
                r2c[x] = hv;
                c2r[hv] = x;
                c2r[z] = -1;
                hv = z;
                break;
            default:
                r2c[w] = -1;
                r2c[hu] = x;
                c2r[x] = hu;
                hu = w;
            }
            k += dk;
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
    s->pos[0] = epos;
    s->pos[1] = vpos;
    s->pos[2] = upos;
    s->countdown = countdown;
    s->nseen = nseen;
    s->left = steps;
}
