/* The compiled kernels of ChainSampler.walk: walk_states, which runs up to
 * n = chain.STATE_WALK_LIMIT (6), and walk, which runs above it.
 * ChainSampler._python_walk in chain.py is the third kernel: the fallback
 * where the library cannot be built or loaded, and the oracle of the other
 * two. All three keep one contract: the same move rules, draw order and
 * spaced tally, step for step, on the state of one walk_state struct.
 *
 * No kernel does any floating-point arithmetic. Each step reads its move's
 * entry of the stage's acceptance table, which chain.acceptance_table fills
 * once per stage (layout in its docstring): NO_DRAW (-1.0) accepts without
 * a unit draw, and any other entry, a ratio in [0, 1], accepts when the
 * next unit draw, in [0, 1), is below it. The compiled kernels compare
 * the int64 bit patterns of the entry and the unit value, not the doubles:
 * non-negative doubles order as their bit patterns do, and of all the
 * entries only NO_DRAW has its sign bit set. A NaN's bit pattern would
 * order wrongly (x86's default NaN is negative), so chain.acceptance_table
 * writes +0.0 where the ratio is NaN; that entry takes a draw and rejects,
 * as a NaN does under the Python kernel's float compare. So every
 * acceptance decision is the same on all three.
 *
 * A unit draw is consumed exactly when the entry is not NO_DRAW. The
 * compiled kernels read a unit value on every step, at the read position
 * clamped into the block, so that they need no branch on the entry; on a
 * NO_DRAW step that value decides nothing, since the entry's sign bit
 * accepts whatever it is, a stale or never-filled (NaN) value included.
 *
 * walk_states walks the (n + 1)! states of chain.enumerate_states by index,
 * on a table of one state_move per state and draw (the edge index from a
 * perfect state, the vertex index otherwise): the state that the reference
 * propose makes, from chain.state_moves, and the move's acceptance entry,
 * which ChainSampler.set_weights gathers from the acceptance table. So a step
 * is one table read, the unit-draw test, and a masked select of the next
 * state with no branch on the outcome. It finds the state in r2c on entry
 * and writes r2c, c2r, the hole and k back on return.
 *
 * The struct points at the three draw blocks of a BufferedDraws, each of
 * `size` draws, and at its `positions`: the read positions in the edge,
 * vertex and unit blocks, which have no other store. The blocks are refilled
 * in place, so these pointers never change. A kernel takes `left` steps,
 * and never refills a block. When the next draw it needs is in a used-up
 * block it stops before that step, sets `need`, and stores the state and
 * the positions back with the steps still to take in `left`;
 * ChainSampler.walk, the one caller of every kernel, refills that block and
 * calls again. A step whose proposal draw has been read but whose
 * acceptance draw is missing is abandoned whole: the proposal draw is read
 * again on the next call.
 */
#include <stdint.h>

enum { NEED_EDGE = 0, NEED_VERT = 1, NEED_UNIT = 2 };

/* One move of walk_states' table: its acceptance entry, and the state it
 * proposes, as the index of that state's first move (its index times 2n) and
 * as its tally key. */
typedef struct {
    int64_t accept; /* the double's bit pattern */
    int32_t next, key;
} state_move;

/* 1 when a step whose entry has bit pattern t and whose unit value has bit
 * pattern ub is accepted: t is NO_DRAW, the one entry with its sign bit
 * set, or ub < t, both non-negative, which is when the unsigned difference
 * ub - t wraps past 2^63. */
static inline int64_t accepted(int64_t t, int64_t ub)
{
    return ((uint64_t)t | ((uint64_t)ub - (uint64_t)t)) >> 63;
}

typedef struct {
    int64_t n;
    const int64_t *edge;  /* n * n instance matrix, row-major, 0 or 1 */
    /* 2 n^2 + 6 n^3 acceptance entries, doubles read as their bit
     * patterns, as are the unit draws. */
    const int64_t *accept;
    int64_t *r2c, *c2r;   /* assignments, -1 at the hole row and column */
    const int64_t *ebuf, *vbuf, *ubuf; /* the draw blocks */
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
    /* Read by walk_states only: */
    const state_move *moves; /* 2n per state, by draw */
    const int64_t *states; /* each state's r2c, n per state, ascending */
    const int64_t *keys;  /* each state's tally key */
    int64_t nstates;
} walk_state;

/* Both kernels start on a cache line, so that where their loops fall, and
 * with that their speed, does not move with the code size of what is linked
 * before them: at n = 4 the four placements of a 16-byte-aligned walk ran
 * up to 1.5 % apart. _walk.c is linked first (_native.library_path), so
 * only walk's own size moves walk_states. */
__attribute__((aligned(64))) void walk(walk_state *s)
{
    int64_t steps = s->left;
    const int64_t n = s->n, nn = n * n, cube = nn * n;
    const int64_t *edge = s->edge;
    const int64_t *drops = s->accept, *completions = drops + nn;
    /* The row-move and column-move entries with dk = 0. */
    const int64_t *row_moves = drops + 2 * nn + cube;
    const int64_t *column_moves = drops + 2 * nn + 4 * cube;
    int64_t *r2c = s->r2c, *c2r = s->c2r;
    int64_t hu = s->hu, hv = s->hv, k = s->k;
    const int64_t *ebuf = s->ebuf, *vbuf = s->vbuf, *ubuf = s->ubuf;
    const int64_t size = s->size;
    int64_t epos = s->pos[0], vpos = s->pos[1], upos = s->pos[2];
    const int64_t spacing = s->spacing;
    int64_t countdown = s->countdown;
    int64_t *counts = s->counts, *seen = s->seen;
    int64_t nseen = s->nseen;

    for (; steps > 0; steps--) {
        int64_t dk, x, z = 0, w = 0;
        int move; /* 0 drop, 1 complete, 2 matched row, 3 matched column */
        int64_t ratio;
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
        const int64_t draw = ratio >= 0;
        if (upos >= size && draw) {
            s->need = NEED_UNIT;
            break;
        }
        const int64_t accept = accepted(ratio, ubuf[upos < size ? upos : size - 1]);
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

/* The index of the state whose row assignment is r2c: the lower bound of a
 * binary search, the states being in ascending order of their assignments,
 * compared row by row. */
static int64_t state_index(const walk_state *s)
{
    const int64_t n = s->n, *r2c = s->r2c;
    int64_t lo = 0, hi = s->nstates - 1;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        const int64_t *a = s->states + mid * n;
        int64_t u = 0;
        while (u < n - 1 && a[u] == r2c[u])
            u++;
        if (a[u] < r2c[u])
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* walk on the enumerated states; see the top of this file. */
__attribute__((aligned(64))) void walk_states(walk_state *s)
{
    int64_t steps = s->left;
    const int64_t n = s->n, width = 2 * n;
    const state_move *moves = s->moves;
    const int64_t *ebuf = s->ebuf, *vbuf = s->vbuf, *ubuf = s->ubuf;
    const int64_t size = s->size;
    int64_t epos = s->pos[0], vpos = s->pos[1], upos = s->pos[2];
    const int64_t spacing = s->spacing;
    int64_t countdown = s->countdown;
    int64_t *counts = s->counts, *seen = s->seen;
    int64_t nseen = s->nseen;
    /* The state, as the index of its first move and as its key. */
    int64_t first = state_index(s) * width, key = s->keys[first / width];

    for (; steps > 0; steps--) {
        /* A perfect state's key is its k, at most n. The choice of draw
         * block is a branch: predicted, it lets the draw be read before the
         * state is known, and a branch-free choice ran a quarter slower at
         * n = 4 to 6. */
        const int64_t perfect = key <= n;
        const int64_t pos = perfect ? epos : vpos;
        if (pos >= size) {
            s->need = perfect ? NEED_EDGE : NEED_VERT;
            break;
        }
        const state_move *move = moves + first + (perfect ? ebuf : vbuf)[pos];
        const int64_t ratio = move->accept;
        const int64_t draw = ratio >= 0;
        if (upos >= size && draw) {
            s->need = NEED_UNIT;
            break;
        }
        /* All ones when accepted. A plain `accept ? next : first` came out
         * as a branch, one mispredict on most annealed steps. */
        const int64_t accept = -accepted(ratio, ubuf[upos < size ? upos : size - 1]);
        upos += draw;
        epos += perfect;
        vpos += !perfect;
        first ^= (first ^ move->next) & accept;
        key ^= (key ^ move->key) & accept;
        if (--countdown == 0) {
            if (counts[key]++ == 0)
                seen[nseen++] = key;
            countdown = spacing;
        }
    }

    const int64_t *r2c = s->states + first / width * n;
    const int64_t cell = key / (n + 1);
    for (int64_t v = 0; v < n; v++)
        s->c2r[v] = -1;
    for (int64_t u = 0; u < n; u++) {
        s->r2c[u] = r2c[u];
        if (r2c[u] >= 0)
            s->c2r[r2c[u]] = u;
    }
    s->hu = cell ? (cell - 1) / n : -1;
    s->hv = cell ? (cell - 1) % n : -1;
    s->k = key % (n + 1);
    s->pos[0] = epos;
    s->pos[1] = vpos;
    s->pos[2] = upos;
    s->countdown = countdown;
    s->nseen = nseen;
    s->left = steps;
}
