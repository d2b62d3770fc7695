/* The compiled kernels of ChainSampler.walk: walk_states, which runs up to
 * n = chain.STATE_WALK_LIMIT (6), and walk, which runs above it; and, at the
 * end, the draw refills of BufferedDraws, fill_bounded and fill_unit, and
 * acceptance_thresholds, which builds the acceptance table.
 * ChainSampler._python_walk in chain.py is the third kernel: the fallback
 * where the library cannot be built or loaded, and the oracle of the other
 * two. All three keep one contract: the same move rules, draw order and
 * spaced tally, step for step, on the state of one walk_state struct.
 *
 * No walk kernel does any floating-point arithmetic. Each step reads its
 * move's entry of the stage's acceptance table, which
 * chain.acceptance_table fills once per stage (layout in its docstring),
 * through acceptance_thresholds below: NO_DRAW (-1) accepts without a unit
 * draw, and any other entry, a threshold T in [0, 2^53], accepts when the
 * next unit draw u, a 53-bit integer, is below it. u < T holds exactly when
 * the reference chain's u * 2^-53 < exp(delta) does (see
 * acceptance_thresholds), so every acceptance decision is the same on all
 * three kernels and on the reference step.
 *
 * A unit draw is consumed exactly when the entry is not NO_DRAW. The
 * compiled kernels read a unit value on every step, at the read position,
 * so that they need no branch on the entry, and compare it with the entry
 * unsigned; on a NO_DRAW step that value decides nothing, since NO_DRAW is
 * then 2^64 - 1, above any unit value: a stale one, or the 0 that
 * BufferedDraws keeps one entry past the unit block's end, which a NO_DRAW
 * step at a used-up block reads.
 *
 * walk_states walks the (n + 1)! states of chain.enumerate_states by index,
 * on a table of one state_move per state and draw (the edge index from a
 * perfect state, the vertex index otherwise): the state that the reference
 * propose makes, from chain.state_moves, and the move's acceptance entry,
 * which ChainSampler.set_weights gathers from the acceptance table. So a step
 * is one table read, the unit-draw test, and a select of the next state
 * with no branch on the outcome (select_accepted). It finds the state in
 * r2c on entry and writes r2c, c2r, the hole and k back on return.
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
 *
 * The refills are numpy's PCG64 and the two Generator methods the chain
 * draws with, bit for bit. PCG64 is the 128-bit LCG state <- state *
 * MULTIPLIER + inc, whose output is the XSL-RR permutation of the advanced
 * state. numpy hands out 32-bit words in halves of one 64-bit output,
 * carrying the unused high half in has_uint32/uinteger across calls, and so
 * do the refills. fill_bounded is Generator.integers(0, high, size=count)
 * for int64: the scalar-bound path of numpy's random_bounded_uint64_fill,
 * which for high - 1 = rng < 2^32 - 1 draws each value with
 * buffered_bounded_lemire_uint32 (Lemire's multiply-shift with rejection),
 * and for rng == 0 writes zeros and consumes no draw. fill_unit is
 * Generator.random(size=count) before its scaling: it stores next64 >> 11,
 * which numpy multiplies by 2^-53.
 *
 * The step of PCG64 and the step of walk_states are two serial chains with
 * no data in common, so walk_states runs the first alongside the second:
 * while the generator's ring has room, each step also advances a register
 * copy of the 128-bit state by one output and appends that output to the
 * ring, which rng always has here: a ChainSampler runs walk_states only on
 * draws that these refills make (BufferedDraws.generate_ahead). The refills
 * take the waiting outputs first and generate the rest directly. The output
 * sequence does not depend on where an output was generated, so neither do
 * the blocks. walk does not generate ahead: that made it 1-2 % slower at
 * n = 8 and 16, and 6-9 % slower at n = 32 and 48.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

/* Raw outputs a generator's ring holds; rng._RING_WORDS is the same. */
enum { RING_WORDS = 1 << 16 };

typedef struct {
    uint64_t state[2];    /* low and high 64-bit words */
    uint64_t inc[2];
    int64_t has_uint32;   /* a high half is waiting in uinteger */
    uint64_t uinteger;
    /* RING_WORDS outputs, or NULL (then head == tail): those at
     * ring[head..tail) modulo RING_WORDS, oldest first, are the next
     * outputs, and state is the one after the newest. They only grow. */
    uint64_t *ring;
    int64_t head, tail;
} pcg64_state;

/* The 128-bit value of a low and a high 64-bit word. */
static inline u128 u128_of(const uint64_t words[2])
{
    return ((u128)words[1] << 64) | words[0];
}

static inline u128 pcg_advance(u128 state, u128 inc)
{
    const u128 multiplier = ((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;
    return state * multiplier + inc;
}

static inline uint64_t pcg_output(u128 state)
{
    const uint64_t high = (uint64_t)(state >> 64);
    const uint64_t word = high ^ (uint64_t)state;
    const unsigned rot = (unsigned)(high >> 58);
    return (word >> rot) | (word << ((64 - rot) & 63));
}

/* The next output, generated from the state; the ring must be empty. */
static inline uint64_t next64(pcg64_state *s)
{
    const u128 state = pcg_advance(u128_of(s->state), u128_of(s->inc));
    s->state[0] = (uint64_t)state;
    s->state[1] = (uint64_t)(state >> 64);
    return pcg_output(state);
}

/* The next output: the oldest one waiting in the ring, or a new one. */
static inline uint64_t next64_ahead(pcg64_state *s)
{
    if (s->head != s->tail)
        return s->ring[s->head++ & (RING_WORDS - 1)];
    return next64(s);
}

enum { NEED_EDGE = 0, NEED_VERT = 1, NEED_UNIT = 2 };

/* One move of walk_states' table: its acceptance entry, and the state it
 * proposes, as the byte offset of that state's first move in the table (its
 * index times 2n times 16) and as its tally key. */
typedef struct {
    int64_t accept;
    int32_t next, key;
} state_move;

typedef struct {
    int64_t n;
    const int64_t *edge;  /* n * n instance matrix, row-major, 0 or 1 */
    const int64_t *accept; /* 2 n^2 + 6 n^3 acceptance entries */
    int64_t *r2c, *c2r;   /* assignments, -1 at the hole row and column */
    const int64_t *ebuf, *vbuf; /* the draw blocks: edge and vertex indices, */
    const uint64_t *ubuf; /* and unit draws */
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
    pcg64_state *rng;     /* the generator to run ahead, with its ring */
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
    const int64_t *ebuf = s->ebuf, *vbuf = s->vbuf;
    const uint64_t *ubuf = s->ubuf;
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
        const int64_t accept = ubuf[upos] < (uint64_t)ratio;
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

/* *first and *key become next and next_key where the unit draw u is
 * below the entry t, compared unsigned. On x86-64 a cmp and two cmovb: a
 * C ternary, even with __builtin_expect_with_probability at 0.5, came out
 * of gcc 12 as branches, which mispredict on most annealed steps, and the
 * mask select below puts a cmp/sbb/and/xor on the loop's serial chain. */
static inline void select_accepted(uint64_t u, uint64_t t, int64_t *first, int64_t *key,
                                   int64_t next, int64_t next_key)
{
#if defined(__x86_64__)
    __asm__("cmpq %[t], %[u]\n\t"
            "cmovbq %[next], %[first]\n\t"
            "cmovbq %[next_key], %[key]"
            : [first] "+r"(*first), [key] "+r"(*key)
            : [u] "rm"(u), [t] "r"(t), [next] "r"(next), [next_key] "r"(next_key)
            : "cc");
#else
    const int64_t accept = -(int64_t)(u < t); /* all ones when accepted */
    *first ^= (*first ^ next) & accept;
    *key ^= (*key ^ next_key) & accept;
#endif
}

/* walk on the enumerated states; see the top of this file. */
__attribute__((aligned(64))) void walk_states(walk_state *s)
{
    int64_t steps = s->left;
    /* The bytes of one state's 2n moves. */
    const int64_t n = s->n, state_bytes = 2 * n * (int64_t)sizeof(state_move);
    const state_move *moves = s->moves;
    const int64_t *ebuf = s->ebuf, *vbuf = s->vbuf;
    const uint64_t *ubuf = s->ubuf;
    const int64_t size = s->size;
    int64_t epos = s->pos[0], vpos = s->pos[1], upos = s->pos[2];
    const int64_t spacing = s->spacing;
    int64_t countdown = s->countdown;
    int64_t *counts = s->counts, *seen = s->seen;
    int64_t nseen = s->nseen;
    /* The state, as the byte offset of its first move and as its key. */
    const int64_t index = state_index(s);
    int64_t first = index * state_bytes, key = s->keys[index];
    /* The generator run ahead: its state, and the ring's tail, which may
     * reach `full`. */
    pcg64_state *const rng = s->rng;
    uint64_t *const ring = rng->ring;
    const u128 inc = u128_of(rng->inc);
    u128 state = u128_of(rng->state);
    int64_t tail = rng->tail;
    const int64_t full = rng->head + RING_WORDS;

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
        /* The draw's part of the address, formed before the state's, so
         * that one add is on the serial chain, not two; the empty asm keeps
         * gcc from reassociating the sum. */
        const char *row = (const char *)(moves + (perfect ? ebuf : vbuf)[pos]);
        __asm__("" : "+r"(row));
        const state_move *move = (const state_move *)(row + first);
        const int64_t ratio = move->accept;
        const int64_t draw = ratio >= 0;
        if (upos >= size && draw) {
            s->need = NEED_UNIT;
            break;
        }
        select_accepted(ubuf[upos], (uint64_t)ratio, &first, &key, move->next, move->key);
        upos += draw;
        epos += perfect;
        vpos += !perfect;
        if (--countdown == 0) {
            if (counts[key]++ == 0)
                seen[nseen++] = key;
            countdown = spacing;
        }
        /* One output ahead per step taken, while the ring has room. */
        if (tail < full) {
            state = pcg_advance(state, inc);
            ring[tail++ & (RING_WORDS - 1)] = pcg_output(state);
        }
    }

    const int64_t *r2c = s->states + first / state_bytes * n;
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
    rng->state[0] = (uint64_t)state;
    rng->state[1] = (uint64_t)(state >> 64);
    rng->tail = tail;
}

static inline uint32_t next32(pcg64_state *s, int ahead)
{
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return (uint32_t)s->uinteger;
    }
    uint64_t next = ahead ? next64_ahead(s) : next64(s);
    s->has_uint32 = 1;
    s->uinteger = next >> 32;
    return (uint32_t)next;
}

/* One integer uniform on [0, rng_excl), by Lemire's multiply-shift with
 * rejection, taking its 32-bit words from the ring first. */
static inline int64_t bounded_ahead(pcg64_state *s, uint32_t rng_excl)
{
    uint64_t m = (uint64_t)next32(s, 1) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - (rng_excl - 1)) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)next32(s, 1) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* Fills out[0..count) with integers uniform on [0, rng_excl) from the
 * waiting outputs, until they or out run out, and returns how many it
 * wrote. While no half is carried, an output makes two values, its low
 * half first, unless either half reaches the rejection test; then, and for
 * a last odd value, it makes one value by the exact path. Not inlined, so
 * that fill_bounded's own loop compiles as it would without a ring. */
static __attribute__((noinline)) int64_t
bounded_waiting(pcg64_state *s, uint32_t rng_excl, int64_t *out, int64_t count)
{
    int64_t i = 0;
    while (i < count && s->head != s->tail) {
        if (!s->has_uint32) {
            const uint64_t *ring = s->ring;
            int64_t head = s->head;
            const int64_t tail = s->tail;
            for (; i + 1 < count && head != tail; head++, i += 2) {
                const uint64_t word = ring[head & (RING_WORDS - 1)];
                const uint64_t low = (word & UINT32_MAX) * rng_excl;
                const uint64_t high = (word >> 32) * rng_excl;
                if ((uint32_t)low < rng_excl || (uint32_t)high < rng_excl)
                    break;
                out[i] = (int64_t)(low >> 32);
                out[i + 1] = (int64_t)(high >> 32);
            }
            s->head = head;
            if (i == count || head == tail)
                break;
        }
        out[i++] = bounded_ahead(s, rng_excl);
    }
    return i;
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
    /* numpy's loop itself, as it was before the ring: written out, not
     * as bounded_ahead without the ring, because then gcc 12 stored
     * has_uint32 late and the loop ran at 1.27 ns per value, not 1.01. */
    for (int64_t i = bounded_waiting(s, rng_excl, out, count); i < count; i++) {
        uint64_t m = (uint64_t)next32(s, 0) * rng_excl;
        uint32_t leftover = (uint32_t)m;
        if (leftover < rng_excl) {
            const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
            while (leftover < threshold) {
                m = (uint64_t)next32(s, 0) * rng_excl;
                leftover = (uint32_t)m;
            }
        }
        out[i] = (int64_t)(m >> 32);
    }
}

/* Fills out[0..count) with unit draws: integers uniform on [0, 2^53). */
void fill_unit(pcg64_state *s, uint64_t *out, int64_t count)
{
    int64_t i = 0;
    /* The waiting outputs, in at most two runs: to the ring's end, and
     * from its start. */
    while (i < count && s->head != s->tail) {
        const int64_t start = s->head & (RING_WORDS - 1);
        int64_t run = s->tail - s->head;
        if (run > RING_WORDS - start)
            run = RING_WORDS - start;
        if (run > count - i)
            run = count - i;
        const uint64_t *words = s->ring + start;
        for (int64_t j = 0; j < run; j++)
            out[i + j] = words[j] >> 11;
        s->head += run;
        i += run;
    }
    for (; i < count; i++)
        out[i] = next64(s) >> 11;
}

/* The acceptance entry of a move accepted without a unit draw: chain.NO_DRAW. */
enum { NO_DRAW = -1 };

/* Rewrites count log-weight differences delta, doubles, in place as their
 * acceptance entries, int64: NO_DRAW where delta >= 0, 0 where delta is
 * NaN, and otherwise T = ceil(2^53 exp(delta)), with libm's exp, the one
 * math.exp calls. chain.acceptance_table's list comprehension is the same
 * rule in Python, and its oracle.
 *
 * For a unit draw u, an integer in [0, 2^53), u < T holds exactly when
 * u * 2^-53 < exp(delta), the reference step's test: x = 2^53 exp(delta)
 * is exact (a power-of-two scaling of a double in [0, 1], subnormals
 * included), and an integer is below the ceiling of a real exactly when it
 * is below the real. So T is 0 where exp(delta) is 0, 1 where it is a
 * subnormal or below 2^-53, and 2^53 where it is 1.0. The ceiling is the
 * truncation of x, plus 1 where that is below x, both exact for x in
 * [0, 2^53]: calls to ldexp and ceil took a third of the pass. */
void acceptance_thresholds(void *table, int64_t count)
{
    char *entry = table;
    for (int64_t i = 0; i < count; i++, entry += sizeof(int64_t)) {
        double delta;
        memcpy(&delta, entry, sizeof delta);
        int64_t t = NO_DRAW;
        if (isnan(delta)) {
            t = 0;
        } else if (delta < 0.0) {
            const double x = exp(delta) * 0x1p53;
            t = (int64_t)x;
            t += (double)t < x;
        }
        memcpy(entry, &t, sizeof t);
    }
}
