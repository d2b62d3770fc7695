import itertools

import numpy as np
import pytest

from permlab import Matrix, _native, chain, rng
from permlab.rng import BufferedDraws

# Every ordered pair of refill kinds (edge, vertex, unit) appears in this
# sequence, so each refill is checked after each kind of refill before it.
REFILL_SEQUENCE = "".join(a + b for a, b in itertools.product("evu", repeat=2))


def ahead_walker(draws):
    """A walk_states sampler at n = 4, on draws of its own, that generates
    ahead into the generator of ``draws``: one output per step it takes,
    while the ring has room."""
    if chain._state_walk_kernel() is None:
        pytest.skip("the walk_states kernel cannot be built or loaded here")
    m = Matrix.from_rows([[1] * 4] * 4)
    walker = chain.ChainSampler(chain.WeightTable.initial(m), chain.enumerate_states(4)[0], BufferedDraws(1, 4))
    walker._state.rng = draws.generate_ahead()
    return walker


def refill_blocks(n, buffer_size, ahead=False):
    """The blocks of REFILL_SEQUENCE, and with ``ahead`` the cases of waiting
    outputs that the refills met: "used" (a refill took waiting outputs),
    "carried" (one began with a half carried and outputs waiting), "part"
    (one emptied the ring and generated more) and "wrap" (one took outputs
    across the ring's end)."""
    draws = BufferedDraws(n, n, buffer_size=buffer_size)
    refill = {"e": draws.refill_edge, "v": draws.refill_vert, "u": draws.refill_unit}
    walker = ahead_walker(draws) if ahead else None
    blocks, cases = [], set()
    for j, kind in enumerate(REFILL_SEQUENCE):
        if walker is None:
            blocks.append(bytes(refill[kind]()))
            continue
        waiting, steps = draws.ahead, (0, 1, buffer_size // 2, buffer_size + 1)[j % 4]
        walker.walk(steps)
        # One output per step, until the ring is full.
        assert draws.ahead == min(waiting + steps, rng._RING_WORDS)
        pcg = draws._pcg
        head, tail, carried, state = pcg.head, pcg.tail, pcg.has_uint32, list(pcg.state)
        blocks.append(bytes(refill[kind]()))
        if pcg.head > head:
            cases.add("used")
            if carried:
                cases.add("carried")
            if pcg.head == tail and list(pcg.state) != state:
                cases.add("part")
            if head // rng._RING_WORDS != (pcg.head - 1) // rng._RING_WORDS:
                cases.add("wrap")
    return blocks, cases


# n = 1 draws edge indices from integers(0, 1), which numpy fills without
# consuming a draw. n = 2^30 + 1 puts the Lemire rejection threshold near
# 2^30 for edges and 2^31 for vertices, so about a quarter and a half of
# all draws are rejected; at the small sizes rejection is all but never
# reached. Odd buffer sizes leave half of a 64-bit output carried over to
# the next bounded refill, across any unit refills between them.
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 33, (1 << 30) + 1])
@pytest.mark.parametrize("buffer_size", [1, 3, 50, 1 << 16])
def test_compiled_refills_match_the_numpy_generator(n, buffer_size, monkeypatch):
    if rng._refill_kernels() is None:
        pytest.skip("the compiled refill kernels cannot be built or loaded here")
    compiled, _ = refill_blocks(n, buffer_size)
    # Again with outputs that walk_states generated ahead waiting before
    # each refill: none, one, half a block's worth or more than a block's.
    ahead, cases = refill_blocks(n, buffer_size, ahead=True)
    assert "used" in cases
    if buffer_size % 2:
        assert "carried" in cases
    if buffer_size > 1:
        assert "part" in cases
    if buffer_size == 1 << 16:
        assert "wrap" in cases
    monkeypatch.setattr(rng, "_refill_kernels", lambda: None)
    assert refill_blocks(n, buffer_size)[0] == compiled == ahead


@pytest.mark.parametrize("fills", ["compiled", "ahead", "numpy"])
def test_unit_draws_scale_to_the_numpy_generators_random(fills, monkeypatch):
    # A unit draw is the integer that Generator.random() scales by 2^-53:
    # unit() must give numpy's value, value for value, whether the compiled
    # refill generates its outputs, takes them from the ring, or numpy fills
    # the block.
    if fills == "numpy":
        monkeypatch.setattr(rng, "_refill_kernels", lambda: None)
    elif rng._refill_kernels() is None:
        pytest.skip("the compiled refill kernels cannot be built or loaded here")
    size, blocks = 1000, 6
    draws = BufferedDraws(11, 4, buffer_size=size)
    walker = ahead_walker(draws) if fills == "ahead" else None
    units = []
    for block in range(blocks):
        if walker is not None:
            walker.walk((0, 300, 2 * size)[block % 3])
        units += [draws.unit() for _ in range(size)]
    if walker is not None:
        assert draws._pcg.head > 0
    expected = np.random.Generator(np.random.PCG64(11)).random(size * blocks)
    assert units == expected.tolist()
    assert all(0 <= u < 2**53 for u in draws.unit_buf)


def test_a_walk_on_states_leaves_outputs_waiting_that_the_next_refill_takes():
    # A library that loads walk_states but never generates ahead gives the
    # same blocks, only more slowly, so no fingerprint shows it; this does.
    if chain._state_walk_kernel() is None or rng._refill_kernels() is None:
        pytest.skip("the compiled kernels cannot be built or loaded here")
    m = Matrix.from_rows([[1] * 4] * 4)
    draws = BufferedDraws(5, 4)
    chain.ChainSampler(chain.WeightTable.initial(m), chain.enumerate_states(4)[0], draws).walk(10_000)
    waiting, head = draws.ahead, draws._pcg.head
    assert waiting > 0
    draws.refill_unit()
    assert draws._pcg.head == head + waiting and draws.ahead == 0


@pytest.mark.parametrize("fills", ["compiled", "numpy"])
def test_refills_rewrite_their_blocks_in_place(fills, monkeypatch):
    # A sampler points its compiled kernel at each block once, when it is
    # made, and its Python kernel indexes the block's one view.
    if fills == "numpy":
        monkeypatch.setattr(rng, "_refill_kernels", lambda: None)
    elif rng._refill_kernels() is None:
        pytest.skip("the compiled refill kernels cannot be built or loaded here")
    draws = BufferedDraws(0, 3, buffer_size=4)
    for kind in ("edge", "vert", "unit"):
        view = getattr(draws, f"{kind}_buf")
        address = _native.address(view)
        for _ in range(3):
            refilled = getattr(draws, f"refill_{kind}")()
            assert refilled is view and getattr(draws, f"{kind}_buf") is view
            assert _native.address(refilled) == address


def test_buffered_draws_refuse_an_n_out_of_range():
    for n in (0, 1 << 31):
        with pytest.raises(ValueError, match="n must be"):
            BufferedDraws(0, n)


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_a_seed_that_is_not_a_nonnegative_integer_is_named(seed):
    for make in (lambda: BufferedDraws(seed, 4), lambda: rng.generator(seed)):
        with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed}"):
            make()
