import itertools

import pytest

from permlab import _native, rng
from permlab.rng import BufferedDraws

# Every ordered pair of refill kinds (edge, vertex, unit) appears in this
# sequence, so each refill is checked after each kind of refill before it.
REFILL_SEQUENCE = "".join(a + b for a, b in itertools.product("evu", repeat=2))


def refill_blocks(n, buffer_size):
    draws = BufferedDraws(n, n, buffer_size=buffer_size)
    refill = {"e": draws.refill_edge, "v": draws.refill_vert, "u": draws.refill_unit}
    return [bytes(refill[kind]()) for kind in REFILL_SEQUENCE]


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
    compiled = refill_blocks(n, buffer_size)
    monkeypatch.setattr(rng, "_refill_kernels", lambda: None)
    assert refill_blocks(n, buffer_size) == compiled


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
