import math
import random

import pytest

from permlab import Matrix, generate_random, parse_matrix, permanent_naive, permanent_ryser
from permlab import exact
from permlab.exact import KERNEL_LIMIT, gray_code_subsets

FIG = parse_matrix("3\n101\n110\n101\n")


def test_naive_known_values():
    assert permanent_naive(FIG) == 2
    identity = Matrix.from_rows([[int(i == j) for j in range(5)] for i in range(5)])
    assert permanent_naive(identity) == 1
    assert permanent_naive(Matrix.from_rows([[1] * 4] * 4)) == 24


def test_naive_guard():
    big = Matrix.from_rows([[1] * 13] * 13)
    with pytest.raises(ValueError, match="n <= 12"):
        permanent_naive(big)


def test_ryser_known_values():
    assert permanent_ryser(FIG) == 2
    assert permanent_ryser(Matrix.from_rows([[1] * 5] * 5)) == 120
    assert permanent_ryser(Matrix.from_rows([[1]])) == 1
    assert permanent_ryser(Matrix.from_rows([[0]])) == 0


def test_ryser_matches_naive_randomized(ryser_kernel):
    rng = random.Random(20240817)
    for trial in range(200):
        n = 1 + trial % 8
        ones = rng.randint(0, n * n)
        m = generate_random(n, ones, seed=rng.getrandbits(32))
        assert permanent_ryser(m) == permanent_naive(m)


def test_ryser_matches_naive_exhaustive_tiny(ryser_kernel):
    for n in (1, 2):
        for bits in range(1 << (n * n)):
            rows = tuple(
                tuple((bits >> (u * n + v)) & 1 for v in range(n)) for u in range(n)
            )
            m = Matrix(n, rows)
            assert permanent_ryser(m) == permanent_naive(m)


def test_permanent_in_factorial_range(ryser_kernel):
    for seed in range(40):
        n = 1 + seed % 7
        m = generate_random(n, (seed * 3) % (n * n + 1), seed=seed)
        value = permanent_ryser(m)
        assert 0 <= value <= math.factorial(n)


def test_permanent_invariant_under_permutations(ryser_kernel):
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 6)
        m = generate_random(n, rng.randint(0, n * n), seed=rng.getrandbits(32))
        reference = permanent_ryser(m)
        rows = list(m.rows)
        rng.shuffle(rows)
        assert permanent_ryser(Matrix.from_rows(rows)) == reference
        cols = list(range(n))
        rng.shuffle(cols)
        permuted = [[row[c] for c in cols] for row in m.rows]
        assert permanent_ryser(Matrix.from_rows(permuted)) == reference


def compiled_ryser():
    if exact._ryser_kernel() is None:
        pytest.skip("the compiled Ryser kernel cannot be built or loaded here")


@pytest.mark.parametrize("num, den", [(1, 4), (1, 2), (7, 8)])
def test_compiled_ryser_matches_python_ryser(num, den):
    # The sizes where the 64-bit row-product groups and the zero-row skip
    # first matter, at densities where most subsets are skipped and where
    # almost none are.
    compiled_ryser()
    rng = random.Random(num * 100 + den)
    for n in range(9, 17):
        for _ in range(2):
            m = generate_random(n, n * n * num // den, seed=rng.getrandbits(32))
            assert permanent_ryser(m) == exact._ryser_python(m)


def test_ryser_is_zero_with_a_zero_row_or_column(ryser_kernel):
    for n in (1, 2, 5, 9):
        for i in (0, n - 1):
            zero_row = [[int(u != i) for v in range(n)] for u in range(n)]
            zero_column = [[int(v != i) for v in range(n)] for u in range(n)]
            assert permanent_ryser(Matrix.from_rows(zero_row)) == 0
            assert permanent_ryser(Matrix.from_rows(zero_column)) == 0


def test_ryser_with_odd_and_even_row_sums(ryser_kernel):
    # The compiled kernel's doubled row value 2 sum_{j in S} a_uj + 2 a_u,n-1 - r_u
    # has the parity of the row sum r_u, so it can reach 0 only in a row with
    # an even sum. Rows all even, all odd, and alternating.
    rng = random.Random(11)
    for n in range(2, 10):
        for parity in ("even", "odd", "mixed"):
            rows = []
            for u in range(n):
                row = [int(rng.random() < 0.6) for _ in range(n)]
                odd = {"even": 0, "odd": 1, "mixed": u % 2}[parity]
                if sum(row) % 2 != odd:
                    row[rng.randrange(n)] ^= 1
                rows.append(row)
            m = Matrix.from_rows(rows)
            assert permanent_ryser(m) == permanent_naive(m)


@pytest.mark.parametrize("n", [21, 22, 29])
def test_compiled_ryser_is_exact_past_64_bits(n):
    # perm of the all-ones matrix is n!, which passes 2^64 at n = 21. At
    # n = 29 the kernel's sum, n! 2^(n-1) in magnitude, first passes 2^127.
    compiled_ryser()
    assert math.factorial(n) > 2**64
    assert permanent_ryser(Matrix.from_rows([[1] * n] * n)) == math.factorial(n)


def test_kernel_limit_is_the_last_n_whose_factorial_fits_128_bits():
    assert math.factorial(KERNEL_LIMIT) < 2**128 <= math.factorial(KERNEL_LIMIT + 1)
    # The bounds of _ryser.c: int64 product chains of at most 12 row values
    # of magnitude at most n, and a signed 192-bit sum of n! 2^(n-1) at most.
    assert math.ceil(KERNEL_LIMIT / 3) <= 12 and KERNEL_LIMIT**12 < 2**62
    assert math.factorial(KERNEL_LIMIT) << (KERNEL_LIMIT - 1) < 2**162


def test_ryser_runs_the_kernel_up_to_the_limit_and_python_above_it(monkeypatch):
    calls = []

    # The kernel's sum is (-1)^(n-1) 2^(n-1) perm, mod 2^192.
    perm = 5 + (7 << 64)
    total = (-perm << (KERNEL_LIMIT - 1)) % (1 << 192)

    def spy(state, end):
        calls.append((state.n, end))
        for i in range(3):
            state.total[i] = total >> (64 * i) & (1 << 64) - 1

    monkeypatch.setattr(exact, "_ryser_kernel", lambda: spy)
    monkeypatch.setattr(exact, "_ryser_python", lambda m: "python")
    ones = [[1] * KERNEL_LIMIT] * KERNEL_LIMIT
    assert permanent_ryser(Matrix.from_rows(ones)) == perm
    chunk = exact._RYSER_CHUNK
    subsets = 1 << (KERNEL_LIMIT - 1)
    assert calls == [(KERNEL_LIMIT, end) for end in range(chunk, subsets + 1, chunk)]
    del calls[:]
    big = Matrix.from_rows([[1] * (KERNEL_LIMIT + 1)] * (KERNEL_LIMIT + 1))
    assert permanent_ryser(big) == "python"
    assert calls == []


def test_compiled_ryser_resumes_across_kernel_calls(monkeypatch):
    # Ranges of 16 subsets: every permanent at n = 9..16 takes 16 to 2048
    # kernel calls, each resuming the Gray-code walk where the last stopped.
    compiled_ryser()
    kernel = exact._ryser_kernel()
    calls = 0

    def counted(state, end):
        nonlocal calls
        calls += 1
        kernel(state, end)

    monkeypatch.setattr(exact, "_ryser_kernel", lambda: counted)
    monkeypatch.setattr(exact, "_RYSER_CHUNK", 1 << 4)
    rng = random.Random(5)
    for n in range(9, 17):
        for num, den in ((1, 4), (7, 8)):
            m = generate_random(n, n * n * num // den, seed=rng.getrandbits(32))
            calls = 0
            assert permanent_ryser(m) == exact._ryser_python(m)
            assert calls == 1 << (n - 5)


def test_gray_sequence_small():
    masks = [mask for mask, _, _ in gray_code_subsets(2)]
    assert masks == [0b01, 0b11, 0b10]


def test_gray_sequence_properties():
    for n in (1, 3, 5):
        seen = []
        prev = 0
        for mask, flipped, direction in gray_code_subsets(n):
            changed = mask ^ prev
            assert changed == 1 << flipped
            assert direction == (1 if mask & changed else -1)
            seen.append(mask)
            prev = mask
        assert len(seen) == (1 << n) - 1
        assert len(set(seen)) == (1 << n) - 1
        assert 0 not in seen


def test_gray_sequence_distinctness_n16():
    masks = {mask for mask, _, _ in gray_code_subsets(16)}
    assert len(masks) == 65535


def test_gray_bounds():
    with pytest.raises(ValueError):
        list(gray_code_subsets(0))
    with pytest.raises(ValueError):
        list(gray_code_subsets(64))
