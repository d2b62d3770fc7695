import sys

import pytest

from permlab import (
    Matrix,
    MatrixParseError,
    generate_random,
    parse_matrix,
    permanent_naive,
    serialize_matrix,
)
from permlab.matrix import Matching, find_perfect_matching

FIG_TEXT = "3\n101\n110\n101\n"


def test_parse_basic():
    m = parse_matrix(FIG_TEXT)
    assert m.n == 3
    assert m.rows == ((1, 0, 1), (1, 1, 0), (1, 0, 1))


def test_parse_smallest():
    m = parse_matrix("1\n1\n")
    assert m.n == 1
    assert m.rows == ((1,),)


def test_parse_no_trailing_newline():
    assert parse_matrix("2\n10\n01") == parse_matrix("2\n10\n01\n")


def test_parse_ragged_row():
    with pytest.raises(MatrixParseError, match="line 3"):
        parse_matrix("2\n10\n1\n")


def test_parse_bad_header():
    with pytest.raises(MatrixParseError, match="line 1"):
        parse_matrix("x\n1\n")
    with pytest.raises(MatrixParseError, match="line 1"):
        parse_matrix("")


def test_parse_bad_character():
    with pytest.raises(MatrixParseError, match="line 2"):
        parse_matrix("2\n1a\n01\n")


def test_parse_missing_and_extra_rows():
    with pytest.raises(MatrixParseError):
        parse_matrix("3\n101\n110\n")
    with pytest.raises(MatrixParseError, match="line 4"):
        parse_matrix("2\n10\n01\n11\n")


def test_columns_transpose_the_rows():
    for seed in range(24):
        n = 1 + seed % 8
        m = generate_random(n, (n * n * (1 + seed % 3)) // 4, seed)
        cols = m.columns()
        assert len(cols) == n
        assert all(cols[v][u] == m.rows[u][v] for u in range(n) for v in range(n))


def test_round_trip_random():
    for seed in range(25):
        n = 1 + seed % 7
        m = generate_random(n, (n * n * (seed % 4)) // 4, seed)
        assert parse_matrix(serialize_matrix(m)) == m


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix(2, ((1, 0),))
    with pytest.raises(ValueError):
        Matrix(1, ((2,),))
    with pytest.raises(ValueError):
        Matrix(0, ())


def test_generate_exact_ones_count():
    m = generate_random(4, 12, seed=3)
    assert m.ones_count() == 12
    assert generate_random(4, 16, seed=3).rows == ((1,) * 4,) * 4
    assert generate_random(4, 0, seed=3).ones_count() == 0


def test_generate_out_of_range():
    with pytest.raises(ValueError):
        generate_random(4, 17, seed=0)
    with pytest.raises(ValueError):
        generate_random(4, -1, seed=0)


def test_generate_deterministic_and_seed_sensitive():
    assert generate_random(5, 13, seed=9) == generate_random(5, 13, seed=9)
    seen = {generate_random(5, 13, seed=s) for s in range(100)}
    assert len(seen) == 100


def test_find_perfect_matching_identity():
    m = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    pm = find_perfect_matching(m)
    assert pm is not None
    assert pm.pairs == frozenset({(0, 0), (1, 1), (2, 2)})


def test_find_perfect_matching_uses_only_edges():
    m = parse_matrix(FIG_TEXT)
    pm = find_perfect_matching(m)
    assert pm is not None
    pm.validate()
    assert all(m.rows[u][v] == 1 for u, v in pm.pairs)


def test_find_perfect_matching_zero_matrix():
    m = Matrix.from_rows([[0] * 3] * 3)
    assert find_perfect_matching(m) is None


def lower_bidiagonal(n: int, singular: bool = False) -> Matrix:
    """Ones at (u, u - 1) and (u, u); row u's augmenting path is u rows deep.

    ``singular`` zeroes the last row, so no perfect matching exists.
    """
    rows = [[1 if v in (u - 1, u) else 0 for v in range(n)] for u in range(n)]
    if singular:
        rows[-1] = [0] * n
    return Matrix.from_rows(rows)


def test_find_perfect_matching_past_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    pm = find_perfect_matching(lower_bidiagonal(n))
    assert pm is not None
    assert pm.pairs == frozenset((u, u) for u in range(n))
    assert find_perfect_matching(lower_bidiagonal(n, singular=True)) is None


def test_matching_existence_iff_positive_permanent():
    for seed in range(120):
        n = 2 + seed % 4
        ones = seed % (n * n + 1)
        m = generate_random(n, ones, seed=seed)
        witness = find_perfect_matching(m)
        if permanent_naive(m) > 0:
            assert witness is not None
            witness.validate()
        else:
            assert witness is None


def test_matching_validation_rules():
    good = Matching(2, frozenset({(0, 0), (1, 1)}))
    good.validate()
    near = Matching(2, frozenset({(1, 1)}), hole=(0, 0))
    near.validate()
    with pytest.raises(ValueError):
        Matching(2, frozenset({(0, 0)}), hole=None).validate()
    with pytest.raises(ValueError):
        Matching(2, frozenset({(0, 0)}), hole=(0, 1)).validate()
