"""Square {0,1} matrices, bipartite matchings, random instances, and file I/O.

A matrix is read as the adjacency matrix of a bipartite graph with n row
vertices and n column vertices; entry (u, v) is 1 when edge (u, v) is present.
The matrix permanent then counts the graph's perfect matchings.

File format (.pmat): line 1 is the decimal side length n, lines 2..n+1 each
hold exactly n characters from {0,1} with no separators. A trailing newline
is optional.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import generator


class MatrixParseError(ValueError):
    """Raised for malformed matrix text; the message names the line."""


@dataclass(frozen=True)
class Matrix:
    """Immutable n x n matrix of bits, row-major."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"matrix side must be >= 1, got {self.n}")
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise ValueError(f"expected {self.n}x{self.n} entries")
        if any(cell not in (0, 1) for r in self.rows for cell in r):
            raise ValueError("entries must be 0 or 1")

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = tuple(tuple(int(cell) for cell in row) for row in rows)
        return cls(len(rows), rows)

    def ones_count(self) -> int:
        return sum(sum(row) for row in self.rows)

    def row_masks(self) -> list[int]:
        """Each row as a bitmask with bit v set when entry (u, v) is 1."""
        return [sum(1 << v for v, cell in enumerate(row) if cell) for row in self.rows]

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.rows))


@dataclass(frozen=True)
class Matching:
    """A perfect or near-perfect matching on the complete bipartite graph.

    ``hole`` is None for a perfect matching (n pairs, every row and column
    covered once). A near-perfect matching has n-1 pairs and leaves exactly
    the hole's row and column uncovered.
    """

    n: int
    pairs: frozenset[tuple[int, int]]
    hole: tuple[int, int] | None = None

    @property
    def is_perfect(self) -> bool:
        return self.hole is None

    def validate(self) -> None:
        rows = [u for u, _ in self.pairs]
        cols = [v for _, v in self.pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("matching reuses a row or column")
        if any(not (0 <= u < self.n and 0 <= v < self.n) for u, v in self.pairs):
            raise ValueError("pair index out of range")
        if self.hole is None:
            if len(self.pairs) != self.n:
                raise ValueError(f"perfect matching needs {self.n} pairs")
        else:
            hu, hv = self.hole
            if len(self.pairs) != self.n - 1:
                raise ValueError(f"near-perfect matching needs {self.n - 1} pairs")
            if hu in rows or hv in cols:
                raise ValueError("hole row or column is covered by a pair")

    def row_to_col(self) -> list[int]:
        """Row assignment array with -1 at the hole row."""
        out = [-1] * self.n
        for u, v in self.pairs:
            out[u] = v
        return out

    @classmethod
    def from_row_to_col(cls, assignment) -> "Matching":
        n = len(assignment)
        pairs = frozenset((u, v) for u, v in enumerate(assignment) if v >= 0)
        holes = [u for u, v in enumerate(assignment) if v < 0]
        if not holes:
            return cls(n, pairs, None)
        if len(holes) > 1:
            raise ValueError("more than one uncovered row")
        missing_col = (set(range(n)) - {v for v in assignment if v >= 0}).pop()
        return cls(n, pairs, (holes[0], missing_col))


def parse_matrix(text: str) -> Matrix:
    """Parse .pmat text into a Matrix.

    Raises MatrixParseError naming the offending line for a bad header, a
    row of the wrong length, a non-{0,1} character, or missing/extra rows.
    """
    lines = text.split("\n")
    # A single trailing newline leaves one empty final chunk; drop it.
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MatrixParseError("line 1: empty input, expected matrix size")
    header = lines[0].strip()
    if not header.isdigit() or int(header) < 1:
        raise MatrixParseError(f"line 1: malformed size header {header!r}")
    n = int(header)
    if len(lines) - 1 < n:
        raise MatrixParseError(f"line {len(lines) + 1}: expected {n} rows, found {len(lines) - 1}")
    if len(lines) - 1 > n:
        raise MatrixParseError(f"line {n + 2}: unexpected content after {n} rows")
    rows = []
    for idx, line in enumerate(lines[1:], start=2):
        if len(line) != n:
            raise MatrixParseError(f"line {idx}: expected {n} characters, found {len(line)}")
        bad = next((c for c in line if c not in "01"), None)
        if bad is not None:
            raise MatrixParseError(f"line {idx}: invalid character {bad!r}")
        rows.append(tuple(int(c) for c in line))
    return Matrix(n, tuple(rows))


def serialize_matrix(m: Matrix) -> str:
    lines = [str(m.n)]
    lines.extend("".join(str(cell) for cell in row) for row in m.rows)
    return "\n".join(lines) + "\n"


def load_matrix(path) -> Matrix:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return parse_matrix(text)


def save_matrix(m: Matrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_matrix(m))


def generate_random(n: int, ones: int, seed: int) -> Matrix:
    """Random n x n {0,1} matrix with exactly ``ones`` one-entries.

    Cell positions are drawn uniformly without replacement from the n*n
    cells using a PCG64 generator, so the result is a pure function of
    (n, ones, seed).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= ones <= n * n:
        raise ValueError(f"ones must be in [0, {n * n}], got {ones}")
    gen = generator(seed)
    positions = gen.choice(n * n, size=ones, replace=False)
    cells = [[0] * n for _ in range(n)]
    for pos in positions:
        cells[int(pos) // n][int(pos) % n] = 1
    return Matrix(n, tuple(tuple(row) for row in cells))


def find_perfect_matching(m: Matrix) -> Matching | None:
    """A perfect matching using only 1-entries of m, or None.

    Augmenting-path search over rows in index order, each trying its ones
    in column order, so the witness is deterministic for a given matrix. The
    path is a list, not a recursion, so any n works.
    """
    n = m.n
    ones = [[v for v, cell in enumerate(row) if cell] for row in m.rows]
    col_owner = [-1] * n
    for root in range(n):
        visited = [False] * n
        # Each row on the path: [row, index of its next untried one, column taken].
        path = [[root, 0, -1]]
        while path:
            step = path[-1]
            row_ones, i = ones[step[0]], step[1]
            while i < len(row_ones) and visited[row_ones[i]]:
                i += 1
            if i == len(row_ones):
                path.pop()
                continue
            v = step[2] = row_ones[i]
            step[1] = i + 1
            if col_owner[v] < 0:
                for u, _, w in path:
                    col_owner[w] = u
                break
            visited[v] = True
            path.append([col_owner[v], 0, -1])
        else:
            return None
    pairs = frozenset((col_owner[v], v) for v in range(n))
    return Matching(n, pairs, None)
