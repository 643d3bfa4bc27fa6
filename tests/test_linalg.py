"""The sparse echelon kernel against a dense Gauss-Jordan oracle.

The reduced row echelon form of a row space is unique, so every result of
`linalg` (reduced rows, pivots, kernel vectors, solutions, reductions) must
equal the oracle's exactly, Fraction for Fraction.
"""

import random
from fractions import Fraction

import pytest

from toralrank import linalg


def dense_rref(rows):
    """Column sweep: first nonzero column, first usable row."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def oracle_reduce(rows, vec):
    """vec minus its projection onto the row space of rows."""
    red, pivots = dense_rref(rows)
    out = [Fraction(x) for x in vec]
    for row, p in zip(red, pivots):
        f = out[p]
        out = [a - f * b for a, b in zip(out, row)]
    return out


def random_entry(rng):
    if rng.random() < 0.55:
        return 0
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def random_matrix(rng):
    """Rows with zero rows, zero columns and duplicate rows mixed in."""
    nrows, ncols = rng.randint(0, 8), rng.randint(0, 9)
    zero_cols = {c for c in range(ncols) if rng.random() < 0.2}
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if rows and roll < 0.15:
            rows.append(list(rng.choice(rows)))
        elif roll < 0.25:
            rows.append([0] * ncols)
        else:
            rows.append([0 if c in zero_cols else random_entry(rng) for c in range(ncols)])
    return rows, ncols


CASES = [random_matrix(random.Random(seed)) for seed in range(150)] + [
    ([], 0),
    ([], 3),
    ([[]], 0),
    ([[0, 0, 0]], 3),
    ([[1, 2], [1, 2], [2, 4]], 2),
    ([[Fraction(1, 2), 0, 3], [0, 0, 0], [1, 0, 6]], 3),
]


def matvec(rows, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows]


@pytest.mark.parametrize("rows,ncols", CASES, ids=range(len(CASES)))
def test_rref_rank_and_kernel_match_the_oracle(rows, ncols):
    assert linalg.rref(rows) == dense_rref(rows)
    assert linalg.rank(rows) == len(dense_rref(rows)[1])
    red, pivots = dense_rref(rows)
    want = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][free]
        want.append(v)
    got = linalg.kernel_basis(rows, ncols)
    assert got == want
    assert all(all(x == 0 for x in matvec(rows, v)) for v in got)


@pytest.mark.parametrize("rows,ncols", CASES, ids=range(len(CASES)))
def test_solve_matches_the_oracle(rows, ncols):
    # The rows serve as the system's columns; targets in and out of their span.
    rng = random.Random(len(rows) * 31 + ncols)
    columns, n = rows, ncols
    mix = [rng.randint(-2, 2) for _ in columns]
    inside = [sum((c * col[i] for c, col in zip(mix, columns)), Fraction(0)) for i in range(n)]
    outside = [random_entry(rng) for _ in range(n)]
    for target in (inside, outside):
        aug = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])] for i in range(n)]
        red, pivots = dense_rref(aug)
        got = linalg.solve(columns, target)
        if len(columns) in pivots:
            assert got is None
            assert target is outside
            continue
        want = [Fraction(0)] * len(columns)
        for i, p in enumerate(pivots):
            want[p] = red[i][-1]
        assert got == want
        assert [sum((c * col[i] for c, col in zip(got, columns)), Fraction(0)) for i in range(n)] == target


@pytest.mark.parametrize("rows,ncols", CASES, ids=range(len(CASES)))
def test_subspace_add_and_reduce_match_the_oracle(rows, ncols):
    rng = random.Random(ncols * 17 + len(rows))
    space = linalg.Subspace(ncols)
    added = []
    for row in rows:
        grew = space.add(row)
        assert grew == (len(dense_rref(added + [row])[1]) > len(dense_rref(added)[1]))
        added.append(row)
        assert space.pivots() == dense_rref(added)[1]
        probe = [random_entry(rng) for _ in range(ncols)]
        for vec in (probe, row):
            assert space.reduce(vec) == oracle_reduce(added, vec)


@pytest.mark.parametrize("rows,ncols", CASES, ids=range(len(CASES)))
def test_sparse_and_dense_entries_build_the_same_space(rows, ncols):
    dense, sparse = linalg.Subspace(ncols), linalg.Subspace(ncols)
    for row in rows:
        vec = {j: Fraction(x) for j, x in enumerate(row) if x}
        assert sparse.insert(vec) == dense.add(row)
        assert sparse.pivots() == dense.pivots()
        for p in dense.pivots():
            assert sparse.row(p) == dense.row(p)
            assert dense.row(p)[p] == 1
    red, pivots = dense_rref(rows)
    assert [sparse.row(p) for p in pivots] == [{j: x for j, x in enumerate(row) if x} for row in red]
    assert all(sparse.row(j) is None for j in range(ncols) if j not in pivots)
