"""Small exact linear algebra kernel over Q.

There is one elimination routine, `Subspace`: a row space kept in reduced
row echelon form, one sparse row {column: Fraction} per pivot, each pivot
being its row's first nonzero column.  Its one entry point is
`Subspace.insert`, which takes a sparse vector; `Subspace.add`, `rref`,
`rank`, `kernel_basis` and `solve` take dense lists, sparsify them and go
through it, and `Subspace.row` reads a reduced row by its pivot.  The
reduced row echelon form of a row space is unique, so reduced forms,
kernels and chosen representatives do not depend on the order rows arrive.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    if not rows:
        return [], []
    space = Subspace(len(rows[0]))
    for row in rows:
        space.add(row)
    pivots = space.pivots()
    return [space._dense(space._rows[p]) for p in pivots], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows, ncols):
    """Basis of {v : A v = 0} for the matrix with the given rows.

    Vectors come out one per free column, in ascending column order, with a
    1 in the free coordinate.
    """
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][free]
        basis.append(v)
    return basis


def solve(columns, target):
    """Coefficients c with sum c_i * columns[i] == target, or None.

    `columns` is a list of vectors (the columns of the system).
    """
    n = len(target)
    for col in columns:
        if len(col) != n:
            raise ValueError("column length mismatch")
    aug = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])] for i in range(n)]
    red, pivots = rref(aug)
    if len(columns) in pivots:
        return None
    coeffs = [Fraction(0)] * len(columns)
    for i, p in enumerate(pivots):
        coeffs[p] = red[i][-1]
    return coeffs


def _sparse(vec):
    return {j: x if isinstance(x, Fraction) else Fraction(x) for j, x in enumerate(vec) if x}


class Subspace:
    """Mutable row space of Q^ncols kept in reduced row echelon form.

    Each row is stored sparse under its pivot column, scaled to 1 there;
    every other row is 0 in that column.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows = {}  # pivot column -> {column: Fraction}

    def _dense(self, row):
        return [row.get(j, _ZERO) for j in range(self.ncols)]

    def _reduce(self, v):
        # Reduces v in place.  Rows are 0 in each other's pivot columns, so
        # the coefficients to subtract are read off v before any subtraction.
        for p, f in [(p, f) for p, f in v.items() if p in self._rows]:
            for j, x in self._rows[p].items():
                y = v.get(j, _ZERO) - f * x
                if y:
                    v[j] = y
                else:
                    del v[j]
        return v

    def reduce(self, vec):
        """Return vec minus its projection onto the subspace (a new list)."""
        return self._dense(self._reduce(_sparse(vec)))

    def add(self, vec) -> bool:
        """Insert the span of the dense vector vec; True if the dimension grew."""
        return self.insert(_sparse(vec))

    def insert(self, v) -> bool:
        """Insert the span of v, a sparse vector {column: nonzero Fraction}
        that the space takes over; True if the dimension grew."""
        v = self._reduce(v)
        if not v:
            return False
        p = min(v)
        inv = 1 / v[p]
        v = {j: x * inv for j, x in v.items()}
        for row in self._rows.values():
            f = row.pop(p, None)
            if f is not None:
                for j, x in v.items():
                    if j != p:
                        y = row.get(j, _ZERO) - f * x
                        if y:
                            row[j] = y
                        else:
                            del row[j]
        self._rows[p] = v
        return True

    def row(self, p):
        """The reduced row {column: Fraction} with pivot p (read only), or None."""
        return self._rows.get(p)

    def pivots(self):
        return sorted(self._rows)
