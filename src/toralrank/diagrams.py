"""Betti diagrams, degree sequences and the greedy cone decomposition.

A diagram is a sparse table (homological index i, internal degree j) ->
nonzero rational.  Decomposition peels off the pure diagram of the
column-wise minimal degrees with the largest coefficient that keeps every
entry nonnegative; on the diagram of an actual finite-length module this
terminates with an exact positive combination.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NotInConeError, ParseError
from .polyring import parse_coefficient, parse_int


class BettiDiagram:
    """Sparse diagram of rationals; zero entries are never stored."""

    __slots__ = ("codim_hint", "entries")

    def __init__(self, entries, codim_hint: int = None):
        clean = {}
        for (i, j), v in dict(entries).items():
            v = Fraction(v)
            if v != 0:
                clean[(int(i), int(j))] = v
        self.entries = clean
        if codim_hint is None:
            codim_hint = max((i for i, _ in clean), default=0)
        self.codim_hint = codim_hint

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

    def column(self, i: int) -> dict:
        return {j: v for (ii, j), v in self.entries.items() if ii == i}

    def total(self, i: int) -> Fraction:
        return sum(self.column(i).values(), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def scaled(self, c) -> "BettiDiagram":
        c = Fraction(c)
        return BettiDiagram({k: c * v for k, v in self.entries.items()}, self.codim_hint)

    def plus(self, other: "BettiDiagram", factor=1) -> "BettiDiagram":
        factor = Fraction(factor)
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = entries.get(k, Fraction(0)) + factor * v
        return BettiDiagram(entries, max(self.codim_hint, other.codim_hint))

    def __eq__(self, other):
        return isinstance(other, BettiDiagram) and self.entries == other.entries

    def __repr__(self):
        cells = ", ".join(f"({i},{j})={v}" for (i, j), v in sorted(self.entries.items()))
        return f"BettiDiagram[{cells}]"


@dataclass(frozen=True)
class DegreeSequence:
    """Strictly increasing integers d_0 < d_1 < ... < d_c."""

    degrees: tuple

    def __post_init__(self):
        degs = tuple(int(d) for d in self.degrees)
        object.__setattr__(self, "degrees", degs)
        if any(a >= b for a, b in zip(degs, degs[1:])):
            raise ValueError(f"degree sequence must strictly increase: {degs}")

    def __len__(self):
        return len(self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def __getitem__(self, i):
        return self.degrees[i]

    def normalized(self) -> "DegreeSequence":
        d0 = self.degrees[0]
        return DegreeSequence(tuple(d - d0 for d in self.degrees))

    def __str__(self):
        return "(" + ",".join(str(d) for d in self.degrees) + ")"


def pure_diagram(d: DegreeSequence) -> BettiDiagram:
    """Diagram with entry prod_{k != i} 1/|d_k - d_i| at (i, d_i)."""
    degs = d.degrees
    entries = {}
    for i, di in enumerate(degs):
        prod = Fraction(1)
        for k, dk in enumerate(degs):
            if k != i:
                prod /= abs(dk - di)
        entries[(i, di)] = prod
    return BettiDiagram(entries, codim_hint=len(degs) - 1)


def hk_ratio(d: DegreeSequence) -> Fraction:
    """Ratio beta_1/beta_0 forced on any pure diagram of type d.

    The sequence is normalized to d_0 = 0 first; the ratio is
    prod_{i >= 2} d_i / (d_i - d_1).
    """
    if len(d) < 2:
        raise ValueError("hk_ratio needs a sequence with at least two entries")
    degs = d.normalized().degrees
    ratio = Fraction(1)
    for di in degs[2:]:
        ratio *= Fraction(di, di - degs[1])
    return ratio


def herzog_kuhl_residuals(b: BettiDiagram, codim: int):
    """Power sums sum (-1)^i b_{i,j} j^t for t = 0..codim-1 (all zero iff HK)."""
    out = []
    for t in range(codim):
        acc = Fraction(0)
        for (i, j), v in b.entries.items():
            acc += (-1) ** i * v * j ** t  # 0**0 == 1, as the t = 0 sum needs
        out.append(acc)
    return out


@dataclass(frozen=True)
class BSDecomposition:
    parts: tuple  # of (Fraction coefficient, DegreeSequence)

    def recompose(self, codim_hint=None) -> BettiDiagram:
        acc = BettiDiagram({}, codim_hint=codim_hint or 0)
        for coeff, seq in self.parts:
            acc = acc.plus(pure_diagram(seq), coeff)
        return acc

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)


def bs_decompose(b: BettiDiagram, codim: int) -> BSDecomposition:
    """Greedy positive decomposition into pure diagrams of length `codim`.

    Each step reads the minimal nonzero degree of every column 0..codim,
    peels the associated pure diagram with the largest coefficient that
    keeps all entries nonnegative, and repeats.  Raises NotInConeError when
    the selected degrees fail to strictly increase or some column runs out
    while the diagram is still nonzero.
    """
    for (i, j), v in b.entries.items():
        if i < 0 or i > codim:
            raise ValueError(f"entry at column {i} outside 0..{codim}")
        if v < 0:
            raise ValueError(f"negative entry at ({i},{j})")
    work = dict(b.entries)
    parts = []
    while work:
        degs = []
        for i in range(codim + 1):
            col = [j for (ii, j) in work if ii == i]
            if not col:
                raise NotInConeError(
                    f"not in the Boij-Soderberg cone: column {i} is exhausted "
                    "while the diagram is nonzero"
                )
            degs.append(min(col))
        if any(a >= bb for a, bb in zip(degs, degs[1:])):
            raise NotInConeError(
                f"not in the Boij-Soderberg cone: selected degrees {degs} do not increase"
            )
        seq = DegreeSequence(tuple(degs))
        pure = pure_diagram(seq)
        q = min(work[(i, di)] / pure.entry(i, di) for i, di in enumerate(degs))
        if q <= 0:
            raise NotInConeError("not in the Boij-Soderberg cone: nonpositive coefficient")
        for i, di in enumerate(degs):
            left = work[(i, di)] - q * pure.entry(i, di)
            if left:
                work[(i, di)] = left
            else:
                del work[(i, di)]
        parts.append((q, seq))
    return BSDecomposition(tuple(parts))


def min_ratio_over_sequences(N: int, r: int):
    """Minimal hk_ratio over sequences with d_0 = 0, d_1 >= 1, d_i <= N+i.

    Brute-force search (deterministic, lexicographic); the minimum equals
    (N+r)/(N+1), attained at (0, 1, N+2, ..., N+r).
    """
    if N < 0 or r < 1:
        raise ValueError("need N >= 0 and r >= 1")
    best = None
    best_seq = None
    for seq in _admissible_sequences(N, r):
        ratio = hk_ratio(seq)
        if best is None or ratio < best:
            best, best_seq = ratio, seq
    return {"ratio": best, "argmin": best_seq}


def _admissible_sequences(N, r):
    # d_r <= N+r and strict increase already give d_i <= N+i.
    for degs in itertools.combinations(range(1, N + r + 1), r):
        yield DegreeSequence((0, *degs))


# ---------------------------------------------------------------------------
# Diagram file format and the windowed array printer.

# Most cells a Betti table window holds: every pure diagram of 100
# consecutive degrees fits, while the text grows with the degree span.
MAX_GRID_CELLS = 10_000


def parse_diagram(text: str) -> BettiDiagram:
    """Lines "<i> <j> <p>[/<q>]" of integers, q nonzero; "#" starts a comment."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 3:
            raise ParseError(f"line {lineno}: expected '<i> <j> <value>'")
        where = f"line {lineno}"
        i, j = parse_int(toks[0], where), parse_int(toks[1], where)
        v = parse_coefficient(toks[2], where)
        entries[(i, j)] = entries.get((i, j), Fraction(0)) + v
    return BettiDiagram(entries)


def format_diagram(b: BettiDiagram) -> str:
    return "".join(
        f"{i} {j} {v}\n" for (i, j), v in sorted(b.entries.items())
    )


def format_betti_table(b: BettiDiagram) -> str:
    """Aligned window of the diagram, rows = internal degree j, columns = i.

    A window of more than MAX_GRID_CELLS cells is refused before it is built.
    """
    if b.is_zero():
        return "(empty diagram)\n"
    imin = min(i for i, _ in b.entries)
    imax = max(i for i, _ in b.entries)
    jmin = min(j for _, j in b.entries)
    jmax = max(j for _, j in b.entries)
    if (imax - imin + 1) * (jmax - jmin + 1) > MAX_GRID_CELLS:
        raise DomainError(
            f"Betti table window of degrees {jmin}..{jmax} by columns {imin}..{imax} "
            f"is above the cap of {MAX_GRID_CELLS} cells"
        )
    cols = range(imin, imax + 1)
    rows = [(j, [b.entries.get((i, j), ".") for i in cols]) for j in range(jmin, jmax + 1)]
    return format_grid("j\\i", cols, rows)


def format_grid(corner, header, rows) -> str:
    """The header line, then one line per (label, cells) row, aligned.

    Labels are left-aligned under `corner`, cells right-aligned under their
    header entry, two spaces apart; a row may stop before the header does.
    """
    header = [str(h) for h in header]
    rows = [(str(label), [str(c) for c in cells]) for label, cells in rows]
    label_w = max([len(corner)] + [len(label) for label, _ in rows])
    widths = [
        max([len(h)] + [len(cells[i]) for _, cells in rows if i < len(cells)])
        for i, h in enumerate(header)
    ]
    lines = [
        label.ljust(label_w) + "".join("  " + c.rjust(w) for c, w in zip(cells, widths))
        for label, cells in [(corner, header), *rows]
    ]
    return "\n".join(lines) + "\n"


def check_printable(named_values):
    """Refuse, before anything is printed, a value past the int-to-str limit.

    `named_values` yields (name, Fraction) pairs; the DomainError names the
    first numerator or denominator with too many digits, and its digit count.
    """
    limit = sys.get_int_max_str_digits()
    for name, value in named_values:
        for part in (abs(value.numerator) or 1, value.denominator):
            digits = _decimal_digits(part)
            if limit and digits > limit:
                raise DomainError(f"{name} has {digits} digits, above the {limit} that can be printed")


def _decimal_digits(n: int) -> int:
    """Decimal digits of n >= 1, without converting it to a string."""
    guess = int(math.log10(n))  # float rounding may miss by one either way
    return guess + (n >= 10**guess) + (n >= 10 ** (guess + 1))
