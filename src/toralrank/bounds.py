"""Closed-form lower bounds on total cohomology dimension, exactly minimized.

Every formula is evaluated in exact rationals and only rounded once, by
taking the ceiling of the minimal value (the convention that reproduces all
built-in table cells).  Formulas outside their stated hypotheses report "not
applicable" rather than extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .diagrams import format_grid
from .errors import DomainError


@dataclass(frozen=True)
class BoundEntry:
    name: str
    applicable: bool
    exact: Fraction = None
    value: int = None
    argmin_k: tuple = None
    argmin_gamma: Fraction = None
    note: str = ""

    @staticmethod
    def not_applicable(name, note=""):
        return BoundEntry(name, False, note=note)


def _entry(name, exact, argmin_k=None, argmin_gamma=None, note=""):
    exact = Fraction(exact)
    return BoundEntry(
        name, True, exact, math.ceil(exact), argmin_k, argmin_gamma, note
    )


def _min_over_k(name, values):
    """Entry for the minimum of values[k] over k, keeping every tying k."""
    best = min(values)
    return _entry(name, best, argmin_k=tuple(k for k, v in enumerate(values) if v == best))


def classical(r: int) -> dict:
    """The two linear general-position bounds and the 2^r target."""
    if r < 1:
        raise DomainError("r must be >= 1")
    hybrid = 2 * r if r <= 2 else 2 * (r + 1)
    amann = 2 * (r + r // 3)
    return {"hybrid": hybrid, "amann": amann, "trc_target": 2 ** r}


def quadruple_rank_bound(r: int) -> int:
    """4r, for c-symplectic spaces of formal dimension at least 4."""
    if r < 0:
        raise DomainError("r must be >= 0")
    return 4 * r


def betti_tradeoff_bound(n: int, r: int, b: int) -> BoundEntry:
    """min over k of ((n+r-1)/(n-r+1)) 2k + 2^(b-k), for formal dimension n."""
    if r < 1 or r > n:
        raise DomainError(f"need 1 <= r <= n (got r={r}, n={n}); no almost free action otherwise")
    if b < 0:
        raise DomainError("b must be >= 0")
    ratio = Fraction(n + r - 1, n - r + 1)
    return _min_over_k("betti_tradeoff", [ratio * 2 * k + 2 ** (b - k) for k in range(b + 1)])


def low_degree_bound(n: int, r: int, l: int) -> BoundEntry:
    """((n+r-1)/(n-r+1)) * 2l, l the dimension below the first odd degree."""
    if r < 1 or r > n:
        raise DomainError(f"need 1 <= r <= n (got r={r}, n={n}); no almost free action otherwise")
    if l < 1:
        raise DomainError("l must be >= 1")
    ratio = Fraction(n + r - 1, n - r + 1)
    return _entry("low_degree", ratio * 2 * l)


def csymplectic_rank_bound(n: int, r: int) -> BoundEntry:
    """min over k of ((2n+r-1)/(2n-r+1)) 2k + 2^(r-k); formal dimension 2n."""
    if r < 1 or r > 2 * n:
        raise DomainError(f"need 1 <= r <= 2n (got r={r}, n={n})")
    return replace(betti_tradeoff_bound(2 * n, r, r), name="rank_tradeoff")


def hk_ratio_floor(n: int, r: int, d1: int) -> Fraction:
    """prod_{i=2..r} (2n-r-1+2i) / (2n-r-1+2i-2*d1).

    The minimal first-to-zeroth Betti ratio of admissible pure diagrams
    whose first degree jump is d1, under the regularity bound coming from
    formal dimension 2n.  Telescopes to (2n+r-1)/(2n-r+1) at d1 = 1.
    """
    if r < 1:
        raise DomainError("r must be >= 1")
    if 2 * d1 >= 2 * n - r + 3:
        raise DomainError(f"need d1 < (2n-r+3)/2 (got d1={d1}, n={n}, r={r})")
    prod = Fraction(1)
    for i in range(2, r + 1):
        prod *= Fraction(2 * n - r - 1 + 2 * i, 2 * n - r - 1 + 2 * i - 2 * d1)
    return prod


def duality_bound_high_rank(n: int, r: int) -> BoundEntry:
    """Binomial-corrected bound for c-symplectic spaces with large rank.

    Odd n needs n+1 <= r <= 2n; even n needs n <= r <= 2n.  Binomials with
    oversized lower index vanish.
    """
    if n % 2 == 1:
        if not (n + 1 <= r <= 2 * n):
            raise DomainError(f"odd case needs n+1 <= r <= 2n (got n={n}, r={r})")
    else:
        if not (n <= r <= 2 * n):
            raise DomainError(f"even case needs n <= r <= 2n (got n={n}, r={r})")
    s1 = hk_ratio_floor(n, r, 1)
    values = []
    for k in range(r + 1):
        val = s1 * 4 * k
        if n % 2 == 1:
            val += 4 * sum(math.comb(r - k, 2 * i) for i in range((n - 1) // 2 + 1))
        else:
            val += 4 * sum(math.comb(r - k, 2 * i) for i in range((n - 2) // 2 + 1))
            val += 2 * math.comb(r - k, n)
        values.append(val)
    return _min_over_k("duality_high_rank", values)


def duality_bound_low_rank(n: int, r: int) -> BoundEntry:
    """Two-line minimax bound for c-symplectic spaces with small rank.

    Valid for r <= n (n odd) or r <= n-1 (n even).  For each k the inner
    variable ranges over the real interval [0, k]; since one line is
    nondecreasing and the other decreasing, the minimax sits at the clamped
    crossing point and is computed exactly.
    """
    if r < 1:
        raise DomainError("r must be >= 1")
    if n % 2 == 1:
        if r > n:
            raise DomainError(f"odd case needs r <= n (got n={n}, r={r})")
    else:
        if r > n - 1:
            raise DomainError(f"even case needs r <= n-1 (got n={n}, r={r})")
    s1 = hk_ratio_floor(n, r, 1)
    sm = hk_ratio_floor(n, r, n // 2 + 1)
    values, gammas = [], []
    for k in range(r + 1):
        b1_0 = 2 * s1 * k + Fraction(2 ** (r - k))
        slope1 = 2 * (sm - s1)  # >= 0
        b2_0 = 4 * s1 * k + Fraction(2 ** (r - k + 1))
        slope2 = -4 * s1  # < 0
        # B2(0) > B1(0) always, so the minimax is at the crossing or at k.
        gamma_c = (b2_0 - b1_0) / (slope1 - slope2)
        if gamma_c <= k:
            gamma, val = gamma_c, b1_0 + slope1 * gamma_c
        else:
            gamma, val = Fraction(k), b2_0 + slope2 * k
        values.append(val)
        gammas.append(gamma)
    entry = _min_over_k("duality_low_rank", values)
    return replace(entry, argmin_gamma=gammas[entry.argmin_k[0]])


def midpoint_ratio_check(n: int, r: int) -> bool:
    """Exact check that the mid-degree ratio floor dominates twice the base one."""
    if n % 2 or n < 4:
        raise DomainError("needs even n >= 4")
    if not 3 <= r <= n + 1:
        raise DomainError(f"needs 3 <= r <= n+1 (got n={n}, r={r})")
    return hk_ratio_floor(n, r, n // 2) >= 2 * hk_ratio_floor(n, r, 1)


def exterior_witness_bound(r: int) -> int:
    """2^r, valid whenever fd - 1 <= r <= fd (rank-r exterior subalgebra)."""
    return 2 ** r


# ---------------------------------------------------------------------------
# Aggregation.


@dataclass(frozen=True)
class BoundInputs:
    n: int  # formal dimension; for c-symplectic inputs, HALF the formal dimension
    r: int
    b: int = None
    l: int = None
    csymplectic: bool = False

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("r must be >= 1")
        fd = 2 * self.n if self.csymplectic else self.n
        if self.r > fd:
            raise DomainError(
                f"rank {self.r} exceeds formal dimension {fd}: no almost free action"
            )

    @property
    def fd(self) -> int:
        return 2 * self.n if self.csymplectic else self.n


@dataclass
class BoundReport:
    inputs: BoundInputs
    entries: list = field(default_factory=list)
    best: int = 0
    trc_target: int = 0
    meets_trc: bool = False

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        return None


def best_bound(inputs: BoundInputs) -> BoundReport:
    """Evaluate every applicable formula and take the max.

    Nothing is merged into the table values: the 4r bound and the 2^r
    exterior-algebra bound are reported as separate entries and only enter
    through the final max.
    """
    n, r = inputs.n, inputs.r
    fd = inputs.fd
    entries = []
    cls = classical(r)
    entries.append(_entry("hybrid", cls["hybrid"]))
    entries.append(_entry("amann", cls["amann"]))

    if inputs.csymplectic and fd >= 4:
        entries.append(_entry("quadruple_rank", quadruple_rank_bound(r)))
    elif inputs.csymplectic:
        entries.append(BoundEntry.not_applicable("quadruple_rank", "needs fd >= 4"))

    if inputs.b is not None:
        entries.append(
            _guard(lambda: betti_tradeoff_bound(fd, r, inputs.b), "betti_tradeoff")
        )
    if inputs.l is not None:
        entries.append(_guard(lambda: low_degree_bound(fd, r, inputs.l), "low_degree"))

    if inputs.csymplectic:
        entries.append(_guard(lambda: csymplectic_rank_bound(n, r), "rank_tradeoff"))
        entries.append(
            _guard(lambda: duality_bound_high_rank(n, r), "duality_high_rank")
        )
        entries.append(_guard(lambda: duality_bound_low_rank(n, r), "duality_low_rank"))

    if r >= fd - 1:
        entries.append(
            _entry("exterior_algebra", exterior_witness_bound(r), note="r >= fd-1")
        )
    else:
        entries.append(
            BoundEntry.not_applicable("exterior_algebra", "needs r >= fd-1")
        )

    best = max((e.value for e in entries if e.applicable), default=0)
    target = cls["trc_target"]
    return BoundReport(inputs, entries, best, target, best >= target)


def _guard(fn, name):
    try:
        return fn()
    except DomainError as exc:
        return BoundEntry.not_applicable(name, str(exc))


# ---------------------------------------------------------------------------
# Built-in tables (all cells are exact minima, then ceiled).


def csymplectic_table_value(n: int, r: int) -> int:
    """Dispatch between the two duality bounds by parity and range."""
    if (n % 2 == 1 and r >= n + 1) or (n % 2 == 0 and r >= n):
        return duality_bound_high_rank(n, r).value
    return duality_bound_low_rank(n, r).value


# Row variable, its values and the cell at (value, r); the columns are
# r = 1..10, and a row of table 5 stops at r = 2n.
TABLES = {
    "4a": ("b", (4, 6, 10), lambda b, r: betti_tradeoff_bound(10, r, b).value),
    "4b": ("l", (4, 6, 10), lambda l, r: low_degree_bound(10, r, l).value),
    "5": ("n", (2, 3, 4, 5), csymplectic_table_value),
}


def table_cells(which: str):
    """(header ranks, [(row label, [values])]) for the three built-in tables."""
    if which not in TABLES:
        raise DomainError(f"unknown table {which!r}")
    name, values, cell = TABLES[which]
    ranks = list(range(1, 11))
    return ranks, [(f"{name}={v}", [cell(v, r) for r in ranks if which != "5" or r <= 2 * v]) for v in values]


def render_table(which: str) -> str:
    ranks, rows = table_cells(which)
    return format_grid("r", ranks, rows)


def trc_audit(nmax: int = 4):
    """best_bound with the c-symplectic flag against 2^r, for n <= nmax."""
    records = []
    ok = True
    for n in range(1, nmax + 1):
        for r in range(1, 2 * n + 1):
            report = best_bound(BoundInputs(n=n, r=r, csymplectic=True))
            records.append((n, r, report.best, report.trc_target, report.meets_trc))
            ok = ok and report.meets_trc
    return ok, records


def midpoint_ratio_sweep(nmax: int = 40):
    """The exact ratio inequality over even n in [4, nmax], 3 <= r <= n+1."""
    records = []
    ok = True
    for n in range(4, nmax + 1, 2):
        for r in range(3, n + 2):
            holds = midpoint_ratio_check(n, r)
            records.append((n, r, holds))
            ok = ok and holds
    return ok, records
