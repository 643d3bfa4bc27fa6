"""The fixed pool of presentations that the `presentations` workload samples.

The pool, presentations.json, holds POOL_SIZE random graded presentations
with finite-length cokernels and the Hilbert function and Betti diagram
of each.  It was drawn once, by `draw_pool` below, and is committed, so
the benchmark's inputs cannot depend on the library it measures.  The
benchmark makes each input from a pool item by a seeded rescaling
(`rescaled_text`), which needs no library code.

The distribution is the one the test suite draws from (at most 3
variables, target rank at most 4, entries zero, monomials or binomials
homogeneous of degree at most 3, cokernels of total dimension at most 40),
less the rare presentations with more than MAX_FIRST_SYZYGIES first
syzygies.  To draw the pool again, from the root of the repository:

    PYTHONPATH=src python3 perfbench/presgen.py > perfbench/presentations.json
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

POOL_FILE = Path(__file__).resolve().parent / "presentations.json"
# Items per number of variables; a quarter have one variable, half two.
POOL_SIZE = {1: 100, 2: 200, 3: 100}
# Resolution time grows steeply with the number of first syzygies the
# library finds: about 1 s at 17 and 6 s at 22, and from 7 s to over 40 s
# for the 26 to 34 of the rare worst presentations.  Drawing those would let
# one item swamp a pass, so the pool leaves out candidates above this cap;
# about 1 in 700 finite-length candidates is.
MAX_FIRST_SYZYGIES = 16


def _random_entry(rng, r, degree):
    """Zero, a monomial, or a binomial, homogeneous of the given degree, as {exps: coeff}."""
    kind = rng.randrange(4)
    terms = {}
    for _ in range(0 if kind == 0 else 1 if kind < 3 else 2):
        exps = [0] * r
        for _ in range(degree):
            exps[rng.randrange(r)] += 1
        exps = tuple(exps)
        terms[exps] = terms.get(exps, 0) + rng.choice([-2, -1, 1, 2])
    return {e: c for e, c in terms.items() if c}


def _candidate(rng, r):
    """A random k x l matrix as a list of rows of entries, or None for a zero column."""
    k = rng.randint(1, min(3, 4 - r + 1))
    l = rng.randint(min(k + r - 1, 4), 4)
    cols = []
    for _ in range(l):
        degree = rng.randint(1, 3)
        if rng.random() < 0.5:
            col = [{} for _ in range(k)]
            exps = [0] * r
            exps[rng.randrange(r)] = degree
            col[rng.randrange(k)] = {tuple(exps): rng.choice([-2, -1, 1, 2])}
        else:
            col = [_random_entry(rng, r, degree) for _ in range(k)]
        if not any(col):
            return None
        cols.append(col)
    return [[col[j] for col in cols] for j in range(k)]


def _entry_text(terms):
    chunks = []
    for exps, coeff in sorted(terms.items(), reverse=True):
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
        mag = abs(coeff)
        if mag != 1:
            factors.insert(0, str(mag))
        chunks.append(("-" if coeff < 0 else "+" if chunks else "") + "*".join(factors))
    return "".join(chunks) or "0"


def presentation_text(r, rows):
    """The presentation in the repository's file format (see groebner.parse_presentation)."""
    lines = [f"ring r={r} vardeg=1", "target " + " ".join("0" for _ in rows), f"matrix {len(rows)} {len(rows[0])}"]
    lines += [" ".join(_entry_text(entry) for entry in row) for row in rows]
    return "\n".join(lines) + "\n"


def rescaled_text(item, var_scales, row_scales, col_scales):
    """The item with x_i -> a_i x_i, row j times b_j and column m times c_m.

    A graded automorphism of the ring and changes of basis of source and
    target: the cokernel, its Hilbert function and Betti diagram do not
    change, nor do the leading terms of any Groebner computation.
    """
    rows = []
    for b, row in zip(row_scales, item["rows"]):
        out = []
        for c, entry in zip(col_scales, row):
            terms = {}
            for coeff, *exps in entry:
                scale = Fraction(coeff) * b * c
                for a, e in zip(var_scales, exps):
                    scale *= Fraction(a) ** e
                terms[tuple(exps)] = scale
            out.append(terms)
        rows.append(out)
    return presentation_text(item["r"], rows)


def load_pool():
    """The committed pool, as {number of variables: [item, ...]}."""
    pool = {r: [] for r in POOL_SIZE}
    for item in json.loads(POOL_FILE.read_text()):
        pool[item["r"]].append(item)
    return pool


def draw_pool(seed=0):
    """Draw POOL_SIZE finite-length presentations with the library on sys.path."""
    from toralrank.errors import DegreeCapError
    from toralrank.groebner import finite_length_and_hilbert, parse_presentation, syzygies_of_columns
    from toralrank.resolutions import minimal_free_resolution

    rng = random.Random(f"presentations-pool:{seed}")
    found = {r: [] for r in POOL_SIZE}
    while any(len(found[r]) < n for r, n in POOL_SIZE.items()):
        r = rng.choice([rr for rr, n in POOL_SIZE.items() if len(found[rr]) < n])
        rows = _candidate(rng, r)
        if rows is None:
            continue
        pres = parse_presentation(presentation_text(r, rows))
        try:
            rep = finite_length_and_hilbert(pres)
        except (ValueError, DegreeCapError):
            continue
        if not (rep.finite and rep.total_dim <= 40):
            continue
        if syzygies_of_columns(pres).source.rank > MAX_FIRST_SYZYGIES:
            continue
        dia = minimal_free_resolution(pres).betti_diagram()
        found[r].append(
            {
                "r": r,
                "rows": [[[[c, *e] for e, c in sorted(entry.items(), reverse=True)] for entry in row] for row in rows],
                "hilbert": list(rep.hilbert),
                "betti": sorted([i, j, int(v)] for (i, j), v in dia.entries.items()),
            }
        )
    return [item for r in POOL_SIZE for item in found[r]]


def main() -> int:
    items = draw_pool()
    sys.stdout.write("[\n" + ",\n".join(json.dumps(item, separators=(",", ":")) for item in items) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
