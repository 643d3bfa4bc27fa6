import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from toralrank.groebner import PresentationMap, finite_length_and_hilbert
from toralrank.hirschbrown import hb_cohomology_finite, perturb, seeded_retract, split_Z
from toralrank.polyring import FreeModule, ModuleElement, Ring
from toralrank.sullivan import parse_extension

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

# Fixed seed so every randomized suite reproduces bit for bit.
SEED = 74301


def data_text(name: str) -> str:
    return (DATA / name).read_text()


# Four polynomial generators of degree 2 and one of degree 1: far more
# monomials through degree 121 than the basis capacity cap allows.
CAP_GENERATORS = [(f"y{i}", 2) for i in range(1, 5)] + [("x", 1)]
CAP_MESSAGE = "through degree 75 has 202540 monomials, above the capacity cap 200000"


def patch_bindings(monkeypatch, original, replacement):
    """Bind `replacement` in place of `original` under every name any
    loaded toralrank module gives it, so calls through imports count too."""
    for name, module in list(sys.modules.items()):
        if name == "toralrank" or name.startswith("toralrank."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def refuse_enumeration(model):
    """Make listing any monomial basis of `model` fail the test."""

    def fail(degree):
        raise AssertionError(f"monomials of degree {degree} enumerated")

    model.monomial_basis = fail
    return model


def random_homogeneous_entry(rng, ring, degree):
    """Zero, a monomial, or a binomial, homogeneous of the given degree."""
    kind = rng.randrange(4)
    if kind == 0:
        return ring.zero()
    terms = 1 if kind < 3 else 2
    poly = ring.zero()
    for _ in range(terms):
        exps = [0] * ring.num_vars
        for _ in range(degree):
            exps[rng.randrange(ring.num_vars)] += 1
        coeff = rng.choice([-2, -1, 1, 2])
        poly = poly + ring.monomial(exps, coeff)
    return poly


def random_finite_presentations(count=20, seed=SEED, max_attempts=20000):
    """Seeded random graded presentations whose cokernels have finite length.

    Ranks <= 4, at most 3 variables, entries homogeneous monomials or
    binomials of degree <= 3 (per column, so columns stay homogeneous).
    Stratified so the multi-variable cases are well represented; about half
    of the columns are pure-power monomials, which is what makes random
    finite-length cokernels reachable at all for 3 variables.
    """
    rng = random.Random(seed)
    quotas = {1: count // 4, 2: count // 2, 3: count - count // 4 - count // 2}
    found = {1: [], 2: [], 3: []}
    attempts = 0
    while sum(len(v) for v in found.values()) < count and attempts < max_attempts:
        attempts += 1
        r = rng.choice([rr for rr in (1, 2, 3) if len(found[rr]) < quotas[rr]])
        ring = Ring(r)
        k = rng.randint(1, min(3, 4 - r + 1))
        l = rng.randint(min(k + r - 1, 4), 4)
        target = FreeModule(ring, (0,) * k)
        cols = []
        for _ in range(l):
            degree = rng.randint(1, 3)
            if rng.random() < 0.5:
                comps = [ring.zero()] * k
                exps = [0] * r
                exps[rng.randrange(r)] = degree
                comps[rng.randrange(k)] = ring.monomial(exps, rng.choice([-2, -1, 1, 2]))
                comps = tuple(comps)
            else:
                comps = tuple(random_homogeneous_entry(rng, ring, degree) for _ in range(k))
            col = ModuleElement(target, comps)
            if col.is_zero():
                break
            cols.append(col)
        if len(cols) != l:
            continue
        try:
            pres = PresentationMap.from_columns(target, cols)
            rep = finite_length_and_hilbert(pres)
        except Exception:
            continue
        if rep.finite and rep.total_dim <= 40:
            found[r].append(pres)
    out = found[1] + found[2] + found[3]
    if len(out) < count:
        raise AssertionError(f"only generated {len(out)} finite presentations")
    return out


@pytest.fixture(scope="session")
def nilmanifold_ext():
    return parse_extension(data_text("nilmanifold.sul"))


@pytest.fixture(scope="session")
def nilmanifold_hb(nilmanifold_ext):
    zs = split_Z(nilmanifold_ext)
    rd = seeded_retract(nilmanifold_ext, zs)
    hb = perturb(nilmanifold_ext, rd)
    return zs, rd, hb


@pytest.fixture(scope="session")
def nilmanifold_finiteness(nilmanifold_hb):
    _, _, hb = nilmanifold_hb
    return hb_cohomology_finite(hb)


@pytest.fixture(scope="session")
def random_presentations():
    return random_finite_presentations()


def frac(a, b=1):
    return Fraction(a, b)
