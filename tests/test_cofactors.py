"""Coordinates over the columns against plain arithmetic, independent of the pinned engine digest.

A Groebner pass on the graph of a map p returns elements (t, x) of
target (+) source; multiplying the coordinates x out must give t back, and
the target parts must be the reduced basis of p's image.  A lift of e must
give (rem, y) with p(y) + rem == e.
"""

import random
from fractions import Fraction

import pytest

from toralrank.groebner import PresentationMap, _Graph, buchberger, normal_form, parse_presentation
from toralrank.hirschbrown import delta_map, perturb, seeded_retract, split_Z
from toralrank.polyring import FreeModule, ModuleElement, Ring
from toralrank.sullivan import parse_extension

from conftest import SEED, data_text, random_finite_presentations

MODELS = ("circle.sul", "torus2.sul", "heis_circle.sul", "nilmanifold.sul")
PRESENTATIONS = ("ex33.pres", "m23.pres", "m24.pres", "m25.pres", "m35.pres")


def apply(p, x):
    """p(x) for x in p.source."""
    return sum((c.poly_mul(q) for c, q in zip(p.columns, x.components)), p.target.zero_element())


def parts(p, e):
    """(target part, source part) of an element of target (+) source."""
    k = p.target.rank
    return ModuleElement(p.target, e.components[:k]), ModuleElement(p.source, e.components[k:])


def assert_coordinates_rebuild_basis(p):
    graph = _Graph(p, 64)
    targets = []
    for e in graph.gb.elements:
        target, source = parts(p, e)
        assert apply(p, source) == target
        targets.append(target)
    assert tuple(targets) == buchberger(p.columns, 64, p.target).elements


def random_combination(rng, p):
    """A homogeneous x in p.source with seeded rational coefficients."""
    ring = p.source.ring
    vd = ring.var_degree
    top = max(p.source.generator_degrees) + vd * rng.randint(0, 1)
    comps = []
    for d in p.source.generator_degrees:
        if top < d or (top - d) % vd or rng.random() < 0.3:
            comps.append(ring.zero())
            continue
        exps = [0] * ring.num_vars
        for _ in range((top - d) // vd):
            exps[rng.randrange(ring.num_vars)] += 1
        comps.append(ring.monomial(exps, Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7]))))
    return ModuleElement(p.source, comps)


def assert_lift_contract(p, rng):
    graph = _Graph(p, 64)
    image = buchberger(p.columns, 64, p.target)
    for _ in range(4):
        e = apply(p, random_combination(rng, p))
        rem, y = graph.lift(e)
        assert rem.is_zero()
        assert apply(p, y) == e
    # No target generator of these inputs lies in the image.
    for i in range(p.target.rank):
        e = p.target.generator(i)
        rem, y = graph.lift(e)
        assert apply(p, y) + rem == e
        assert not rem.is_zero()
        assert rem == normal_form(e, image)


def presentation_inputs(kind, name):
    if kind == "random":
        return random_finite_presentations(seed=name)
    if kind == "pres":
        return [parse_presentation(data_text(name))]
    ext = parse_extension(data_text(name))
    hb = perturb(ext, seeded_retract(ext, split_Z(ext)))
    return [delta_map(hb, parity) for parity in (0, 1)]


@pytest.mark.parametrize("seed", [SEED, SEED + 1])
def test_cofactors_on_random_presentations(seed):
    for p in random_finite_presentations(seed=seed):
        assert_coordinates_rebuild_basis(p)


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_cofactors_on_shipped_presentations(name):
    assert_coordinates_rebuild_basis(parse_presentation(data_text(name)))


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("parity", [0, 1])
def test_cofactors_on_model_delta_maps(name, parity):
    ext = parse_extension(data_text(name))
    hb = perturb(ext, seeded_retract(ext, split_Z(ext)))
    assert_coordinates_rebuild_basis(delta_map(hb, parity))


def test_cofactors_skip_zero_generators():
    ring = Ring(2)
    F = FreeModule(ring, (0,))
    x, y = ring.variable(0), ring.variable(1)
    p = PresentationMap.from_columns(F, [ModuleElement(F, (x * x,)), F.zero_element(), ModuleElement(F, (x * y,))])
    for e in _Graph(p, 64).gb.elements:
        target, source = parts(p, e)
        assert source.components[1].is_zero()
        assert apply(p, source) == target


@pytest.mark.parametrize(
    "kind,name",
    [("random", SEED), ("random", SEED + 1)]
    + [("pres", name) for name in PRESENTATIONS]
    + [("model", name) for name in MODELS],
)
def test_lift_contract(kind, name):
    rng = random.Random(SEED)
    for p in presentation_inputs(kind, name):
        assert_lift_contract(p, rng)
