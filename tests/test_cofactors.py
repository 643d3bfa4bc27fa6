"""Cofactor tracking against plain arithmetic, independent of the pinned engine digest.

A tracked Groebner pass returns, for every basis element, its cofactors in
the input generators; multiplying them out must give the element back.
"""

import pytest

from toralrank.groebner import _buchberger_tracked, parse_presentation
from toralrank.hirschbrown import _delta_map, perturb, seeded_retract, split_Z
from toralrank.polyring import FreeModule, ModuleElement, Ring
from toralrank.sullivan import parse_extension

from conftest import SEED, data_text, random_finite_presentations

MODELS = ("circle.sul", "torus2.sul", "heis_circle.sul", "nilmanifold.sul")


def assert_cofactors_rebuild_basis(p):
    gens = [c for c in p.columns if not c.is_zero()]
    gb, reps = _buchberger_tracked(gens, 64, module=p.target)
    assert len(reps) == len(gb.elements)
    for element, rep in zip(gb.elements, reps):
        assert len(rep) == len(gens)
        total = p.target.zero_element()
        for q, g in zip(rep, gens):
            total = total + g.poly_mul(q)
        assert total == element


@pytest.mark.parametrize("seed", [SEED, SEED + 1])
def test_cofactors_on_random_presentations(seed):
    for p in random_finite_presentations(seed=seed):
        assert_cofactors_rebuild_basis(p)


@pytest.mark.parametrize("name", ["ex33.pres", "m23.pres", "m24.pres", "m25.pres", "m35.pres"])
def test_cofactors_on_shipped_presentations(name):
    assert_cofactors_rebuild_basis(parse_presentation(data_text(name)))


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("parity", [0, 1])
def test_cofactors_on_model_delta_maps(name, parity):
    ext = parse_extension(data_text(name))
    hb = perturb(ext, seeded_retract(ext, split_Z(ext)))
    assert_cofactors_rebuild_basis(_delta_map(hb, parity))


def test_cofactors_skip_zero_generators():
    ring = Ring(2)
    F = FreeModule(ring, (0,))
    x, y = ring.variable(0), ring.variable(1)
    gens = [ModuleElement(F, (x * x,)), ModuleElement(F, (ring.zero(),)), ModuleElement(F, (x * y,))]
    gb, reps = _buchberger_tracked(gens, 64)
    for element, rep in zip(gb.elements, reps):
        assert rep[1].is_zero()
        assert sum((g.poly_mul(q) for q, g in zip(rep, gens)), F.zero_element()) == element
