"""Exact toral-symmetry lower bounds and the graded-algebra machinery behind them.

Subpackage map:

- polyring:    exact sparse polynomials over Q, graded free modules
- groebner:    module Groebner bases, syzygies, finite-length tests
- resolutions: minimal free resolutions and the exterior-complex oracle
- diagrams:    Betti diagrams, pure diagrams, cone decomposition
- sullivan:    free graded-commutative algebras, cohomology, the
               degree-2 class test, torus extension data
- hirschbrown: perturbation transfer of the twisted differential
- bounds:      all closed-form bounds, tables, audits
- pipeline:    extension -> transfer -> projections -> bound comparison
- cli:         the command-line front end
"""

from .bounds import BoundInputs, best_bound
from .diagrams import BettiDiagram, DegreeSequence, bs_decompose, pure_diagram
from .groebner import PresentationMap, buchberger, finite_length_and_hilbert, normal_form, syzygy_basis
from .polyring import FreeModule, ModuleElement, Polynomial, Ring, parse_poly
from .resolutions import betti_via_koszul, check_generator_ratio, minimal_free_resolution
from .sullivan import cohomology, parse_extension, parse_model

__all__ = [
    "BoundInputs",
    "best_bound",
    "BettiDiagram",
    "DegreeSequence",
    "bs_decompose",
    "pure_diagram",
    "PresentationMap",
    "buchberger",
    "finite_length_and_hilbert",
    "normal_form",
    "syzygy_basis",
    "FreeModule",
    "ModuleElement",
    "Polynomial",
    "Ring",
    "parse_poly",
    "betti_via_koszul",
    "check_generator_ratio",
    "minimal_free_resolution",
    "cohomology",
    "parse_extension",
    "parse_model",
]

__version__ = "0.1.0"
