"""The pipeline from an extension file to the bound comparison.

A failure of any stage is re-raised with a `[stage ...]` prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds as bounds_mod
from . import hirschbrown as hb_mod
from .errors import DegreeCapError, DomainError
from .groebner import DEFAULT_DEGREE_CAP
from .resolutions import check_generator_ratio
from .sullivan import parse_extension


@dataclass
class PipelineResult:
    b: int
    k: int
    finite: bool
    total_dim: int
    actual_h_dim: int
    fd: int
    torus_rank: int
    even_check: object
    odd_check: object
    k_first: object
    exterior_witness: object
    bound_value: int
    bound_met: bool

    @property
    def ok(self) -> bool:
        """Finite cohomology, the bound met and every generator-count check holding."""
        checks = (c for c in (self.even_check, self.odd_check) if c is not None)
        return self.finite and self.bound_met and all(c.holds for c in checks)


def run_pipeline(text: str, cutoff=None, degree_cap=DEFAULT_DEGREE_CAP) -> PipelineResult:
    """Extension file -> splitting -> transfer -> projections -> inequality."""
    stage = "parse_extension"
    note = ""
    try:
        ext = parse_extension(text)
        stage = "split_Z"
        zs = hb_mod.split_Z(ext)
        stage = "build_retract"
        if zs.k and cutoff == 0:
            # The projections need the degree-1 Z' seeds inside the retract.
            raise DomainError(f"cutoff {cutoff} lies below the degree-1 seeds of Z'")
        rd = hb_mod.seeded_retract(ext, zs, cutoff)
        top = ext.base.top_degree()
        if cutoff is not None and (top is None or cutoff < top):
            # Every later failure may be an artefact of the truncated H.
            note = f" (at cutoff {cutoff}; a cutoff below the top degree truncates H)"
        stage = "perturb"
        hb = hb_mod.perturb(ext, rd)
        stage = "hb_cohomology_finite"
        fin = hb_mod.hb_cohomology_finite(hb, degree_cap)
        actual = hb.h_rank
        fd = max(hb.h_degrees)
        even_check = odd_check = None
        k_first = None
        witness = None
        if zs.k > 0:
            stage = "projection_presentations"
            maps = hb_mod.projection_presentations(hb, zs)
            k_first = maps.k_first
            stage = "check_generator_ratio(map_even)"
            if not maps.even_vacuous:
                even_check = check_generator_ratio(maps.map_even, degree_cap)
            stage = "check_generator_ratio(map_odd)"
            if not maps.odd_vacuous:
                odd_check = check_generator_ratio(maps.map_odd, degree_cap)
        else:
            witness = 2 ** len(zs.Z)
        stage = "bound comparison"
        bound_value = bounds_mod.betti_tradeoff_bound(fd, ext.torus_rank, zs.b).value
        return PipelineResult(
            b=zs.b,
            k=zs.k,
            finite=fin.finite,
            total_dim=fin.total_dim,
            actual_h_dim=actual,
            fd=fd,
            torus_rank=ext.torus_rank,
            even_check=even_check,
            odd_check=odd_check,
            k_first=k_first,
            exterior_witness=witness,
            bound_value=bound_value,
            bound_met=actual >= bound_value,
        )
    except (ValueError, DegreeCapError) as exc:
        raise type(exc)(f"[stage {stage}] {exc}{note}") from exc
