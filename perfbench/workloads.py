"""The benchmark's workloads: seeded inputs, one timed pass, exact checks.

A workload hands out the inputs of pass k (`inputs(k)`, untimed, a fixed
function of the seed and k, never repeated within a process), turns them
into library objects (`prepare`, untimed) and runs one pass over them
(`run_pass`), timing every item and checking every exact result.

- nilmanifold: the shipped six-generator nilmanifold model with its three
  twist coefficients rescaled; each item runs the pipeline, then
  verify_transfer and the homology-dimension oracle through degree 12.
- torus-ladder: self-actions of the circle, T^2, T^3, T^4, T^5 and the
  Heisenberg x circle model, rescaled the same way; each item runs the
  pipeline, verify_transfer and the oracle through the formal dimension.
- presentations: 200 random finite-length presentations per pass, rescaled
  items of the committed pool (see presgen.py), each through the coker,
  resolve, prop41 and decompose paths and the Koszul oracle; every pass
  also renders the three tables and runs the 2^r audit.

Rescaling X_i -> c_i X_i is an isomorphism of extensions, so the exact
answers of the model workloads do not depend on the seed; rescaling the
variables, rows and columns of a presentation keeps the Hilbert function
and Betti diagram the pool records for it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

import presgen
from speed import ref_clock


def _fields(text):
    return dict(tok.split("=", 1) for tok in text.split())


@dataclass(frozen=True)
class Model:
    """A torus extension whose twist coefficients the benchmark rescales."""

    name: str
    base: str  # generator and differential lines
    twists: tuple  # per torus variable X_i: (generator, untwisted part of D)
    fields: dict  # expected `hb-pipeline --porcelain` fields
    dims: tuple  # expected hb_homology_dims_by_degree(hb, len(dims) - 1)

    def text(self, coeffs) -> str:
        lines = [self.base.rstrip("\n"), f"torus r={len(self.twists)}"]
        for i, ((gen, part), c) in enumerate(zip(self.twists, coeffs), 1):
            mag = abs(c)
            term = f"X{i}" if mag == 1 else f"{mag}*X{i}"
            if part:
                rhs = f"{part} {'-' if c < 0 else '+'} {term}"
            else:
                rhs = f"-{term}" if c < 0 else term
            lines.append(f"D {gen} = {rhs}")
        return "\n".join(lines) + "\n"


def _torus(n):
    base = "".join(f"gen x{i} deg=1\nd x{i} = 0\n" for i in range(1, n + 1))
    fields = _fields(
        f"b={n} k=0 finite=1 total_dim=1 dim_h={2**n} fd={n} r={n} "
        f"exterior_witness={2**n} bound={2**n} bound_met=1"
    )
    return Model(f"T{n}", base, tuple((f"x{i}", "") for i in range(1, n + 1)), fields, (1,) + (0,) * n)


NILMANIFOLD = Model(
    "nilmanifold",
    "# Six degree-1 generators; the b's bound the pairwise a-products.\n"
    + "".join(f"gen a{i} deg=1\n" for i in (1, 2, 3))
    + "".join(f"gen b{i} deg=1\n" for i in (1, 2, 3))
    + "d a1 = 0\nd a2 = 0\nd a3 = 0\nd b1 = a2*a3\nd b2 = a3*a1\nd b3 = a1*a2\n",
    (("b1", "a2*a3"), ("b2", "a3*a1"), ("b3", "a1*a2")),
    _fields(
        "b=3 k=3 finite=1 total_dim=8 dim_h=36 fd=6 r=3 map_even.k=3 map_even.l=17 "
        "map_even.N=1 map_even.ratio=2 map_even.holds=1 map_odd.k=1 map_odd.l=18 "
        "map_odd.N=1 map_odd.ratio=2 map_odd.holds=1 bound=8 bound_met=1"
    ),
    (1, 3, 3, 1) + (0,) * 9,
)
CIRCLE = Model(
    "circle",
    "gen x deg=1\nd x = 0\n",
    (("x", ""),),
    _fields("b=1 k=0 finite=1 total_dim=1 dim_h=2 fd=1 r=1 exterior_witness=2 bound=2 bound_met=1"),
    (1, 0),
)
TORUS2 = Model(
    "torus2",
    "gen x1 deg=1\ngen x2 deg=1\nd x1 = 0\nd x2 = 0\n",
    (("x1", ""), ("x2", "")),
    _fields("b=2 k=0 finite=1 total_dim=1 dim_h=4 fd=2 r=2 exterior_witness=4 bound=4 bound_met=1"),
    (1, 0, 0),
)
HEIS_CIRCLE = Model(
    "heis_circle",
    "# Heisenberg x circle: four degree-1 generators, one relation.\n"
    "gen a deg=1\ngen b deg=1\ngen c deg=1\ngen d deg=1\n"
    "d a = 0\nd b = 0\nd c = a*b\nd d = 0\n",
    (("c", "a*b"), ("d", "")),
    _fields(
        "b=3 k=2 finite=1 total_dim=4 dim_h=12 fd=4 r=2 map_even.k=2 map_even.l=5 "
        "map_even.N=0 map_even.ratio=2 map_even.holds=1 map_odd.k=1 map_odd.l=6 "
        "map_odd.N=1 map_odd.ratio=3/2 map_odd.holds=1 bound=8 bound_met=1"
    ),
    (1, 2, 1, 0, 0),
)
SHIPPED = {"nilmanifold": NILMANIFOLD, "circle": CIRCLE, "torus2": TORUS2, "heis_circle": HEIS_CIRCLE}

# sha256 of render_table("4a"), ("4b"), ("5") and of repr(trc_audit(4)[1]).
TABLE_DIGESTS = (
    "7702abc610d37690b31bda9b5bf86ea92202e306841c6cf53db42cb4423ac999",
    "504a8a93f09e70fa0720f6ce5fc44dee251fd3d4911a4734cd1e1e9c5223bad1",
    "b8c244ccaf30d9e79af39c22cf7d3699c81e4f36c802bb16b6bae1dfd3a43e46",
)
AUDIT_DIGEST = "06f98f07dde5496168a13b82705335bfc5d4fc07b64db5f42942fccb16edac69"

WARM_UP_PRESENTATION = "ring r=2 vardeg=1\ntarget 0\nmatrix 1 2\nx y^2\n"
WARM_UP_EXPECTED = {"hilbert": [1, 1], "betti": [[0, 0, 1], [1, 1, 1], [1, 2, 1], [2, 3, 1]]}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def porcelain(result) -> dict:
    """The `hb-pipeline --porcelain` fields of a PipelineResult, as strings."""
    out = {"b": result.b, "k": result.k, "finite": int(result.finite)}
    if result.finite:
        out["total_dim"] = result.total_dim
    out.update(dim_h=result.actual_h_dim, fd=result.fd, r=result.torus_rank)
    for tag, chk in (("even", result.even_check), ("odd", result.odd_check)):
        if chk is not None:
            out.update(
                {
                    f"map_{tag}.k": chk.k,
                    f"map_{tag}.l": chk.l,
                    f"map_{tag}.N": chk.N,
                    f"map_{tag}.ratio": chk.ratio,
                    f"map_{tag}.holds": int(chk.holds),
                }
            )
    if result.exterior_witness is not None:
        out["exterior_witness"] = result.exterior_witness
    out.update(bound=result.bound_value, bound_met=int(result.bound_met))
    return {k: str(v) for k, v in out.items()}


def ratio_fields(chk) -> dict:
    """The `prop41 --porcelain` fields of a RatioCheckReport, as strings."""
    return {
        "k": str(chk.k),
        "l": str(chk.l),
        "N": str(chk.N),
        "ratio": str(chk.ratio),
        "required": str(chk.required),
        "beta0": str(chk.beta0),
        "beta1": str(chk.beta1),
        "holds": str(int(chk.holds)),
    }


@dataclass
class PassResult:
    pipeline_s: float = 0.0  # production paths of the pass
    check_s: float = 0.0  # oracles of the pass
    ops: list = field(default_factory=list)  # (label, seconds) per checked item
    items: list = field(default_factory=list)  # seconds per unit of input, for percentiles
    attempted: int = 0
    failed: int = 0
    invariants: list = field(default_factory=list)
    last_check: tuple = None  # (CLI command, input text, expected porcelain fields)

    @property
    def digest(self) -> str:
        return _sha(json.dumps(self.invariants, sort_keys=True))

    def run_op(self, label, fn):
        """Run one checked operation; fn returns (pipeline_s, check_s, invariants, ok)."""
        self.attempted += 1
        try:
            pipeline_s, check_s, invariants, ok = fn()
        except Exception:
            self.failed += 1
            print(f"op {label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        self.pipeline_s += pipeline_s
        self.check_s += check_s
        self.invariants.append(invariants)
        if label is not None:
            self.ops.append((label, pipeline_s + check_s))
        if not ok:
            self.failed += 1
            print(f"op {label} gave wrong results: {invariants}", file=sys.stderr)


class ModelsWorkload:
    """Pipeline plus transfer checks on rescaled torus extensions.

    The unit of input is the whole list of models: one item per pass.
    """

    def __init__(self, name, models, seed):
        self.name = name
        self.models = models
        self._rng = random.Random(f"{name}:{seed}")
        self._batches = {}
        self._seen = {CIRCLE.text((1,))}

    def _coefficient(self):
        c = Fraction(self._rng.randint(1, 9), self._rng.randint(1, 9))
        return c if self._rng.random() < 0.5 else -c

    def inputs(self, k):
        while len(self._batches) <= k:
            batch = []
            for model in self.models:
                text = None
                while text is None or text in self._seen:
                    text = model.text([self._coefficient() for _ in model.twists])
                self._seen.add(text)
                batch.append(text)
            self._batches[len(self._batches)] = batch
        return self._batches[k]

    def prepare(self, lib, texts):
        return texts

    def warm_up(self, lib):
        self._item(lib, CIRCLE, CIRCLE.text((1,)))

    def run_pass(self, lib, texts, begin_op):
        result = PassResult()
        for model, text in zip(self.models, texts):
            begin_op()
            result.run_op(model.name, lambda: self._item(lib, model, text))
        result.items = [sum(s for _, s in result.ops)]
        if result.failed == 0:
            first = self.models[0]
            shipped = first.text((1,) * len(first.twists))
            result.last_check = (["hb-pipeline"], shipped, result.invariants[0]["fields"])
        return result

    @staticmethod
    def _item(lib, model, text):
        hb = lib.hirschbrown
        t0 = ref_clock()
        res = lib.cli.run_pipeline(text)
        t1 = ref_clock()
        ext = lib.sullivan.parse_extension(text)
        zs = hb.split_Z(ext)
        rd = hb.seeded_retract(ext, zs)
        model_hb = hb.perturb(ext, rd)
        transfer_ok = hb.verify_transfer(ext, rd, model_hb).ok
        dims = tuple(hb.hb_homology_dims_by_degree(model_hb, len(model.dims) - 1))
        t2 = ref_clock()
        fields = porcelain(res)
        ok = fields == model.fields and transfer_ok and dims == model.dims and sum(dims) == res.total_dim
        invariants = {"model": model.name, "fields": fields, "transfer_ok": transfer_ok, "dims": dims}
        return t1 - t0, t2 - t1, invariants, ok


class PresentationsWorkload:
    """Resolutions, ratio checks and decompositions of random presentations.

    Pass k takes PASS_SIZE items of the committed pool (presgen.py) in the
    pool's proportions, each rescaled by seeded scalars into a presentation
    the process has not seen; the item's Hilbert function and Betti diagram
    are the expected answers.
    """

    PASS_SIZE = 200

    def __init__(self, seed):
        self._rng = random.Random(f"presentations:{seed}")
        self._pool = None
        self._batches = {}
        self._seen = set()

    def _text(self, item):
        text, tries = None, 0
        while text is None or text in self._seen:
            # Widen the scalars if a small item runs out of fresh rescalings.
            top = 3 + tries // 16
            tries += 1
            scales = [
                [self._rng.choice((-1, 1)) * self._rng.randint(1, top) for _ in range(n)]
                for n in (item["r"], len(item["rows"]), len(item["rows"][0]))
            ]
            text = presgen.rescaled_text(item, *scales)
        self._seen.add(text)
        return text

    def inputs(self, k):
        if self._pool is None:
            self._pool = presgen.load_pool()
        while len(self._batches) <= k:
            batch = []
            for items in self._pool.values():
                n = self.PASS_SIZE * len(items) // sum(map(len, self._pool.values()))
                batch += [(self._text(item), item) for item in self._rng.sample(items, n)]
            self._batches[len(self._batches)] = batch
        return self._batches[k]

    def prepare(self, lib, batch):
        return [(text, lib.groebner.parse_presentation(text), item) for text, item in batch]

    def warm_up(self, lib):
        self._item(lib, lib.groebner.parse_presentation(WARM_UP_PRESENTATION), WARM_UP_EXPECTED)

    def run_pass(self, lib, items, begin_op):
        result = PassResult()
        for i, (_, p, expected) in enumerate(items):
            begin_op()
            result.run_op(f"#{i} r={p.target.ring.num_vars}", lambda: self._item(lib, p, expected))
        result.items = [s for _, s in result.ops]
        begin_op()
        result.run_op(None, lambda: self._tables(lib))
        if result.failed == 0:
            result.last_check = (["prop41"], items[0][0], result.invariants[0]["prop41"])
        return result

    @staticmethod
    def _item(lib, p, expected):
        r = p.target.ring.num_vars
        t0 = ref_clock()
        rep = lib.groebner.finite_length_and_hilbert(p)
        res = lib.resolutions.minimal_free_resolution(p)
        dia = res.betti_diagram()
        chk = lib.resolutions.check_generator_ratio(p)
        deco = lib.diagrams.bs_decompose(dia, r)
        recomposed = deco.recompose(codim_hint=r)
        t1 = ref_clock()
        top = max(j for _, j in dia.entries)
        oracle = lib.resolutions.betti_via_koszul(p, top)
        t2 = ref_clock()
        betti = sorted([i, j, int(v)] for (i, j), v in dia.entries.items())
        ok = (
            rep.finite
            and list(rep.hilbert) == expected["hilbert"]
            and betti == expected["betti"]
            and sum(rep.hilbert) == rep.total_dim
            and chk.holds
            and chk.hilbert == rep.hilbert
            and chk.beta0 == p.target.rank
            and chk.beta1 <= p.source.rank
            and recomposed == dia
            and oracle == dia
        )
        invariants = {
            "hilbert": rep.hilbert,
            "betti": betti,
            "prop41": ratio_fields(chk),
            "decomposition": [(str(c), list(seq)) for c, seq in deco],
        }
        return t1 - t0, t2 - t1, invariants, ok

    @staticmethod
    def _tables(lib):
        t0 = ref_clock()
        tables = tuple(_sha(lib.bounds.render_table(w)) for w in ("4a", "4b", "5"))
        audit_ok, records = lib.bounds.trc_audit(4)
        t1 = ref_clock()
        audit = _sha(repr(records))
        ok = tables == TABLE_DIGESTS and audit_ok and audit == AUDIT_DIGEST
        return t1 - t0, 0.0, {"tables": tables, "audit": audit}, ok


def make_workload(name, seed):
    if name == "nilmanifold":
        return ModelsWorkload(name, (NILMANIFOLD,), seed)
    if name == "torus-ladder":
        models = (CIRCLE, TORUS2, HEIS_CIRCLE, _torus(3), _torus(4), _torus(5))
        return ModelsWorkload(name, models, seed)
    if name == "presentations":
        return PresentationsWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("nilmanifold", "torus-ladder", "presentations")
