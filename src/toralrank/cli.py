"""Command-line front end.

Exit codes: 0 success, 1 mathematical failure (cone membership, invariant
violation, failed audit, invalid semantic input), 2 usage or syntax error.
Human-readable and machine-readable (--porcelain) output never mix.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import hirschbrown as hb_mod
from .diagrams import (
    DegreeSequence,
    bs_decompose,
    check_printable,
    format_betti_table,
    format_diagram,
    herzog_kuhl_residuals,
    parse_diagram,
    pure_diagram,
)
from .errors import DegreeCapError, DomainError, ParseError
from .groebner import (
    DEFAULT_DEGREE_CAP,
    finite_length_and_hilbert,
    format_presentation,
    parse_presentation,
)
from .pipeline import run_pipeline
from .polyring import parse_int
from .resolutions import check_generator_ratio, minimal_free_resolution
from .sullivan import (
    parse_algebra_expression,
    c_symplectic_check,
    cohomology,
    euler_characteristic,
    formal_dimension,
    parse_extension,
    parse_model,
)

# Largest sizes the bound commands take.  Past them the exact values of
# `bound` run to thousands of digits and the sweeps to minutes.
MAX_BOUND_SIZE = 500
MAX_AUDIT_NMAX = 20
MAX_LEMMA52_NMAX = 100
# Largest --codim of `hk` and `decompose`, and most degrees in `pure --d`.
# Far past it `hk` runs for minutes and `pure` entries outgrow 4300 digits.
MAX_DIAGRAM_LENGTH = 100


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, DegreeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="toralrank",
        description="Exact lower bounds for cohomology under torus symmetry, "
        "with the supporting free-resolution and transfer machinery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="evaluate every applicable lower bound")
    p.add_argument("--n", type=int, required=True, help="formal dimension (half of it with --csymplectic)")
    p.add_argument("--r", type=int, required=True, help="torus rank")
    p.add_argument("--b", type=int, help="first Betti number, when known")
    p.add_argument("--l", type=int, help="dimension below the first odd degree, when known")
    p.add_argument("--csymplectic", action="store_true")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("table", help="print a built-in table")
    p.add_argument("--paper", choices=("4a", "4b", "5"), required=True)
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("audit-trc", help="check best_bound >= 2^r for small c-symplectic inputs")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("lemma52", help="sweep the mid-degree ratio inequality")
    p.add_argument("--nmax", type=int, default=40)
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_lemma52)

    p = sub.add_parser("pure", help="print the pure diagram of a degree sequence")
    p.add_argument("--d", required=True, help="comma-separated degrees, e.g. 0,1,3")
    p.add_argument("--array", action="store_true", help="windowed array instead of entry lines")
    p.set_defaults(func=_cmd_pure)

    p = sub.add_parser("decompose", help="greedy pure-diagram decomposition of a diagram file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--codim", type=int, required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("hk", help="Herzog-Kuhl residuals of a diagram file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--codim", type=int, required=True)
    p.set_defaults(func=_cmd_hk)

    p = sub.add_parser("resolve", help="minimal free resolution of a presentation file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-degree", type=int, default=DEFAULT_DEGREE_CAP)
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("coker", help="finite length and Hilbert function of a cokernel")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-degree", type=int, default=DEFAULT_DEGREE_CAP)
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_coker)

    p = sub.add_parser("prop41", help="generator-count inequality for a presentation file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-degree", type=int, default=DEFAULT_DEGREE_CAP)
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_prop41)

    p = sub.add_parser("model-cohomology", help="Betti numbers of a model file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cutoff", type=int)
    p.set_defaults(func=_cmd_model_cohomology)

    p = sub.add_parser("csympl", help="degree-2 power test for a model file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--omega", help="candidate degree-2 element")
    p.add_argument("--cutoff", type=int)
    p.set_defaults(func=_cmd_csympl)

    p = sub.add_parser("hb-build", help="transferred differential of an extension file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="write the differential as a presentation file here")
    p.add_argument("--cutoff", type=int)
    p.set_defaults(func=_cmd_hb_build)

    p = sub.add_parser("hb-check", help="verify the transfer identities exactly")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cutoff", type=int)
    p.set_defaults(func=_cmd_hb_check)

    p = sub.add_parser("hb-pipeline", help="extension -> transfer -> projections -> inequality")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--max-degree", type=int, default=DEFAULT_DEGREE_CAP)
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_hb_pipeline)

    return parser


def _check_size(flag, value, cap, least=None):
    """Refuse a size below `least` or above `cap` before any work starts."""
    if least is not None and value < least:
        raise DomainError(f"{flag} must be at least {least}")
    if value > cap:
        raise DomainError(f"{flag} {value} is above the cap {cap}")


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# -- bound ------------------------------------------------------------------


def _cmd_bound(args):
    for name in ("r", "n", "b", "l"):
        value = getattr(args, name)
        if value is not None:
            _check_size(f"--{name}", value, MAX_BOUND_SIZE)
    inputs = bounds_mod.BoundInputs(
        n=args.n, r=args.r, b=args.b, l=args.l, csymplectic=args.csymplectic
    )
    report = bounds_mod.best_bound(inputs)
    if args.porcelain:
        print(f"n={inputs.n}")
        print(f"r={inputs.r}")
        print(f"csymplectic={int(inputs.csymplectic)}")
        for e in report.entries:
            print(f"formula.{e.name}.applicable={int(e.applicable)}")
            if e.applicable:
                print(f"formula.{e.name}.exact={e.exact}")
                print(f"formula.{e.name}.value={e.value}")
                if e.argmin_k is not None:
                    print(f"formula.{e.name}.argmin_k={','.join(map(str, e.argmin_k))}")
        print(f"best={report.best}")
        print(f"trc_target={report.trc_target}")
        print(f"meets_trc={int(report.meets_trc)}")
    else:
        flag = " csymplectic" if inputs.csymplectic else ""
        print(f"inputs: n={inputs.n} r={inputs.r}{flag} (formal dimension {inputs.fd})")
        width = max(len(e.name) for e in report.entries)
        for e in report.entries:
            if not e.applicable:
                print(f"  {e.name.ljust(width)}  not applicable  ({e.note})")
                continue
            detail = ""
            if e.argmin_k is not None:
                detail = "  k=" + ",".join(map(str, e.argmin_k))
            if e.argmin_gamma is not None:
                detail += f" gamma={e.argmin_gamma}"
            exact = "" if e.exact == e.value else f"  (exact {e.exact})"
            print(f"  {e.name.ljust(width)}  {e.value}{exact}{detail}")
        verdict = "meets" if report.meets_trc else "MISSES"
        print(f"best: {report.best}  target 2^r: {report.trc_target}  -> {verdict} the target")
    return 0


# -- tables and audits --------------------------------------------------------


def _cmd_table(args):
    if args.porcelain:
        ranks, rows = bounds_mod.table_cells(args.paper)
        for label, vals in rows:
            for r, v in zip(ranks, vals):
                print(f"table={args.paper} row={label} r={r} value={v}")
    else:
        sys.stdout.write(bounds_mod.render_table(args.paper))
    return 0


def _cmd_audit(args):
    _check_size("--nmax", args.nmax, MAX_AUDIT_NMAX, least=1)
    ok, records = bounds_mod.trc_audit(args.nmax)
    for n, r, best, target, meets in records:
        if args.porcelain:
            print(f"n={n} r={r} best={best} target={target} ok={int(meets)}")
        else:
            mark = "ok" if meets else "FAIL"
            print(f"n={n} r={r:2d}: best {best:5d} >= 2^r = {target:5d}  {mark}")
    if not args.porcelain:
        print(f"audit: {'all satisfied' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_lemma52(args):
    _check_size("--nmax", args.nmax, MAX_LEMMA52_NMAX, least=4)
    ok, records = bounds_mod.midpoint_ratio_sweep(args.nmax)
    for n, r, holds in records:
        if args.porcelain:
            print(f"n={n} r={r} ok={int(holds)}")
        elif not holds:
            print(f"n={n} r={r}: FAIL")
    if not args.porcelain:
        print(
            f"midpoint ratio inequality on even n in [4, {args.nmax}], "
            f"3 <= r <= n+1: {'all satisfied' if ok else 'FAILED'}"
        )
    return 0 if ok else 1


# -- diagrams -----------------------------------------------------------------


def _cmd_pure(args):
    _check_size("--d length", args.d.count(",") + 1, MAX_DIAGRAM_LENGTH)
    where = f"bad degree sequence {args.d!r}"
    degs = tuple(parse_int(tok, where) for tok in args.d.split(","))
    try:
        seq = DegreeSequence(degs)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    diagram = pure_diagram(seq)
    check_printable((f"entry ({i},{j})", v) for (i, j), v in diagram.entries.items())
    sys.stdout.write(format_betti_table(diagram) if args.array else format_diagram(diagram))
    return 0


def _cmd_decompose(args):
    _check_size("--codim", args.codim, MAX_DIAGRAM_LENGTH, least=1)
    diagram = parse_diagram(_read(args.infile))
    deco = bs_decompose(diagram, args.codim)
    check_printable((f"coefficient {k}", coeff) for k, (coeff, _) in enumerate(deco, 1))
    for coeff, seq in deco:
        print(f"{coeff} * pi{seq}")
    exact = deco.recompose(codim_hint=args.codim) == diagram
    print(f"recomposes exactly: {'yes' if exact else 'NO'}")
    return 0 if exact else 1


def _cmd_hk(args):
    _check_size("--codim", args.codim, MAX_DIAGRAM_LENGTH, least=1)
    diagram = parse_diagram(_read(args.infile))
    residuals = herzog_kuhl_residuals(diagram, args.codim)
    check_printable((f"residual t={t}", v) for t, v in enumerate(residuals))
    for t, v in enumerate(residuals):
        print(f"t={t}: {v}")
    print(f"all zero: {'yes' if all(v == 0 for v in residuals) else 'no'}")
    return 0


# -- presentations ------------------------------------------------------------


def _cmd_resolve(args):
    p = parse_presentation(_read(args.infile))
    res = minimal_free_resolution(p, args.max_degree)
    table = format_betti_table(res.betti_diagram())
    ranks = " <- ".join(f"F{i}(rank {m.rank})" for i, m in enumerate(res.free_modules()))
    print(f"minimal resolution: {ranks}")
    print(f"length: {res.length}")
    sys.stdout.write(table)
    return 0


def _cmd_coker(args):
    p = parse_presentation(_read(args.infile))
    rep = finite_length_and_hilbert(p, args.max_degree)
    if args.porcelain:
        print(f"finite={int(rep.finite)}")
        if rep.finite:
            print(f"hilbert={','.join(map(str, rep.hilbert))}")
            print(f"total_dim={rep.total_dim}")
            print(f"top_degree={rep.top_degree}")
    else:
        if not rep.finite:
            print("cokernel: not finite length")
        else:
            print("cokernel: finite length")
            print(f"hilbert function: {' '.join(map(str, rep.hilbert))}")
            print(f"total dimension: {rep.total_dim}")
            print(f"top degree: {rep.top_degree}")
    return 0


def _cmd_prop41(args):
    p = parse_presentation(_read(args.infile))
    rep = check_generator_ratio(p, args.max_degree)
    if args.porcelain:
        print(f"k={rep.k}")
        print(f"l={rep.l}")
        print(f"N={rep.N}")
        print(f"ratio={rep.ratio}")
        print(f"required={rep.required}")
        print(f"beta0={rep.beta0}")
        print(f"beta1={rep.beta1}")
        print(f"holds={int(rep.holds)}")
    else:
        print(f"k = {rep.k}, l = {rep.l}, top degree N = {rep.N}")
        print(f"ratio (N+r)/(N+1) = {rep.ratio}; requires l >= {rep.required}")
        print(f"minimal resolution: beta0 = {rep.beta0}, beta1 = {rep.beta1}")
        print(f"inequality holds: {'yes' if rep.holds else 'NO'}")
    return 0 if rep.holds else 1


# -- models -------------------------------------------------------------------


def _cmd_model_cohomology(args):
    model = parse_model(_read(args.infile))
    h = cohomology(model, args.cutoff)
    print("betti: " + " ".join(str(h.dim(p)) for p in range(h.cutoff + 1)))
    print(f"formal dimension: {formal_dimension(h)}")
    print(f"euler characteristic: {euler_characteristic(h)}")
    bad = model.minimality_violations()
    if bad:
        print(f"warning: differential has linear terms on: {', '.join(bad)}")
    return 0


def _cmd_csympl(args):
    model = parse_model(_read(args.infile))
    h = cohomology(model, args.cutoff)
    omega = None
    if args.omega is not None:
        omega = parse_algebra_expression(args.omega, model)
    rep = c_symplectic_check(h, omega)
    status = {True: "yes", False: "no", None: "unknown"}[rep.is_csymplectic]
    print(f"c-symplectic: {status}  (n = {rep.n})")
    print(f"poincare duality: {'yes' if rep.poincare_duality else 'no'}")
    if rep.omega_used is not None:
        print(f"omega: {rep.omega_used}")
        print(f"lefschetz type: {'yes' if rep.lefschetz_type else 'no'}")
    print(f"detail: {rep.detail}")
    return 0


# -- transfer -----------------------------------------------------------------


def _load_extension(args):
    ext = parse_extension(_read(args.infile))
    zs = hb_mod.split_Z(ext)
    rd = hb_mod.seeded_retract(ext, zs, args.cutoff)
    return ext, zs, rd


def _cmd_hb_build(args):
    ext, zs, rd = _load_extension(args)
    hb = hb_mod.perturb(ext, rd)
    print(f"H basis dimension: {hb.h_rank}")
    betti = hb.betti_of_h()
    print("betti: " + " ".join(str(betti.get(p, 0)) for p in range(rd.cutoff + 1)))
    nonzero = sum(1 for col in hb.delta.values() for v in col.values() if not v.is_zero())
    print(f"delta: {nonzero} nonzero entries, torus rank {hb.torus_rank}")
    text = format_presentation(hb_mod.delta_map(hb))
    if args.out:
        Path(args.out).write_text(text)
        print(f"delta presentation written to {args.out}")
    else:
        print("delta presentation:")
        sys.stdout.write(text)
    return 0


def _cmd_hb_check(args):
    ext, zs, rd = _load_extension(args)
    hb = hb_mod.perturb(ext, rd)
    report = hb_mod.verify_transfer(ext, rd, hb)
    if report.ok:
        print(f"all transfer identities hold exactly (degrees <= {report.checked_up_to})")
        return 0
    for name, witness in report.failures:
        print(f"violated: {name}  [witness: {witness}]")
    return 1


def _cmd_hb_pipeline(args):
    result = run_pipeline(_read(args.infile), args.cutoff, args.max_degree)
    if args.porcelain:
        print(f"b={result.b}")
        print(f"k={result.k}")
        print(f"finite={int(result.finite)}")
        if result.finite:
            print(f"total_dim={result.total_dim}")
        print(f"dim_h={result.actual_h_dim}")
        print(f"fd={result.fd}")
        print(f"r={result.torus_rank}")
        for tagname, chk in (("even", result.even_check), ("odd", result.odd_check)):
            if chk is not None:
                print(f"map_{tagname}.k={chk.k}")
                print(f"map_{tagname}.l={chk.l}")
                print(f"map_{tagname}.N={chk.N}")
                print(f"map_{tagname}.ratio={chk.ratio}")
                print(f"map_{tagname}.holds={int(chk.holds)}")
        if result.exterior_witness is not None:
            print(f"exterior_witness={result.exterior_witness}")
        print(f"bound={result.bound_value}")
        print(f"bound_met={int(result.bound_met)}")
    else:
        print(
            f"degree-1 splitting: b = {result.b}, k = {result.k} "
            f"(torus rank {result.torus_rank}, formal dimension {result.fd})"
        )
        print(
            "transferred cohomology: "
            + (f"finite, total dimension {result.total_dim}" if result.finite else "NOT finite")
        )
        if result.k == 0:
            print(
                f"k = 0 branch: cohomology contains an exterior algebra on {result.b} "
                f"degree-1 classes, so dim H* >= {result.exterior_witness}"
            )
        else:
            for tagname, chk in (("even map", result.even_check), ("odd map", result.odd_check)):
                if chk is None:
                    print(f"{tagname}: vacuous")
                    continue
                verdict = "holds" if chk.holds else "FAILS"
                print(
                    f"{tagname}: k={chk.k} l={chk.l} N={chk.N} "
                    f"ratio={chk.ratio} -> {verdict}"
                )
        print(
            f"rank/Betti tradeoff bound at (fd={result.fd}, r={result.torus_rank}, "
            f"b={result.b}): {result.bound_value}; "
            f"dim H* = {result.actual_h_dim} -> {'met' if result.bound_met else 'NOT met'}"
        )
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
