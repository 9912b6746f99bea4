"""Command-line front end.

Subcommands::

    orliczforms norm --form poly:x1 --kind lp --p 2
    orliczforms verify --config run.json --output json --out reports.json
    orliczforms selftest
    orliczforms corpus list --dims 2

Exit codes: 0 success, 1 verification failure, 2 configuration/usage error.
The environment variable ORLICZFORMS_CONFIG supplies a default config path
for ``verify`` when --config is omitted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import exterior
from .config import DEFAULT_CONFIG, NODE_BUDGET, load_config
from .corpus import build_corpus, default_domain, named_form
from .errors import ConfigError, OrliczFormsError
from .forms import DifferentialForm
from .geometry import Ball
from .harness import reports_to_csv, reports_to_json, run_suite, suite_passed
from .homotopy import closed_part, decomposition_residual
from .young import (YOUNG_FAMILIES, OscillationNormSpec, lp_norm, luxemburg_norm,
                    oscillation_norm, power)

ENV_CONFIG = "ORLICZFORMS_CONFIG"
# the --phi spellings, one per Young-function family
PHI_SPECS = ", ".join(f"{name}:<{key}>" for name, (keys, _) in YOUNG_FAMILIES.items()
                      for key in keys)


def _parse_phi(spec: str):
    name, _, rest = spec.partition(":")
    if name not in YOUNG_FAMILIES:
        raise ConfigError([f"unknown Young function spec {spec!r}; use {PHI_SPECS}"])
    keys, make = YOUNG_FAMILIES[name]
    (kind,) = keys.values()
    try:
        value = kind(rest)
    except ValueError:
        raise ConfigError([f"bad parameter in Young function spec {spec!r}"])
    # outside the try: the family rejects p < 1, inf and nan in its own words
    return make(value)


def cmd_norm(args) -> int:
    dims = args.dims
    if args.resolution ** dims > NODE_BUDGET:  # the budget load_config applies
        raise ConfigError([f"--resolution {args.resolution} gives {args.resolution ** dims} "
                           f"nodes at --dims {dims}, above the budget of {NODE_BUDGET}"])
    domain = default_domain(dims)
    form = named_form(args.form, dims, domain)
    if args.kind == "lp":
        value = lp_norm(form, domain, args.p, resolution=args.resolution)
        print(f"lp[p={args.p:g}] {args.form} = {value!r}")
        return 0
    phi = _parse_phi(args.phi)
    if args.kind == "luxemburg":
        value = luxemburg_norm(form, domain, phi, resolution=args.resolution)
        print(f"luxemburg[{phi.describe()}] {args.form} = {value!r}")
        return 0
    spec = OscillationNormSpec(args.kind, k=args.k, sigma=args.sigma,
                               ball_count=args.ball_count)
    result = oscillation_norm(form, domain, phi, spec,
                              ball_resolution=args.resolution)
    b = result.argmax_ball
    center = ",".join(f"{c:.6f}" for c in b.center)
    print(f"{args.kind}[{phi.describe()},k={args.k:g},sigma={args.sigma:g}] "
          f"{args.form} = {result.value!r} argmax_ball=({center});r={b.radius:.6f}")
    return 0


def cmd_verify(args) -> int:
    path = args.config or os.environ.get(ENV_CONFIG)
    overrides = {}
    if args.no_stability:
        overrides["stability_check"] = False
    cfg = load_config(path, overrides)
    try:  # open --out before the suite runs; empty it once the reports are in
        with (open(args.out, "a", encoding="utf-8") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            reports = run_suite(cfg)
            if args.out:
                fh.truncate(0)
            fh.write(reports_to_csv(reports) if args.output == "csv"
                     else reports_to_json(reports, cfg))
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 2
    if not suite_passed(reports):
        failing = [r.inequality for r in reports if not r.ok]
        print(f"FAILED verifiers: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _battery(dims: int) -> list:
    """Exact-identity battery rows: (name, worst, tolerance)."""
    rng = np.random.default_rng(0)
    rows = []
    # double star and modulus identities over random covectors
    worst_ss, worst_mod = 0.0, 0.0
    for _ in range(250):
        l = int(rng.integers(0, dims + 1))
        a = exterior.CovectorValue(dims, l,
                                   rng.standard_normal(exterior.num_components(dims, l)))
        sign = -1.0 if (l * (dims - l)) % 2 else 1.0
        ss = exterior.hodge_star(exterior.hodge_star(a))
        worst_ss = max(worst_ss, float(np.max(np.abs(ss.coeffs - sign * a.coeffs))))
        m2 = exterior.modulus(a) ** 2
        via_star = exterior.hodge_star(exterior.wedge(a, exterior.hodge_star(a)))
        worst_mod = max(worst_mod, abs(float(via_star.coeffs[0]) - m2))
    rows.append(("double-star sign law", worst_ss, 1e-12))
    rows.append(("modulus identity", worst_mod, 1e-12))

    # dd = 0 on corpus forms with two exact derivative levels
    domain = default_domain(dims)
    pts = domain.centroid() + 0.8 * (rng.random((200, dims)) - 0.5)
    worst_dd = 0.0
    corpus = build_corpus(domain, dims, admit=False)
    for entry in corpus:
        if entry.form is None or entry.degree > dims - 2:
            continue
        try:
            ddu = entry.form.d().d()
        except OrliczFormsError:
            continue
        worst_dd = max(worst_dd, float(np.max(ddu.modulus_values(pts))))
    rows.append(("dd = 0 (analytic)", worst_dd, 1e-12))

    # closed-part collapse: u_B = u - T(du) is u itself when du = 0
    u = next(e.form for e in corpus if e.id == "poly-closed-1form")
    ball = Ball(domain.centroid(), 0.25)
    gap = (u - closed_part(u, ball, resolution=9)).modulus_values(ball.quadrature(9).points)
    rows.append(("closed-part collapse", float(gap.max()), 1e-12))

    # decomposition residual on one smooth entry
    u = DifferentialForm(dims, 1, ("x2^3",) + ("0",) * (dims - 1))
    res = decomposition_residual(u, domain, resolution=21 if dims == 2 else 11)
    rows.append(("decomposition residual", res, 1e-3))

    # Luxemburg vs Lp oracle; the constant dx1 puts the root at max|f|
    worst_lux = 0.0
    for f in (DifferentialForm.scalar(dims, "x1^2 + x2"), named_form("const:dx1", dims)):
        for p in (1.5, 2.0, 3.0):
            lux = luxemburg_norm(f, domain, power(p), resolution=21)
            ref = lp_norm(f, domain, p, resolution=21)
            worst_lux = max(worst_lux, abs(lux - ref) / ref)
    rows.append(("Luxemburg/Lp agreement", worst_lux, 1e-12))
    return rows


def cmd_selftest(args) -> int:
    failed = False
    for dims in (2, 3):
        print(f"-- dims = {dims}")
        for name, worst, tol in _battery(dims):
            ok = worst <= tol
            failed = failed or not ok
            print(f"{'PASS' if ok else 'FAIL'}  {name:28s} "
                  f"worst={worst:.3e}  tol={tol:.0e}")
    return 1 if failed else 0


def cmd_corpus_list(args) -> int:
    domain = default_domain(args.dims)
    entries = build_corpus(domain, args.dims, admit=not args.no_admission,
                           resolution=21 if args.dims == 2 else 9)
    if args.output == "json":
        print(json.dumps([e.summary() for e in entries], sort_keys=True, indent=2))
        return 0
    for e in entries:
        res = "-" if e.residual is None else f"{e.residual:.3e}"
        print(f"{e.id:24s} degree={e.degree}  residual={res:10s} "
              f"tags={','.join(sorted(e.tags))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="orliczforms",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="compute one norm of a preset form")
    p_norm.add_argument("--form", required=True,
                        help="zero | const:dx<i> | poly:<expr> | "
                             "oneform:<e1>,..,<en> | corpus:<id>")
    p_norm.add_argument("--kind", required=True,
                        choices=["lp", "luxemburg", "bmo", "lipschitz"])
    p_norm.add_argument("--p", type=float, default=2.0)
    p_norm.add_argument("--phi", default="power:2",
                        help=f"Young function: {PHI_SPECS} (default power:2)")
    p_norm.add_argument("--dims", type=int, default=2, choices=[2, 3])
    p_norm.add_argument("--resolution", type=int, default=41)
    p_norm.add_argument("--k", type=float, default=DEFAULT_CONFIG["k"])
    p_norm.add_argument("--sigma", type=float, default=DEFAULT_CONFIG["sigma"])
    p_norm.add_argument("--ball-count", type=int, default=DEFAULT_CONFIG["ball_count"])
    p_norm.set_defaults(fn=cmd_norm)

    p_verify = sub.add_parser("verify", help="run the inequality suite")
    p_verify.add_argument("--config",
                          help=f"JSON config path (default ${ENV_CONFIG})")
    p_verify.add_argument("--output", choices=["json", "csv"], default="json")
    p_verify.add_argument("--out", help="write report here instead of stdout")
    p_verify.add_argument("--no-stability", action="store_true",
                          help="skip the doubled-resolution stability rerun")
    p_verify.set_defaults(fn=cmd_verify)

    p_self = sub.add_parser("selftest", help="run the exact-identity battery")
    p_self.set_defaults(fn=cmd_selftest)

    p_corpus = sub.add_parser("corpus", help="corpus inspection")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    p_list = corpus_sub.add_parser("list", help="list the default corpus")
    p_list.add_argument("--dims", type=int, default=2, choices=[2, 3])
    p_list.add_argument("--output", choices=["text", "json"], default="text")
    p_list.add_argument("--no-admission", action="store_true",
                        help="skip the decomposition admission gate")
    p_list.set_defaults(fn=cmd_corpus_list)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    except OrliczFormsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
