"""Inequality-verification harness.

Each ``verify_*`` function computes both sides of one norm inequality on
every applicable corpus entry and reports the ratios; the maximum ratio is
the *empirical constant* — a lower bound on the best constant over the finite
corpus and ball family, never a proof.  Degenerate entries (vanishing
denominators, hypotheses that fail for the entry) are skipped with a flag
rather than failed: the inequalities are vacuous there.

Cost model: the homotopy image Tu is expensive to evaluate pointwise, so the
context materializes it once per entry as the exact cubic spline through its
values on the domain grid and runs every norm against the spline; the
per-ball closed parts of Tu differentiate the spline exactly.  Under the
doubled-grid stability rerun the y-quadrature that *defines* the domain's T
(behind Tu and u_Omega) stays fixed while the sampling grid and all norm
quadratures double.  Per-ball closed parts take their y-nodes from
``ball_res(scale)`` (1 node in the bump support at resolution 9, 16 at 18),
so there the rerun also changes the operator.

Besides the materialized Tu, the context caches node values.  On the
domain grid, |u|, |u_Omega| and |u - u_Omega| are computed once per (entry,
scale) and shared by the three global verifiers.  On the balls, the values
|u - u_B| at each ball's quadrature nodes are computed once per (form,
scale) and shared by every Young function and weight; the per-ball profile
||u - u_B||_{phi,B} is then one Luxemburg bisection per ball, cached per
(form, phi, weight, scale) and shared by the BMO and Lipschitz kinds.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corpus import CorpusEntry
from .errors import InvalidInputError, RejectedPairError
from .forms import DifferentialForm, codifferential, pointwise_modulus
from .geometry import Ball, Box, Domain, ball_family
from .homotopy import FD_SCALE, T_NODES, apply_T, closed_part_values, materialize
from .weights import Weight, check_a_class, check_phi_dominated
from .young import (OscillationNormSpec, YoungFunction, check_g_class,
                    check_wrh, luxemburg_norm, lp_norm, oscillation_norm,
                    oscillation_profile, oscillation_residuals)

__all__ = [
    "HarnessContext", "VerificationReport", "Verifier", "VERIFIERS", "VERIFIER_NAMES",
    "verify_lemma_T_bound", "verify_lemma_closedpart_bound",
    "verify_sobolev_poincare", "verify_oscillation_lower_bound",
    "verify_thm_lipschitz", "verify_thm_bmo", "verify_thm_bmo_le_lip",
    "verify_conjugate_pair", "verify_weighted_lipschitz",
    "run_suite", "suite_passed", "reports_to_json", "reports_to_csv",
]

STABILITY_TOLERANCE = 0.10
_EPS = 1e-13


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


@dataclass
class VerificationReport:
    inequality: str
    config: dict
    entries: list
    empirical_constant: float | None
    argmax: str | None
    status: str = "ok"
    stability: dict | None = None
    notes: tuple = ("empirical constant is a lower bound over a finite corpus "
                    "and ball family",)

    @property
    def ok(self) -> bool:
        return not self.status.startswith("fail")

    def to_dict(self) -> dict:
        return _jsonable({
            "inequality": self.inequality,
            "config": self.config,
            "entries": self.entries,
            "empirical_constant": self.empirical_constant,
            "argmax": self.argmax,
            "status": self.status,
            "stability": self.stability,
            "notes": list(self.notes),
        })


def _collect(inequality: str, config: dict, entries: list) -> VerificationReport:
    """Assemble a report: empirical constant = max ratio over unflagged entries."""
    best, arg = None, None
    for e in entries:
        if e.get("flags"):
            continue
        r = e["ratio"]
        if best is None or r > best:
            best, arg = r, e["id"]
    status = "ok"
    if best is not None and not math.isfinite(best):
        status = "fail:nonfinite-ratio"
    return VerificationReport(inequality, config, entries, best, arg, status)


class HarnessContext:
    """Shared geometry, corpus, and caches for the verifier battery.

    ``scale`` arguments on the accessors multiply the norm-quadrature and
    materialization resolutions (the stability rerun passes 2); the ball
    family and the y-quadrature behind the domain's T never change with
    scale, while per-ball closed parts take theirs from ``ball_res(scale)``.
    """

    def __init__(self, domain: Domain, corpus: list, *, grid_resolution: int = 51,
                 ball_resolution: int = 15, ball_count: int = 24,
                 sigma: float = 1.1, rho: float | None = None, k: float = 0.5,
                 radius_fraction: float = 0.25):
        if not sigma > 1:
            raise InvalidInputError(f"sigma must exceed 1, got {sigma}")
        if not 0 < k < 1:
            raise InvalidInputError(f"k must lie in (0, 1), got {k}")
        self.domain = domain
        self.dims = domain.dims
        self.corpus = list(corpus)
        self.grid_resolution = grid_resolution
        self.ball_resolution = ball_resolution
        self.ball_count = ball_count
        self.sigma = sigma
        self.rho = sigma if rho is None else rho
        self.k = k
        self.radius_fraction = radius_fraction
        self._balls: tuple | None = None
        self._tu: dict = {}
        self._global: dict = {}
        self._residuals: dict = {}
        self._profiles: dict = {}
        self._g_class: dict = {}

    # -- geometry ---------------------------------------------------------
    def grid_res(self, scale: int = 1) -> int:
        return self.grid_resolution * scale

    def ball_res(self, scale: int = 1) -> int:
        return self.ball_resolution * scale

    def balls(self) -> tuple:
        if self._balls is None:
            self._balls = tuple(ball_family(self.domain, self.ball_count,
                                            self.radius_fraction,
                                            expansion=self.sigma))
        return self._balls

    def echo(self, **extra) -> dict:
        base = {"dims": self.dims, "grid_resolution": self.grid_resolution,
                "ball_resolution": self.ball_resolution,
                "ball_count": self.ball_count, "t_nodes": T_NODES,
                "sigma": self.sigma, "rho": self.rho, "k": self.k,
                "radius_fraction": self.radius_fraction}
        base.update(extra)
        return base

    def g_class(self, phi: YoungFunction, p: float, q: float, c: float | None):
        """``check_g_class(phi, p, q, c)``, run once per (phi, p, q, c)."""
        key = (phi.describe(), p, q, c)
        if key not in self._g_class:
            self._g_class[key] = check_g_class(phi, p, q, c)
        return self._g_class[key]

    # -- cached fields ----------------------------------------------------
    def form_entries(self, min_degree: int = 0, max_degree: int | None = None) -> list:
        hi = self.dims if max_degree is None else max_degree
        return [e for e in self.corpus
                if e.form is not None and min_degree <= e.degree <= hi]

    def pair_entries(self) -> list:
        return [e for e in self.corpus if e.pair is not None]

    def Tu(self, entry: CorpusEntry, scale: int = 1) -> DifferentialForm:
        """Materialized homotopy image of the entry on the domain grid."""
        key = (entry.id, scale)
        if key not in self._tu:
            if not isinstance(self.domain, Box):
                raise InvalidInputError(
                    "homotopy-image verifiers require a box domain")
            tu = apply_T(entry.form, self.domain, resolution=self.grid_resolution)
            self._tu[key] = materialize(tu, self.domain,
                                        resolution=self.grid_res(scale))
        return self._tu[key]

    def global_moduli(self, entry: CorpusEntry, scale: int = 1) -> tuple:
        """|u|, |u_Omega| and |u - u_Omega| at the nodes of
        ``domain.quadrature(grid_res(scale))``, from one evaluation of u:
        u_Omega is the mean over those nodes for 0-forms, else u - T(du)
        with the T behind Tu (at ``grid_resolution`` on both scales)."""
        key = (entry.id, scale)
        if key not in self._global:
            quad = self.domain.quadrature(self.grid_res(scale))
            u = entry.form.evaluate(quad.points)
            u_omega = closed_part_values(entry.form, self.domain, quad, u,
                                         resolution=self.grid_resolution)
            self._global[key] = tuple(map(pointwise_modulus, (u, u_omega, u - u_omega)))
        return self._global[key]

    def oscillation(self, form_key: str, form: DifferentialForm, phi: YoungFunction,
                    kind: str, weight: Weight | None = None, scale: int = 1):
        """(value, argmax ball) of the BMO or Lipschitz seminorm over balls().

        Reads the two per-ball cache levels (the third, the domain values of
        ``global_moduli``, serves the global verifiers): the node values
        |form - form_B| on every ball, once per (form_key, scale), closed
        parts included, shared by every Young function and weight; and the
        profile ||form - form_B||_{phi, B}, per (form_key, phi, weight,
        scale), shared by the two kinds, so their comparison is exact to
        rounding.
        """
        balls = list(self.balls())
        rkey = (form_key, scale)
        if rkey not in self._residuals:
            self._residuals[rkey] = oscillation_residuals(
                form, balls, ball_resolution=self.ball_res(scale))
        wkey = None if weight is None else weight.describe()
        key = (form_key, phi.describe(), wkey, scale)
        if key not in self._profiles:
            self._profiles[key] = oscillation_profile(
                form, balls, phi, weight, ball_resolution=self.ball_res(scale),
                residuals=self._residuals[rkey])
        res = oscillation_norm(form, self.domain, phi,
                               OscillationNormSpec(kind, k=self.k, sigma=self.sigma),
                               balls=balls, profile=self._profiles[key])
        return res.value, res.argmax_ball


def _ball_dict(ball: Ball) -> dict:
    return {"center": [float(c) for c in ball.center], "radius": float(ball.radius)}


def _ratio_entry(eid: str, lhs: float, rhs: float, **extra) -> dict:
    entry = {"id": eid, "lhs": float(lhs), "rhs": float(rhs),
             "ratio": math.nan, "flags": []}
    if rhs <= _EPS * (1.0 + abs(lhs)):
        entry["flags"].append("zero-denominator")
    else:
        entry["ratio"] = float(lhs / rhs)
    entry.update(extra)
    return entry


# ---------------------------------------------------------------------------
# verifiers and their parameter gates (verify_* raises on a gate, load_config
# reports it)


def _raise_on(violations: list) -> None:
    if violations:
        raise InvalidInputError("; ".join(violations))


def _exponent_t_gate(t: float) -> list:
    return [] if t > 1 else [f"exponent t must exceed 1, got {t}"]


def _sobolev_gate(n: int, t: float) -> list:
    return [] if 1 < t < n else [f"need 1 < t < dims={n}, got t={t}"]


def _thm_bmo_gate(n: int, p: float, q: float) -> list:
    out = [] if 1 < p < q else [f"need 1 < p < q, got p={p}, q={q}"]
    if not q * (n - p) < n * p:
        out.append(f"exponent gate q(n-p) < np fails: {q}*({n}-{p}) = "
                   f"{q * (n - p)} >= {n * p}")
    return out


def _conjugate_gate(p: float, q: float) -> list:
    ok = p > 0 and q > 0 and abs(1.0 / p + 1.0 / q - 1.0) <= 1e-12
    return [] if ok else [f"conjugate exponents need 1/p + 1/q = 1, got p={p}, q={q}"]


def _weighted_gate(phi: YoungFunction, p: float, q: float, alpha: float, s: float) -> list:
    out = []
    if not alpha > 1:
        out.append(f"alpha must exceed 1, got {alpha}")
    gate = alpha * p - p - alpha * q
    if not gate > 0:
        out.append(f"exponent gate alpha*p - p - alpha*q > 0 fails: {alpha}*{p} "
                   f"- {p} - {alpha}*{q} = {gate}")
    if not 1 <= s < q:
        out.append(f"need 1 <= s < q, got s={s}, q={q}")
    else:
        dom_rep = check_phi_dominated(phi, s)
        if not dom_rep.ok:
            out.append(f"Young function is not dominated by t^{s}: ratio "
                       f"{dom_rep.worst_ratio:.6g} at t={dom_rep.worst_t:.3g}")
    return out


def _weights_gate(weights: list, region: Domain, resolution: int) -> list:
    out = []
    for i, w in enumerate(weights):
        try:
            w.validate_positive(region, resolution)
        except InvalidInputError as exc:
            out.append(f"weights[{i}]: {exc}")
    return out


def verify_lemma_T_bound(ctx: HarnessContext, t: float, scale: int = 1) -> VerificationReport:
    """||Tu||_t <= C |domain| diam(domain) ||u||_t over entries of degree >= 1."""
    _raise_on(_exponent_t_gate(t))
    dom = ctx.domain
    geom = dom.volume() * dom.diameter()
    entries = []
    for e in ctx.form_entries(min_degree=1):
        lhs = lp_norm(ctx.Tu(e, scale), dom, t, resolution=ctx.grid_res(scale))
        rhs = geom * lp_norm(e.form, dom, t, resolution=ctx.grid_res(scale))
        entries.append(_ratio_entry(e.id, lhs, rhs))
    return _collect("lemma_T_bound", ctx.echo(t=t, scale=scale), entries)


def verify_lemma_closedpart_bound(ctx: HarnessContext, t: float,
                                  scale: int = 1) -> VerificationReport:
    """||u_Omega||_t <= C |domain| ||u||_t (mean for 0-forms, u - T(du) above)."""
    _raise_on(_exponent_t_gate(t))
    dom = ctx.domain
    entries = []
    for e in ctx.form_entries():
        mod_u, mod_omega, _ = ctx.global_moduli(e, scale)
        lhs = lp_norm(mod_omega, dom, t, resolution=ctx.grid_res(scale))
        rhs = dom.volume() * lp_norm(mod_u, dom, t, resolution=ctx.grid_res(scale))
        entries.append(_ratio_entry(e.id, lhs, rhs))
    return _collect("lemma_closed_part_bound", ctx.echo(t=t, scale=scale), entries)


def verify_sobolev_poincare(ctx: HarnessContext, t: float,
                            scale: int = 1) -> VerificationReport:
    """||u - u_Omega||_{nt/(n-t)} <= C ||du||_t, for 1 < t < n.

    Closed entries make both sides vanish and are skip-flagged.
    """
    n = ctx.dims
    _raise_on(_sobolev_gate(n, t))
    s = n * t / (n - t)
    dom = ctx.domain
    entries = []
    for e in ctx.form_entries(max_degree=n - 1):
        du = e.form.d(fd_step=FD_SCALE * dom.diameter())
        rhs = lp_norm(du, dom, t, resolution=ctx.grid_res(scale))
        lhs = lp_norm(ctx.global_moduli(e, scale)[2], dom, s, resolution=ctx.grid_res(scale))
        entries.append(_ratio_entry(e.id, lhs, rhs))
    return _collect("sobolev_poincare", ctx.echo(t=t, target_exponent=s, scale=scale),
                    entries)


def verify_oscillation_lower_bound(ctx: HarnessContext, psi: YoungFunction,
                                   a_values=(0.5, 1.0, 2.0),
                                   weight: Weight | None = None,
                                   scale: int = 1) -> VerificationReport:
    """integral psi(a|u|) dmu <= C integral psi(2a|u - u_Omega|) dmu.

    The hypothesis requires |u - u_Omega| > 0 on a set of positive measure;
    entries violating it on the grid are skip-flagged.
    """
    dom = ctx.domain
    quad = dom.quadrature(ctx.grid_res(scale))
    w = quad.weights if weight is None else quad.weights * weight(quad.points)
    entries = []
    for e in ctx.form_entries():
        mod_u, _, mod_d = ctx.global_moduli(e, scale)
        # the hypothesis needs |u - u_Omega| > 0 on positive measure; below
        # the decomposition gate the oscillation is indistinguishable from
        # operator error (closed entries land at exactly 0), so flag it
        degenerate = float(np.max(mod_d)) <= 1e-3 * (1.0 + float(np.max(mod_u)))
        for a in a_values:
            lhs = float(np.sum(w * psi(a * mod_u)))
            rhs = float(np.sum(w * psi(2.0 * a * mod_d)))
            entry = _ratio_entry(f"{e.id}[a={a:g}]", lhs, rhs, a=float(a))
            if degenerate:
                entry["flags"].append("degenerate-hypothesis")
                entry["ratio"] = math.nan
            entries.append(entry)
    wdesc = None if weight is None else weight.describe()
    return _collect("oscillation_lower_bound",
                    ctx.echo(psi=psi.describe(), a_values=list(a_values),
                             weight=wdesc, scale=scale), entries)


def _require_g_class(ctx: HarnessContext, phi: YoungFunction, p: float, q: float,
                     c: float | None):
    rep = ctx.g_class(phi, p, q, c)
    if not rep.member:
        raise InvalidInputError(
            "Young function fails the G(p,q,c) sandwich: " + "; ".join(rep.violations))
    return rep


def verify_thm_lipschitz(ctx: HarnessContext, phi: YoungFunction, p: float,
                         q: float, c: float | None = None,
                         scale: int = 1) -> VerificationReport:
    """||Tu||_{phi locLip_k} <= C ||u||_phi for entries passing the weak
    reverse Hoelder check with s=q, t=p on rho-dilated balls."""
    _require_g_class(ctx, phi, p, q, c)
    dom = ctx.domain
    wrh_balls = list(ctx.balls()) if ctx.rho == ctx.sigma else None
    entries = []
    for e in ctx.form_entries(min_degree=1):
        wrh = check_wrh(e.form, dom, s=q, t=p, rho=ctx.rho, balls=wrh_balls,
                        ball_count=ctx.ball_count,
                        radius_fraction=ctx.radius_fraction,
                        resolution=ctx.ball_res(scale))
        lhs, arg = ctx.oscillation(("Tu", e.id), ctx.Tu(e, scale), phi,
                                   "lipschitz", scale=scale)
        rhs = luxemburg_norm(e.form, dom, phi, resolution=ctx.grid_res(scale))
        entry = _ratio_entry(e.id, lhs, rhs, argmax_ball=_ball_dict(arg),
                             wrh_constant=wrh.constant)
        if not wrh.ok:
            entry["flags"].append("wrh-degenerate")
            entry["ratio"] = math.nan
        entries.append(entry)
    return _collect("thm_lipschitz",
                    ctx.echo(phi=phi.describe(), p=p, q=q, c=c, scale=scale),
                    entries)


def verify_thm_bmo(ctx: HarnessContext, phi: YoungFunction, p: float, q: float,
                   c: float | None = None, scale: int = 1) -> VerificationReport:
    """||Tu||_{phi*} <= C ||u||_phi under the exponent gate q(n-p) < np.

    No reverse-Hoelder hypothesis here; the gate on (p, q) replaces it.
    """
    n = ctx.dims
    _raise_on(_thm_bmo_gate(n, p, q))
    _require_g_class(ctx, phi, p, q, c)
    dom = ctx.domain
    entries = []
    for e in ctx.form_entries(min_degree=1):
        lhs, arg = ctx.oscillation(("Tu", e.id), ctx.Tu(e, scale), phi, "bmo",
                                   scale=scale)
        rhs = luxemburg_norm(e.form, dom, phi, resolution=ctx.grid_res(scale))
        entries.append(_ratio_entry(e.id, lhs, rhs, argmax_ball=_ball_dict(arg)))
    return _collect("thm_bmo", ctx.echo(phi=phi.describe(), p=p, q=q, c=c,
                                        gate=f"{q}*({n}-{p}) < {n}*{p}",
                                        scale=scale), entries)


def verify_thm_bmo_le_lip(ctx: HarnessContext, phi: YoungFunction,
                          scale: int = 1) -> VerificationReport:
    """||u||_{phi*} <= |domain|^{k/n} ||u||_{phi locLip_k} with the explicit
    proof constant; per-entry breaches fail the report."""
    n = ctx.dims
    constant = ctx.domain.volume() ** (ctx.k / n)
    entries = []
    failed = False
    for e in ctx.form_entries():
        bmo, _ = ctx.oscillation(e.id, e.form, phi, "bmo", scale=scale)
        lip, _ = ctx.oscillation(e.id, e.form, phi, "lipschitz", scale=scale)
        entry = _ratio_entry(e.id, bmo, constant * lip,
                             bmo=bmo, lipschitz=lip,
                             margin=float(constant * lip - bmo))
        if bmo > constant * lip + 1e-9:
            entry["flags"].append("bound-breached")
            failed = True
        entries.append(entry)
    report = _collect("thm_bmo_le_lip",
                      ctx.echo(phi=phi.describe(), proof_constant=constant,
                               scale=scale), entries)
    if failed:
        report.status = "fail:inequality"
    return report


def verify_conjugate_pair(ctx: HarnessContext, phi: YoungFunction, p: float,
                          q: float, A=None, scale: int = 1) -> VerificationReport:
    """BMO comparison for a conjugate pair: ||u||_{phi*} vs |B|^beta ||v||_{phi*}.

    Structural gate: A(du) must equal the codifferential of v on the grid
    (residual <= 1e-4, else the pair is rejected); the pointwise bound
    |du|^q <= |d star v|^p must hold at every quadrature node.  The |B|^beta
    factor is reported per ball in the family, max over balls.

    The right-hand oscillation is computed on the Hodge dual of v: the bound's
    derivation pivots through star(v) - star(theta) with theta a closed form,
    and a constant-coefficient top form is closed, so the dual's mean is an
    admissible theta.  Taken literally on v itself the right side vanishes
    identically whenever v has top degree (every top form is its own closed
    part), which would make the comparison vacuous.
    """
    _raise_on(_conjugate_gate(p, q))
    # conjugacy forces p <= 2 <= q; the sandwich class is defined for p < q
    # only, so the boundary case p = q = 2 skips the membership gate
    if p < q:
        _require_g_class(ctx, phi, p, q, None)
    beta = 1.0 + 1.0 / ctx.dims - p / (ctx.dims * q)
    quad = ctx.domain.quadrature(ctx.grid_res(scale))
    entries = []
    structural = []
    failed = False
    for e in ctx.pair_entries():
        u, v = e.pair
        du = u.d()
        dsv = codifferential(v)
        lhs_form = du if A is None else A(du)
        resid = float(np.max((lhs_form - dsv).modulus_values(quad.points)))
        if resid > 1e-4:
            raise RejectedPairError(
                f"pair {e.id}: A(du) differs from the codifferential of v by "
                f"{resid:.3e} > 1e-4 on the grid")
        du_mod = du.modulus_values(quad.points)
        dsv_mod = v.star().d().modulus_values(quad.points)
        margin = float(np.min(dsv_mod ** p - du_mod ** q))
        pointwise_ok = bool(np.all(du_mod ** q <= dsv_mod ** p + 1e-12))
        structural.append({"id": e.id, "residual": resid,
                           "pointwise_ok": pointwise_ok,
                           "pointwise_margin": margin})
        if not pointwise_ok:
            failed = True
        bmo_u, _ = ctx.oscillation(("pair-u", e.id), u, phi, "bmo", scale=scale)
        bmo_v, _ = ctx.oscillation(("pair-v", e.id), v.star(), phi, "bmo",
                                   scale=scale)
        for i, b in enumerate(ctx.balls()):
            entries.append(_ratio_entry(
                f"{e.id}[ball{i}]", bmo_u, b.volume() ** beta * bmo_v,
                ball=_ball_dict(b)))
    report = _collect("conjugate_pair",
                      ctx.echo(phi=phi.describe(), p=p, q=q, beta=beta,
                               structural=structural, scale=scale), entries)
    if failed:
        report.status = "fail:pointwise"
    return report


def verify_weighted_lipschitz(ctx: HarnessContext, phi: YoungFunction, p: float,
                              q: float, alpha: float, s: float, weight: Weight,
                              scale: int = 1) -> VerificationReport:
    """Weighted comparison ||u||_{phi locLip_k, w} <= C ||u||_{p, w} under the
    exponent gate alpha*p - p - alpha*q > 0 and the ball-average weight class.
    The weight must be positive at every node it is evaluated at; reading it
    raises otherwise.
    """
    _raise_on(_weighted_gate(phi, p, q, alpha, s))
    beta = alpha * q / (alpha * p - p - alpha * q)
    gamma = alpha * q / p
    a_rep = check_a_class(weight, alpha, beta, gamma, list(ctx.balls()),
                          resolution=ctx.ball_res(scale))
    entries = []
    for e in ctx.form_entries(min_degree=1):
        lhs, arg = ctx.oscillation(e.id, e.form, phi, "lipschitz",
                                   weight=weight, scale=scale)
        rhs = lp_norm(e.form, ctx.domain, p, weight=weight,
                      resolution=ctx.grid_res(scale))
        entry = _ratio_entry(e.id, lhs, rhs, argmax_ball=_ball_dict(arg))
        if not a_rep.finite:
            entry["flags"].append("weight-not-in-class")
            entry["ratio"] = math.nan
        entries.append(entry)
    return _collect("weighted_lipschitz",
                    ctx.echo(phi=phi.describe(), p=p, q=q, alpha=alpha, s=s,
                             beta=beta, gamma=gamma, weight=weight.describe(),
                             weight_class_supremum=a_rep.supremum,
                             scale=scale), entries)


# ---------------------------------------------------------------------------
# suite driver


@dataclass(frozen=True)
class Verifier:
    """One verifier: ``gate(config, dims)`` lists its parameter violations
    and ``domain_gate(config)`` those found on the config's domain;
    ``load_config`` reports both when the verifier is requested, the second
    only when dims and the domain are valid.  ``run(ctx, config, scale)``
    returns its reports.  Runners look ``verify_*`` up in this module at call
    time, so rebinding the module attribute reaches ``run_suite``."""

    name: str
    needs_box: bool  # reads the materialized Tu, a spline on the box grid
    gate: Callable[[object, int], list]
    run: Callable[[HarnessContext, object, int], list]
    domain_gate: Callable[[object], list] = lambda c: []


VERIFIERS = (
    Verifier("lemma_T_bound", True,
             lambda c, n: _exponent_t_gate(c.lemma_exponent_t),
             lambda ctx, c, sc: [verify_lemma_T_bound(ctx, c.lemma_exponent_t, sc)]),
    Verifier("lemma_closed_part_bound", False,
             lambda c, n: _exponent_t_gate(c.lemma_exponent_t),
             lambda ctx, c, sc: [verify_lemma_closedpart_bound(ctx, c.lemma_exponent_t, sc)]),
    Verifier("sobolev_poincare", False,
             lambda c, n: _sobolev_gate(n, c.sobolev_t),
             lambda ctx, c, sc: [verify_sobolev_poincare(ctx, c.sobolev_t, sc)]),
    Verifier("oscillation_lower_bound", False, lambda c, n: [],
             lambda ctx, c, sc: [verify_oscillation_lower_bound(
                 ctx, c.build_young(), tuple(c.osc_a_values), None, sc)]),
    Verifier("thm_lipschitz", True, lambda c, n: [],
             lambda ctx, c, sc: [verify_thm_lipschitz(
                 ctx, c.build_young(), c.g_class["p"], c.g_class["q"],
                 c.g_class.get("c"), sc)]),
    Verifier("thm_bmo", True,
             lambda c, n: _thm_bmo_gate(n, c.g_class["p"], c.g_class["q"]),
             lambda ctx, c, sc: [verify_thm_bmo(
                 ctx, c.build_young(), c.g_class["p"], c.g_class["q"],
                 c.g_class.get("c"), sc)]),
    Verifier("thm_bmo_le_lip", False, lambda c, n: [],
             lambda ctx, c, sc: [verify_thm_bmo_le_lip(ctx, c.build_young(), sc)]),
    Verifier("conjugate_pair", False,
             lambda c, n: _conjugate_gate(c.conjugate["p"], c.conjugate["q"]),
             lambda ctx, c, sc: [verify_conjugate_pair(
                 ctx, c.build_young(), c.conjugate["p"], c.conjugate["q"], None, sc)]),
    Verifier("weighted_lipschitz", False,
             lambda c, n: _weighted_gate(
                 c.build_weighted_young(), c.weighted["p"], c.weighted["q"],
                 c.weighted["alpha"], c.weighted["s"]),
             lambda ctx, c, sc: [verify_weighted_lipschitz(
                 ctx, c.build_weighted_young(), c.weighted["p"], c.weighted["q"],
                 c.weighted["alpha"], c.weighted["s"], w, sc)
                 for w in c.build_weights()],
             lambda c: _weights_gate(c.build_weights(), c.build_domain(),
                                     c.grid_resolution)),
)
VERIFIER_NAMES = tuple(v.name for v in VERIFIERS)


def _attach_stability(base: VerificationReport, doubled: VerificationReport):
    b, d = base.empirical_constant, doubled.empirical_constant
    if b is None or d is None:
        info = {"base": b, "doubled": d, "drift": None, "ok": True}
    else:
        drift = abs(d - b) / max(abs(b), _EPS)
        info = {"base": b, "doubled": d, "drift": drift,
                "ok": drift <= STABILITY_TOLERANCE}
        if not info["ok"] and base.ok:
            base.status = "fail:stability"
    base.stability = info


def run_suite(config) -> list:
    """Run every enabled verifier against the configured corpus.

    ``config`` is a RunConfig; reports come back in the fixed registry order,
    with one weighted report per configured weight.  Deterministic for a
    fixed config: the corpus, ball family, and all quadratures involve no
    unseeded randomness.
    """
    from .corpus import build_corpus  # local import keeps module load light

    domain = config.build_domain()
    corpus = build_corpus(domain, config.dims, admit=True,
                          resolution=config.grid_resolution)
    ctx = HarnessContext(
        domain, corpus, grid_resolution=config.grid_resolution,
        ball_resolution=config.ball_resolution, ball_count=config.ball_count,
        sigma=config.sigma, rho=config.rho,
        k=config.k, radius_fraction=config.radius_fraction)
    enabled = config.enabled_verifiers()
    reports = []
    for verifier in VERIFIERS:
        if verifier.name not in enabled:
            continue
        base = verifier.run(ctx, config, 1)
        if config.stability_check:
            for b, d in zip(base, verifier.run(ctx, config, 2)):
                _attach_stability(b, d)
        reports.extend(base)
    return reports


def suite_passed(reports: list) -> bool:
    return all(r.ok for r in reports)


def reports_to_json(reports: list, config=None) -> str:
    payload = {"reports": [r.to_dict() for r in reports]}
    if config is not None:
        payload["config"] = _jsonable(config.to_dict())
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reports_to_csv(reports: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["inequality", "entry", "lhs", "rhs", "ratio", "flags"])
    for r in reports:
        for e in r.entries:
            writer.writerow([r.inequality, e["id"], repr(e["lhs"]), repr(e["rhs"]),
                             repr(e["ratio"]), "|".join(e["flags"])])
    return buf.getvalue()
