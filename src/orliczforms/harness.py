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
scale), keyed by the form itself, and shared by every Young function,
weight and norm kind; each seminorm then runs one Luxemburg solve per ball
on them.  The context runs on a loaded RunConfig, which holds every setting
and the two ball families its load placed: the sigma family of the
seminorms and the rho family of the weak reverse-Hoelder check (one family
when rho = sigma); each ball builds its rho-dilate once.
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
from .geometry import Ball, Box, Domain
from .homotopy import FD_SCALE, T_NODES, apply_T, closed_part_values, materialize
from .weights import Weight, check_a_class, check_phi_dominated
from .young import (OscillationNormSpec, YoungFunction, _node_measure,
                    check_g_class, check_wrh, luxemburg_norm, lp_norm,
                    oscillation_norm, oscillation_profile, oscillation_residuals)

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


# the settings every report's ``config`` echoes, with ``t_nodes``
_ECHOED = ("dims", "grid_resolution", "ball_resolution", "ball_count", "sigma",
           "rho", "k", "radius_fraction")


class HarnessContext:
    """What the verifier battery computes on one loaded RunConfig and corpus.

    Every setting, the domain and both ball families are read from
    ``config``: ``config.balls`` (the balls B with sigma*B inside the domain)
    for the seminorms and ``config.wrh_balls`` (rho*B inside) for the weak
    reverse-Hoelder check.  The context keeps only what it computes from
    them: the materialized Tu, the global moduli and the per-ball residuals.
    ``scale`` arguments on the accessors multiply the norm-quadrature and
    materialization resolutions (the stability rerun passes 2); the ball
    families and the y-quadrature behind the domain's T never change with
    scale, while per-ball closed parts take theirs from ``ball_res(scale)``.
    """

    def __init__(self, config, corpus: list):
        self.config = config
        self.corpus = list(corpus)
        self._tu: dict = {}
        self._global: dict = {}
        self._residuals: dict = {}

    # -- geometry ---------------------------------------------------------
    def grid_res(self, scale: int = 1) -> int:
        return self.config.grid_resolution * scale

    def ball_res(self, scale: int = 1) -> int:
        return self.config.ball_resolution * scale

    def echo(self, **extra) -> dict:
        base = {key: getattr(self.config, key) for key in _ECHOED}
        base.update(t_nodes=T_NODES, **extra)
        return base

    # -- cached fields ----------------------------------------------------
    def form_entries(self, min_degree: int = 0, max_degree: int | None = None) -> list:
        hi = self.config.dims if max_degree is None else max_degree
        return [e for e in self.corpus
                if e.form is not None and min_degree <= e.degree <= hi]

    def pair_entries(self) -> list:
        return [e for e in self.corpus if e.pair is not None]

    def Tu(self, entry: CorpusEntry, scale: int = 1) -> DifferentialForm:
        """Materialized homotopy image of the entry on the domain grid."""
        key = (entry.id, scale)
        if key not in self._tu:
            domain = self.config.domain
            if not isinstance(domain, Box):
                raise InvalidInputError(
                    "homotopy-image verifiers require a box domain")
            tu = apply_T(entry.form, domain, resolution=self.grid_res())
            self._tu[key] = materialize(tu, domain, resolution=self.grid_res(scale))
        return self._tu[key]

    def global_moduli(self, entry: CorpusEntry, scale: int = 1) -> tuple:
        """|u|, |u_Omega| and |u - u_Omega| at the nodes of
        ``domain.quadrature(grid_res(scale))``, from one evaluation of u:
        u_Omega is the mean over those nodes for 0-forms, else u - T(du)
        with the T behind Tu (at ``grid_resolution`` on both scales)."""
        key = (entry.id, scale)
        if key not in self._global:
            quad = self.config.domain.quadrature(self.grid_res(scale))
            u = entry.form.evaluate(quad.points)
            u_omega = closed_part_values(entry.form, self.config.domain, quad, u,
                                         resolution=self.grid_res())
            self._global[key] = tuple(map(pointwise_modulus, (u, u_omega, u - u_omega)))
        return self._global[key]

    def oscillation(self, form: DifferentialForm, phi: YoungFunction, kind: str,
                    weight: Weight | None = None, scale: int = 1):
        """(value, argmax ball) of the BMO or Lipschitz seminorm over
        ``config.balls``.

        The node values |form - form_B| on every ball, closed parts
        included, are computed once per (form, scale) and shared by every
        Young function, weight and kind; equal forms have equal values.  The
        profile ||form - form_B||_{phi, B} is solved from them on each call,
        to the same bits every time, so comparisons between the kinds are
        exact to rounding.
        """
        cfg = self.config
        key = (form, scale)
        if key not in self._residuals:
            self._residuals[key] = oscillation_residuals(
                form, cfg.balls, ball_resolution=self.ball_res(scale))
        profile = oscillation_profile(form, cfg.balls, phi, weight,
                                      ball_resolution=self.ball_res(scale),
                                      residuals=self._residuals[key])
        res = oscillation_norm(form, cfg.domain, phi,
                               OscillationNormSpec(kind, k=cfg.k, sigma=cfg.sigma),
                               balls=cfg.balls, profile=profile)
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
# reports it).  The G(p, q) gates call ``check_g_class`` each time; it is
# one evaluation of phi on ``LOG_GRID`` and a few vector operations.


def _raise_on(violations: list) -> None:
    if violations:
        raise InvalidInputError("; ".join(violations))


def _exponent_t_gate(t: float) -> list:
    return [] if t > 1 else [f"exponent t must exceed 1, got {t}"]


def _sobolev_gate(n: int, t: float) -> list:
    return [] if 1 < t < n else [f"need 1 < t < dims={n}, got t={t}"]


def _g_class_gate(phi: YoungFunction, p: float, q: float) -> list:
    """phi in G(p, q); callers first make sure that 1 <= p < q, since
    ``check_g_class`` raises otherwise."""
    rep = check_g_class(phi, p, q)
    if rep.member:
        return []
    return ["Young function fails the G(p,q) sandwich: " + "; ".join(rep.violations)]


def _thm_lipschitz_gate(phi: YoungFunction, p: float, q: float) -> list:
    if not 1 <= p < q:
        return [f"need 1 <= p < q, got p={p}, q={q}"]
    return _g_class_gate(phi, p, q)


def _thm_bmo_gate(phi: YoungFunction, n: int, p: float, q: float) -> list:
    out = [] if 1 < p < q else [f"need 1 < p < q, got p={p}, q={q}"]
    if not q * (n - p) < n * p:
        out.append(f"exponent gate q(n-p) < np fails: {q}*({n}-{p}) = "
                   f"{q * (n - p)} >= {n * p}")
    if 1 < p < q:
        out += _g_class_gate(phi, p, q)
    return out


def _conjugate_gate(phi: YoungFunction, p: float, q: float) -> list:
    ok = p > 0 and q > 0 and abs(1.0 / p + 1.0 / q - 1.0) <= 1e-12
    if not ok:
        return [f"conjugate exponents need 1/p + 1/q = 1, got p={p}, q={q}"]
    # conjugate p < q means 1 < p < 2 < q; G(p, q) needs p < q, so
    # p = q = 2 and p > q skip membership
    return _g_class_gate(phi, p, q) if p < q else []


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
    dom = ctx.config.domain
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
    dom = ctx.config.domain
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
    n = ctx.config.dims
    _raise_on(_sobolev_gate(n, t))
    s = n * t / (n - t)
    dom = ctx.config.domain
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
    dom = ctx.config.domain
    quad = dom.quadrature(ctx.grid_res(scale))
    w = _node_measure(quad, weight)
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


def verify_thm_lipschitz(ctx: HarnessContext, phi: YoungFunction, p: float,
                         q: float, scale: int = 1) -> VerificationReport:
    """||Tu||_{phi locLip_k} <= C ||u||_phi for phi in G(p, q) and entries
    passing the weak reverse Hoelder check with s=q, t=p on rho-dilated balls."""
    _raise_on(_thm_lipschitz_gate(phi, p, q))
    entries = []
    for e in ctx.form_entries(min_degree=1):
        wrh = check_wrh(e.form, s=q, t=p, rho=ctx.config.rho,
                        balls=ctx.config.wrh_balls, resolution=ctx.ball_res(scale))
        lhs, arg = ctx.oscillation(ctx.Tu(e, scale), phi, "lipschitz", scale=scale)
        rhs = luxemburg_norm(e.form, ctx.config.domain, phi,
                             resolution=ctx.grid_res(scale))
        entry = _ratio_entry(e.id, lhs, rhs, argmax_ball=_ball_dict(arg),
                             wrh_constant=wrh.constant)
        if not wrh.ok:
            entry["flags"].append("wrh-degenerate")
            entry["ratio"] = math.nan
        entries.append(entry)
    return _collect("thm_lipschitz",
                    ctx.echo(phi=phi.describe(), p=p, q=q, scale=scale), entries)


def verify_thm_bmo(ctx: HarnessContext, phi: YoungFunction, p: float, q: float,
                   scale: int = 1) -> VerificationReport:
    """||Tu||_{phi*} <= C ||u||_phi for phi in G(p, q) under the exponent gate
    q(n-p) < np.

    No reverse-Hoelder hypothesis here; the gate on (p, q) replaces it.
    """
    n = ctx.config.dims
    _raise_on(_thm_bmo_gate(phi, n, p, q))
    dom = ctx.config.domain
    entries = []
    for e in ctx.form_entries(min_degree=1):
        lhs, arg = ctx.oscillation(ctx.Tu(e, scale), phi, "bmo", scale=scale)
        rhs = luxemburg_norm(e.form, dom, phi, resolution=ctx.grid_res(scale))
        entries.append(_ratio_entry(e.id, lhs, rhs, argmax_ball=_ball_dict(arg)))
    return _collect("thm_bmo", ctx.echo(phi=phi.describe(), p=p, q=q,
                                        gate=f"{q}*({n}-{p}) < {n}*{p}",
                                        scale=scale), entries)


def verify_thm_bmo_le_lip(ctx: HarnessContext, phi: YoungFunction,
                          scale: int = 1) -> VerificationReport:
    """||u||_{phi*} <= |domain|^{k/n} ||u||_{phi locLip_k} with the explicit
    proof constant; per-entry breaches fail the report."""
    n = ctx.config.dims
    constant = ctx.config.domain.volume() ** (ctx.config.k / n)
    entries = []
    failed = False
    for e in ctx.form_entries():
        bmo, _ = ctx.oscillation(e.form, phi, "bmo", scale=scale)
        lip, _ = ctx.oscillation(e.form, phi, "lipschitz", scale=scale)
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

    phi must lie in G(p, q) when p < q.  Structural gate: A(du) must equal the
    codifferential of v on the grid (residual <= 1e-4, else the pair is
    rejected); the pointwise bound
    |du|^q <= |d star v|^p must hold at every quadrature node.  The |B|^beta
    factor is reported per ball in the family, max over balls.

    The right-hand oscillation is computed on the Hodge dual of v: the bound's
    derivation pivots through star(v) - star(theta) with theta a closed form,
    and a constant-coefficient top form is closed, so the dual's mean is an
    admissible theta.  Taken literally on v itself the right side vanishes
    identically whenever v has top degree (every top form is its own closed
    part), which would make the comparison vacuous.
    """
    _raise_on(_conjugate_gate(phi, p, q))
    n = ctx.config.dims
    beta = 1.0 + 1.0 / n - p / (n * q)
    quad = ctx.config.domain.quadrature(ctx.grid_res(scale))
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
        bmo_u, _ = ctx.oscillation(u, phi, "bmo", scale=scale)
        bmo_v, _ = ctx.oscillation(v.star(), phi, "bmo", scale=scale)
        for i, b in enumerate(ctx.config.balls):
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
    a_rep = check_a_class(weight, alpha, beta, gamma, ctx.config.balls,
                          resolution=ctx.ball_res(scale))
    entries = []
    for e in ctx.form_entries(min_degree=1):
        lhs, arg = ctx.oscillation(e.form, phi, "lipschitz", weight=weight,
                                   scale=scale)
        rhs = lp_norm(e.form, ctx.config.domain, p, weight=weight,
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
    """One verifier: ``gate(config, dims)`` lists its parameter violations,
    G(p, q) membership of the config's Young function included, and
    ``domain_gate(config)`` those found on the config's domain;
    ``load_config`` reports both when the verifier is requested, the second
    only when dims, the domain, the resolutions and the weights are valid.
    ``run(ctx, scale)`` returns its reports on ``ctx.config``.  All three read
    the objects the config built at load.  Runners look ``verify_*`` up in
    this module at call time, so rebinding the module attribute reaches
    ``run_suite``."""

    name: str
    needs_box: bool  # reads the materialized Tu, a spline on the box grid
    gate: Callable[[object, int], list]
    run: Callable[[HarnessContext, int], list]
    domain_gate: Callable[[object], list] = lambda c: []


VERIFIERS = (
    Verifier("lemma_T_bound", True,
             lambda c, n: _exponent_t_gate(c.lemma_exponent_t),
             lambda ctx, sc: [verify_lemma_T_bound(ctx, ctx.config.lemma_exponent_t, sc)]),
    Verifier("lemma_closed_part_bound", False,
             lambda c, n: _exponent_t_gate(c.lemma_exponent_t),
             lambda ctx, sc: [verify_lemma_closedpart_bound(
                 ctx, ctx.config.lemma_exponent_t, sc)]),
    Verifier("sobolev_poincare", False,
             lambda c, n: _sobolev_gate(n, c.sobolev_t),
             lambda ctx, sc: [verify_sobolev_poincare(ctx, ctx.config.sobolev_t, sc)]),
    Verifier("oscillation_lower_bound", False, lambda c, n: [],
             lambda ctx, sc: [verify_oscillation_lower_bound(
                 ctx, ctx.config.young, tuple(ctx.config.osc_a_values), None, sc)]),
    Verifier("thm_lipschitz", True,
             lambda c, n: _thm_lipschitz_gate(c.young, c.g_class["p"], c.g_class["q"]),
             lambda ctx, sc: [verify_thm_lipschitz(
                 ctx, ctx.config.young, ctx.config.g_class["p"], ctx.config.g_class["q"],
                 sc)]),
    Verifier("thm_bmo", True,
             lambda c, n: _thm_bmo_gate(c.young, n, c.g_class["p"], c.g_class["q"]),
             lambda ctx, sc: [verify_thm_bmo(
                 ctx, ctx.config.young, ctx.config.g_class["p"], ctx.config.g_class["q"],
                 sc)]),
    Verifier("thm_bmo_le_lip", False, lambda c, n: [],
             lambda ctx, sc: [verify_thm_bmo_le_lip(ctx, ctx.config.young, sc)]),
    Verifier("conjugate_pair", False,
             lambda c, n: _conjugate_gate(c.young, c.conjugate["p"], c.conjugate["q"]),
             lambda ctx, sc: [verify_conjugate_pair(
                 ctx, ctx.config.young, ctx.config.conjugate["p"],
                 ctx.config.conjugate["q"], None, sc)]),
    Verifier("weighted_lipschitz", False,
             lambda c, n: _weighted_gate(
                 c.weighted_young, c.weighted["p"], c.weighted["q"],
                 c.weighted["alpha"], c.weighted["s"]),
             lambda ctx, sc: [verify_weighted_lipschitz(
                 ctx, ctx.config.weighted_young, ctx.config.weighted["p"],
                 ctx.config.weighted["q"], ctx.config.weighted["alpha"],
                 ctx.config.weighted["s"], w, sc) for w in ctx.config.weights],
             lambda c: _weights_gate(c.weights, c.domain, c.grid_resolution)),
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

    ``config`` is a loaded RunConfig; reports come back in the fixed
    registry order, with one weighted report per configured weight.
    Deterministic for a fixed config: the corpus, ball families, and all
    quadratures involve no unseeded randomness.  It runs on the objects the
    config built at load, its domain, Young functions, weights and ball
    families, so a rerun of one config reuses their quadratures.
    """
    from .corpus import build_corpus  # local import keeps module load light

    corpus = build_corpus(config.domain, config.dims, admit=True,
                          resolution=config.grid_resolution)
    ctx = HarnessContext(config, corpus)
    enabled = config.enabled_verifiers()
    reports = []
    for verifier in VERIFIERS:
        if verifier.name not in enabled:
            continue
        base = verifier.run(ctx, 1)
        if config.stability_check:
            for b, d in zip(base, verifier.run(ctx, 2)):
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
