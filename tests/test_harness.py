"""Verifier semantics on small contexts: ratios, gates, flags, reports."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orliczforms
from orliczforms import (Ball, CorpusEntry, DifferentialForm, HarnessContext,
                         ball_family, build_corpus, check_wrh, constant_weight,
                         custom_weight, default_domain, geometry, homotopy,
                         load_config, named_form, power, power_log, power_weight,
                         reports_to_csv, reports_to_json, run_suite, suite_passed,
                         verify_conjugate_pair, verify_lemma_T_bound,
                         verify_lemma_closedpart_bound,
                         verify_oscillation_lower_bound,
                         verify_sobolev_poincare, verify_thm_bmo,
                         verify_thm_bmo_le_lip, verify_thm_lipschitz,
                         verify_weighted_lipschitz)
from orliczforms.errors import InvalidInputError, RejectedPairError
from orliczforms.expressions import parse, substitute
from orliczforms.forms import ExprField
from orliczforms.geometry import DOMAIN_FAMILIES
from orliczforms.harness import VERIFIER_NAMES
from orliczforms.weights import WEIGHT_FAMILIES
from orliczforms.young import YOUNG_FAMILIES

DOM = default_domain(2)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(dims=2, resolution=21)


def context(corpus, **overrides):
    """A context on the config loaded with ``overrides``."""
    return HarnessContext(load_config(overrides=overrides), corpus)


@pytest.fixture(scope="module")
def ctx(corpus):
    return context(corpus, grid_resolution=21, ball_resolution=9, ball_count=8)


def entry(eid, spec, degree=1, tags=("smooth",)):
    return CorpusEntry(eid, 2, degree, named_form(spec, 2), None,
                       frozenset(tags), {})


# ---------------------------------------------------------------- reports

def test_every_verifier_produces_a_finite_constant(ctx):
    reports = [
        verify_lemma_T_bound(ctx, 2.0),
        verify_lemma_closedpart_bound(ctx, 2.0),
        verify_sobolev_poincare(ctx, 1.5),
        verify_oscillation_lower_bound(ctx, power(2.0)),
        verify_thm_lipschitz(ctx, power(2.0), 1.5, 3.0),
        verify_thm_bmo(ctx, power(2.0), 1.5, 3.0),
        verify_thm_bmo_le_lip(ctx, power(2.0)),
        verify_conjugate_pair(ctx, power(2.0), 2.0, 2.0),
        verify_weighted_lipschitz(ctx, power(1.2), 4.0, 1.5, 2.0, 1.2,
                                  constant_weight(1.0)),
    ]
    assert [r.inequality for r in reports] == list(VERIFIER_NAMES)
    for r in reports:
        assert r.ok, (r.inequality, r.status)
        assert r.empirical_constant is not None
        assert math.isfinite(r.empirical_constant)
        assert r.empirical_constant > 0
        assert r.entries
        assert r.argmax is not None
        assert any("lower bound" in n for n in r.notes)


def test_report_round_trips_to_plain_json(ctx):
    rep = verify_lemma_T_bound(ctx, 2.0)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["inequality"] == "lemma_T_bound"
    assert back["empirical_constant"] == pytest.approx(rep.empirical_constant)


# ---------------------------------------------------------------- scaling

def test_ratios_invariant_under_form_scaling():
    # T, Luxemburg, and Lp are all positively homogeneous, so u -> a*u keeps
    # every per-entry ratio fixed
    pair = [entry("base", "oneform:x2^3,0"),
            entry("scaled", "oneform:17*x2^3,0")]
    ctx2 = context(pair, grid_resolution=15, ball_resolution=7, ball_count=6)
    for rep in (verify_lemma_T_bound(ctx2, 2.0),
                verify_thm_lipschitz(ctx2, power(2.0), 1.5, 3.0),
                verify_thm_bmo(ctx2, power(2.0), 1.5, 3.0)):
        ratios = [e["ratio"] for e in rep.entries]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-6), rep.inequality


def test_sobolev_ratio_invariant_under_doubling():
    pair = [entry("base", "oneform:0,sin(pi*x1)"),
            entry("double", "oneform:0,2*sin(pi*x1)")]
    ctx2 = context(pair, grid_resolution=15, ball_resolution=7, ball_count=6)
    rep = verify_sobolev_poincare(ctx2, 1.5)
    ratios = [e["ratio"] for e in rep.entries]
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-6)


def test_constant_grows_with_nested_ball_family(corpus):
    # families are nested by prefix, so the sup over balls cannot shrink
    small = context(corpus, grid_resolution=15, ball_resolution=7, ball_count=4)
    large = context(corpus, grid_resolution=15, ball_resolution=7, ball_count=10)
    c_small = verify_thm_bmo(small, power(2.0), 1.5, 3.0).empirical_constant
    c_large = verify_thm_bmo(large, power(2.0), 1.5, 3.0).empirical_constant
    assert c_large >= c_small - 1e-12


# ---------------------------------------------------------------- gates

def test_lemma_exponent_gate(ctx):
    with pytest.raises(InvalidInputError):
        verify_lemma_T_bound(ctx, 1.0)


def test_sobolev_exponent_gate(ctx):
    with pytest.raises(InvalidInputError):
        verify_sobolev_poincare(ctx, 2.0)  # t must stay below the dimension
    with pytest.raises(InvalidInputError):
        verify_sobolev_poincare(ctx, 0.9)


def test_bmo_dimension_gate_rejects():
    corpus3 = build_corpus(dims=3, resolution=11)
    ctx3 = context(corpus3, dims=3, g_class={"p": 1.5, "q": 2.5},
                   grid_resolution=11, ball_resolution=7, ball_count=4)
    # q(n-p) < np fails for n=3, p=1.2, q=4
    with pytest.raises(InvalidInputError):
        verify_thm_bmo(ctx3, power(2.0), 1.2, 4.0)


def test_lipschitz_sandwich_gate(ctx):
    # power(4) falls outside G(1.5, 3)
    with pytest.raises(InvalidInputError):
        verify_thm_lipschitz(ctx, power(4.0), 1.5, 3.0)


def test_conjugate_exponent_gate(ctx):
    with pytest.raises(InvalidInputError):
        verify_conjugate_pair(ctx, power(2.0), 2.0, 3.0)


def test_weighted_gates(ctx):
    w = constant_weight(1.0)
    with pytest.raises(InvalidInputError):
        # alpha*p - p - alpha*q <= 0
        verify_weighted_lipschitz(ctx, power(1.2), 2.0, 2.0, 2.0, 1.2, w)
    with pytest.raises(InvalidInputError):
        # s must stay below q
        verify_weighted_lipschitz(ctx, power(1.2), 4.0, 1.5, 2.0, 1.5, w)
    with pytest.raises(InvalidInputError):
        # phi = t^2 is not dominated by t^1.2 on the sampled range
        verify_weighted_lipschitz(ctx, power(2.0), 4.0, 1.5, 2.0, 1.2, w)


def test_weighted_lipschitz_rejects_non_positive_weight(ctx):
    # negative on half the domain grid
    with pytest.raises(InvalidInputError, match="not positive"):
        verify_weighted_lipschitz(ctx, power(1.2), 4.0, 1.5, 2.0, 1.2,
                                  custom_weight("x1 - 0.5", 2))
    # zero only at a ball center, a node of that ball's quadrature that the
    # domain grid misses
    center = ctx.config.balls[0].center
    assert power_weight(center, 0.5)(DOM.quadrature(ctx.grid_res()).points).min() > 0
    with pytest.raises(InvalidInputError, match="not positive at 1 of"):
        verify_weighted_lipschitz(ctx, power(1.2), 4.0, 1.5, 2.0, 1.2,
                                  power_weight(center, 0.5))


def test_conjugate_pair_rejects_non_conjugate_data():
    from orliczforms import DifferentialForm
    from orliczforms.forms import ExprField
    u = named_form("poly:x1^2 - x2^2", 2)
    v = DifferentialForm.from_components(2, 2, {(1, 2): ExprField("x1^2", 2)})
    bad = CorpusEntry("broken-pair", 2, 0, None, (u, v),
                      frozenset({"pair"}), {})
    ctx2 = context([bad], grid_resolution=11, ball_resolution=7, ball_count=4)
    with pytest.raises(RejectedPairError):
        verify_conjugate_pair(ctx2, power(2.0), 2.0, 2.0)


# ---------------------------------------------------------------- flags

def test_zero_forms_are_flagged_not_failed():
    z = entry("null", "zero")
    ctx2 = context([z], grid_resolution=11, ball_resolution=7, ball_count=4)
    rep = verify_lemma_T_bound(ctx2, 2.0)
    assert rep.ok
    assert rep.empirical_constant is None
    assert rep.entries[0]["flags"] == ["zero-denominator"]


def test_oscillation_flags_degenerate_closed_entries(ctx):
    rep = verify_oscillation_lower_bound(ctx, power(2.0))
    flags = {e["id"]: e.get("flags", []) for e in rep.entries}
    top = [k for k in flags if k.startswith("poly-top-form")]
    assert top and all("degenerate-hypothesis" in flags[k] for k in top)
    live = [k for k in flags if k.startswith("poly-1form")]
    assert live and all(not flags[k] for k in live)
    assert rep.ok and math.isfinite(rep.empirical_constant)


def test_closed_entries_collapse_in_bmo_le_lip(ctx):
    # u_B = u exactly for closed and top entries, so both norms are 0.0 and
    # the empirical constant comes from a non-closed entry, not a ratio of
    # rounding noise
    rep = verify_thm_bmo_le_lip(ctx, power(2.0))
    closed = {e.id for e in ctx.form_entries() if e.has("closed") or e.has("top")}
    rows = [r for r in rep.entries if r["id"] in closed]
    assert len(rows) == len(closed) == 3
    for r in rows:
        assert r["bmo"] == r["lipschitz"] == 0.0
        assert r["flags"] == ["zero-denominator"]
    assert rep.argmax is not None and rep.argmax not in closed


def test_wrh_constant_recorded_by_lipschitz_theorem(ctx):
    rep = verify_thm_lipschitz(ctx, power(2.0), 1.5, 3.0)
    recorded = [e for e in rep.entries if "wrh_constant" in e]
    assert recorded
    for e in recorded:
        assert e["wrh_constant"] > 0


def test_wrh_constant_taken_on_the_rho_family(corpus):
    # rho != sigma: the WRH check runs on its own family, whose rho-dilates
    # fit the domain, while the seminorm keeps the sigma family
    ctx = context(corpus, grid_resolution=15, ball_resolution=7, ball_count=6, rho=1.3)
    rho_family = ball_family(DOM, 6, ctx.config.radius_fraction, expansion=1.3)
    assert [b.radius for b in ctx.config.wrh_balls] == [b.radius for b in rho_family]
    rep = verify_thm_lipschitz(ctx, power(2.0), 1.5, 3.0)
    assert len(rep.entries) == len(ctx.form_entries(min_degree=1))
    for e in rep.entries:
        form = next(c.form for c in corpus if c.id == e["id"])
        wrh = check_wrh(form, s=3.0, t=1.5, rho=1.3, balls=rho_family, resolution=7)
        assert e["wrh_constant"] == wrh.constant or (
            math.isnan(e["wrh_constant"]) and math.isnan(wrh.constant))


def test_one_family_when_rho_equals_sigma(ctx):
    assert isinstance(ctx.config.balls, tuple)
    assert ctx.config.wrh_balls is ctx.config.balls
    explicit = load_config(overrides={"rho": 1.1})  # sigma's default
    assert explicit.wrh_balls is explicit.balls


@pytest.mark.parametrize("rho, placed", [(None, 1), (1.3, 2)])
def test_load_and_suite_place_each_ball_family_once(rho, placed, monkeypatch):
    # load_config places the sigma family, and the rho family when rho !=
    # sigma; run_suite reads both from the config
    calls = []
    original = geometry.ball_family

    def counting(*args, **kwargs):
        calls.append(kwargs.get("expansion"))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "orliczforms" and \
                getattr(module, "ball_family", None) is original:
            monkeypatch.setattr(module, "ball_family", counting)
    cfg = load_config(overrides={"grid_resolution": 11, "ball_resolution": 7,
                                 "ball_count": 4, "stability_check": True, "rho": rho})
    assert run_suite(cfg)
    assert len(calls) == placed, calls


# ---------------------------------------------------------------- caching

def test_operator_image_is_cached(ctx, corpus):
    target = next(e for e in corpus if e.id == "poly-1form")
    assert ctx.Tu(target, 1) is ctx.Tu(target, 1)


def test_closed_parts_shared_across_young_functions_and_weights(corpus, monkeypatch):
    # u_B depends on the form, the ball and the scale only: thm_bmo_le_lip
    # and two weighted reports must build each per-ball closed part once; a
    # 0-form's mean is taken from its residual's own values, with none
    kw = dict(grid_resolution=21, ball_resolution=9, ball_count=4)
    ctx = context(corpus, **kw)
    weights = (constant_weight(1.0), constant_weight(2.5))

    def run(c, i):
        if i == 0:
            return verify_thm_bmo_le_lip(c, power(2.0))
        return verify_weighted_lipschitz(c, power(1.2), 4.0, 1.5, 2.0, 1.2,
                                         weights[i - 1])

    calls = []
    original = homotopy.closed_part

    def counting(u, region, *args, **kwargs):
        calls.append(u)
        return original(u, region, *args, **kwargs)

    monkeypatch.setattr(homotopy, "closed_part", counting)
    shared = [run(ctx, i) for i in range(3)]
    assert len(ctx.form_entries(max_degree=0)) > 0
    assert len(calls) == len(ctx.form_entries(min_degree=1)) * len(ctx.config.balls)
    for i, report in enumerate(shared):
        assert report.to_dict() == run(context(corpus, **kw), i).to_dict()


def test_thm_bmo_reuses_the_closed_parts_of_thm_lipschitz(corpus, monkeypatch):
    # the node values |Tu - (Tu)_B| are keyed by the materialized Tu itself,
    # so the BMO theorem after the Lipschitz one builds no closed part
    ctx = context(corpus, grid_resolution=15, ball_resolution=7, ball_count=4)
    verify_thm_lipschitz(ctx, power(2.0), 1.5, 3.0)
    calls = []
    original = homotopy.closed_part

    def counting(u, region, *args, **kwargs):
        calls.append(u)
        return original(u, region, *args, **kwargs)

    monkeypatch.setattr(homotopy, "closed_part", counting)
    verify_thm_bmo(ctx, power(2.0), 1.5, 3.0)
    assert calls == []


@pytest.mark.parametrize("rho, most", [(None, 48), (1.3, 72)])
def test_acceptance_suite_builds_each_ball_rule_once(rho, most, monkeypatch):
    # 12 sigma-balls at ball resolutions 9 and 18, and each one's rho-dilate
    # at both; rho != sigma adds a second family of 12
    builds = []
    build = Ball._build_quadrature

    def counting(self, resolution):
        builds.append((id(self), resolution))
        return build(self, resolution)

    monkeypatch.setattr(Ball, "_build_quadrature", counting)
    cfg = load_config(overrides={"grid_resolution": 27, "ball_resolution": 9,
                                 "ball_count": 12, "stability_check": True,
                                 "rho": rho})
    run_suite(cfg)
    assert len(builds) == len(set(builds)) <= most


def test_load_and_suite_build_each_spec_once(monkeypatch):
    # load_config builds the domain, both Young functions and each weight
    # once; the verifier gates and runs, and run_suite, read those objects
    builds = []
    for where, table in (("domain", DOMAIN_FAMILIES), ("young", YOUNG_FAMILIES),
                         ("weight", WEIGHT_FAMILIES)):
        for name, (keys, make) in table.items():
            def counting(*args, where=where, name=name, keys=keys, make=make):
                builds.append(repr((where, name, args[len(args) - len(keys):])))
                return make(*args)
            monkeypatch.setitem(table, name, (keys, counting))
    seen = []
    verify = orliczforms.harness.verify_weighted_lipschitz

    def recording(ctx, phi, p, q, alpha, s, weight, scale=1):
        seen.append((phi, weight))
        return verify(ctx, phi, p, q, alpha, s, weight, scale)

    monkeypatch.setattr(orliczforms.harness, "verify_weighted_lipschitz", recording)
    cfg = load_config(overrides={
        "grid_resolution": 27, "ball_resolution": 9, "ball_count": 12,
        "stability_check": True,
        "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "young": {"name": "custom", "expression": "t^2 + t^3"},
        "weighted": {"p": 4.0, "q": 1.5, "alpha": 2.0, "s": 1.2,
                     "young": {"name": "custom", "expression": "t^1.2"}},
        "weights": [{"name": "constant", "value": 2.0},
                    {"name": "power", "exponent": 0.5},
                    {"name": "custom", "expression": "1 + x1^2"}]})
    reports = run_suite(cfg)
    assert len(builds) == len(set(builds)) == 6, builds
    assert len(seen) == 2 * len(cfg.weights)  # the base run and the rerun
    assert all(phi is cfg.weighted_young and w is kept
               for (phi, w), kept in zip(seen, cfg.weights * 2))
    assert [r.config["weight"] for r in reports if r.inequality == "weighted_lipschitz"] \
        == [w.describe() for w in cfg.weights]


def test_suite_contracts_on_every_T_evaluation_and_reads_u_omega_once(monkeypatch):
    # no batch cache: every _TuEvaluator.coeffs call runs the contraction,
    # and the three global verifiers share one evaluation of (u, u_Omega)
    # per (entry, scale)
    cfg = load_config(overrides={"grid_resolution": 11, "ball_resolution": 7,
                                 "ball_count": 4, "stability_check": True})
    entries = [e for e in build_corpus(DOM, 2, resolution=11) if e.form is not None]
    evals, contractions, omegas = [], [], []
    coeffs, contract = homotopy._TuEvaluator.coeffs, homotopy.contract_coeffs
    u_omega = orliczforms.harness.closed_part_values

    def counting_coeffs(self, pts):
        evals.append(pts.shape[0])
        return coeffs(self, pts)

    def counting_contract(*args):
        contractions.append(args[2].shape)
        return contract(*args)

    def counting_global(u, region, quad, values, **kwargs):
        omegas.append((id(u), quad.points.shape[0]))
        return u_omega(u, region, quad, values, **kwargs)

    monkeypatch.setattr(homotopy._TuEvaluator, "coeffs", counting_coeffs)
    monkeypatch.setattr(homotopy, "contract_coeffs", counting_contract)
    monkeypatch.setattr(orliczforms.harness, "closed_part_values", counting_global)
    run_suite(cfg)
    assert evals and len(contractions) == len(evals)
    assert len(set(omegas)) == len(omegas) == 2 * len(entries)


def test_entry_selection_by_degree(ctx):
    assert all(e.degree >= 1 for e in ctx.form_entries(min_degree=1))
    assert all(e.degree <= 1 for e in ctx.form_entries(max_degree=1))
    assert len(ctx.pair_entries()) == 1


# ---------------------------------------------------------------- dilation

# Pull a form back by x -> x/2 from the unit square to the side-2 square (an
# l-form's coefficients gain 2^-l): ball family, box lattice and bump all move
# with the domain, so each per-entry ratio scales by 2^e with the exponent e
# that follows from the norms' definitions.  A non-power phi breaks this (the
# Luxemburg norm is not homogeneous in the measure), so phi = t^2.
DILATION_EXPONENTS = {"lemma_T_bound": -2.0, "lemma_closed_part_bound": -2.0,
                      "sobolev_poincare": 0.0, "thm_lipschitz": -1.5,
                      "thm_bmo": -1.0, "thm_bmo_le_lip": 0.0}
DILATION_FORMS = ("poly-1form", "trig-1form", "mixed-1form", "poly-0form")


def _dilated(e, factor):
    pullback = {f"x{i}": parse(f"(x{i}/{factor!r})") for i in (1, 2)}
    comps = tuple(ExprField(substitute(f.node, pullback), 2) for f in e.form.components)
    form = factor ** -e.degree * DifferentialForm(2, e.degree, comps)
    return CorpusEntry(e.id, 2, e.degree, form, None, e.tags, {})


def _dilation_ratios(domain, entries):
    ctx = context(entries, domain=domain, grid_resolution=27, ball_resolution=9,
                  ball_count=12)
    phi = power(2.0)
    reports = [verify_lemma_T_bound(ctx, 2.0), verify_lemma_closedpart_bound(ctx, 2.0),
               verify_sobolev_poincare(ctx, 1.5), verify_thm_lipschitz(ctx, phi, 1.5, 3.0),
               verify_thm_bmo(ctx, phi, 1.5, 3.0), verify_thm_bmo_le_lip(ctx, phi)]
    return {r.inequality: {e["id"]: e["ratio"] for e in r.entries if not e["flags"]}
            for r in reports}


def test_ratios_scale_by_the_dilation_exponents():
    unit = [e for e in build_corpus(dims=2, admit=False) if e.id in DILATION_FORMS]
    assert len(unit) == len(DILATION_FORMS)
    small = _dilation_ratios(None, unit)
    large = _dilation_ratios({"kind": "box", "lo": [0.0, 0.0], "hi": [2.0, 2.0]},
                             [_dilated(e, 2.0) for e in unit])
    assert sorted(small) == sorted(DILATION_EXPONENTS)
    for name, exponent in DILATION_EXPONENTS.items():
        assert small[name] and sorted(small[name]) == sorted(large[name]), name
        for eid, ratio in small[name].items():
            assert math.log2(large[name][eid] / ratio) == pytest.approx(
                exponent, abs=1e-4), (name, eid)


# ---------------------------------------------------------------- suite

@pytest.fixture(scope="module")
def light_reports():
    cfg = load_config(overrides={"grid_resolution": 21, "ball_resolution": 9,
                                 "ball_count": 8, "stability_check": False})
    return run_suite(cfg)


def test_suite_runs_all_registered_verifiers(light_reports):
    names = [r.inequality for r in light_reports]
    # one report per verifier, plus one weighted report per configured weight
    assert names[:8] == list(VERIFIER_NAMES[:8])
    assert names[8:] == ["weighted_lipschitz"] * 3
    assert suite_passed(light_reports)


def test_suite_reports_echo_their_parameters(light_reports):
    by_name = {}
    for r in light_reports:
        by_name.setdefault(r.inequality, r)
    assert by_name["lemma_T_bound"].config["t"] == 2.0
    assert by_name["thm_lipschitz"].config["p"] == 1.5
    weights = [r.config["weight"] for r in light_reports
               if r.inequality == "weighted_lipschitz"]
    assert len(set(map(str, weights))) == 3


def test_suite_reports_echo_the_run_settings():
    settings = {"grid_resolution": 15, "ball_resolution": 7, "ball_count": 6,
                "sigma": 1.2, "rho": 1.3, "k": 0.4, "radius_fraction": 0.3}
    reports = run_suite(load_config(overrides={**settings, "stability_check": False}))
    assert len(reports) == len(VERIFIER_NAMES) + 2  # three weights
    expected = {**settings, "dims": 2, "t_nodes": homotopy.T_NODES}
    for r in reports:
        assert {key: r.config[key] for key in expected} == expected, r.inequality


def test_suite_reports_echo_the_fixed_t_rule(light_reports):
    assert homotopy.T_NODES == 32
    assert {r.config["t_nodes"] for r in light_reports} == {homotopy.T_NODES}


def test_suite_respects_verifier_subset():
    cfg = load_config(overrides={"grid_resolution": 15, "ball_resolution": 7,
                                 "ball_count": 4, "stability_check": False,
                                 "verifiers": ["lemma_closed_part_bound"]})
    reports = run_suite(cfg)
    assert [r.inequality for r in reports] == ["lemma_closed_part_bound"]


def test_suite_on_ball_domain_restricted_to_profile_checks():
    cfg = load_config(overrides={
        "domain": {"kind": "ball", "center": [0.5, 0.5], "radius": 0.45},
        "verifiers": ["thm_bmo_le_lip"], "grid_resolution": 11,
        "ball_resolution": 7, "ball_count": 6, "stability_check": False})
    reports = run_suite(cfg)
    assert len(reports) == 1 and reports[0].ok


def test_suite_on_ball_domain_runs_global_closed_part_verifiers():
    # u_Omega = u - T(du) needs no spline Tu, so these run on a ball domain
    names = ["lemma_closed_part_bound", "sobolev_poincare", "oscillation_lower_bound"]
    cfg = load_config(overrides={
        "domain": {"kind": "ball", "center": [0.5, 0.5], "radius": 0.45},
        "verifiers": names, "grid_resolution": 11, "ball_resolution": 7,
        "ball_count": 6, "stability_check": False})
    reports = run_suite(cfg)
    assert [r.inequality for r in reports] == names
    for r in reports:
        assert r.ok and math.isfinite(r.empirical_constant)


def test_suite_dispatches_through_module_attributes(monkeypatch):
    # tracers wrap verifiers by rebinding harness.verify_*; run_suite must
    # reach the rebound name at both scales
    from orliczforms import harness
    seen = []
    original = harness.verify_thm_bmo_le_lip

    def recording(ctx, phi, scale=1):
        seen.append(scale)
        return original(ctx, phi, scale)

    monkeypatch.setattr(harness, "verify_thm_bmo_le_lip", recording)
    cfg = load_config(overrides={"grid_resolution": 11, "ball_resolution": 7,
                                 "ball_count": 4, "stability_check": True,
                                 "verifiers": ["thm_bmo_le_lip"]})
    run_suite(cfg)
    assert seen == [1, 2]


def test_stability_block_present_when_enabled():
    cfg = load_config(overrides={"grid_resolution": 11, "ball_resolution": 7,
                                 "ball_count": 4, "stability_check": True,
                                 "verifiers": ["thm_bmo_le_lip"]})
    rep = run_suite(cfg)[0]
    assert rep.stability is not None
    assert set(rep.stability) >= {"base", "doubled", "drift"}
    assert rep.stability["drift"] <= 0.10


# ---------------------------------------------------------------- output

def test_json_rendering_is_deterministic(light_reports):
    a = reports_to_json(light_reports)
    b = reports_to_json(light_reports)
    assert a == b
    assert a.endswith("\n")
    payload = json.loads(a)
    assert len(payload["reports"]) == len(light_reports)


_ACCEPTANCE_REPORT = """
from orliczforms import load_config, reports_to_json, run_suite
cfg = load_config(overrides={"grid_resolution": 27, "ball_resolution": 9,
                             "ball_count": 12, "stability_check": True})
print(reports_to_json(run_suite(cfg), cfg), end="")
"""


def test_report_bytes_independent_of_blas_threads():
    # criterion 9 across BLAS thread counts: the acceptance-config report in
    # two processes, one with 1 BLAS/OpenMP thread and one with 2
    src = str(Path(orliczforms.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = [subprocess.Popen(
        [sys.executable, "-c", _ACCEPTANCE_REPORT],
        env=dict(os.environ, OMP_NUM_THREADS=threads,
                 OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE) for threads in "12"]
    try:
        results = [proc.communicate(timeout=300) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    for proc, (_, err) in zip(procs, results):
        assert proc.returncode == 0, err.decode()
    outs = [out for out, _ in results]
    assert len(outs[0]) > 1000
    assert outs[0] == outs[1]


def test_csv_rendering_shape(light_reports):
    text = reports_to_csv(light_reports)
    lines = text.strip().splitlines()
    assert lines[0] == "inequality,entry,lhs,rhs,ratio,flags"
    assert len(lines) == 1 + sum(len(r.entries) for r in light_reports)
