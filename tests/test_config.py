"""Config loading: deep-merged defaults, aggregated validation, builders."""
import json
import tracemalloc
import warnings

import pytest

from orliczforms import ConfigError, HarnessContext, default_domain, load_config
from orliczforms.config import DEFAULT_CONFIG, NODE_BUDGET, RunConfig
from orliczforms.errors import InvalidInputError
from orliczforms.geometry import DOMAIN_FAMILIES, Box
from orliczforms.harness import VERIFIERS
from orliczforms.weights import WEIGHT_FAMILIES
from orliczforms.young import YOUNG_FAMILIES


def test_defaults_load_clean():
    cfg = load_config()
    assert cfg.dims == 2
    assert cfg.grid_resolution == 51
    assert cfg.rho == cfg.sigma  # rho falls back to sigma
    assert cfg.to_dict() == DEFAULT_CONFIG


def test_overrides_replace_top_level_keys():
    cfg = load_config(overrides={"young": {"name": "power", "p": 3.0},
                                 "ball_count": 6})
    assert cfg.raw["young"]["p"] == 3.0
    assert cfg.ball_count == 6
    assert DEFAULT_CONFIG["ball_count"] == 24  # defaults not mutated


def test_partial_nested_override_rejected():
    # nested sections are replaced wholesale, so an incomplete young spec
    # is caught rather than silently merged
    with pytest.raises(ConfigError):
        load_config(overrides={"young": {"p": 3.0}})


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"grid_resolution": 21, "ball_count": 7}))
    cfg = load_config(str(path))
    assert cfg.grid_resolution == 21
    assert cfg.ball_count == 7


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"grid_res": 21})
    assert any("grid_res" in v for v in exc.value.violations)


@pytest.mark.parametrize("key, value", [("t_nodes", 32), ("seed", 0)])
def test_removed_settings_rejected_as_unknown_keys(key, value):
    # the t-rule is the constant homotopy.T_NODES and a run draws no random
    # numbers, so neither key selects anything
    assert key not in DEFAULT_CONFIG
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={key: value})
    assert exc.value.violations == [f"unknown config key {key!r}"]


def test_violations_are_aggregated():
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"dims": 4, "sigma": 0.5,
                               "conjugate": {"p": 2.0, "q": 3.0}})
    assert len(exc.value.violations) == 3


@pytest.mark.parametrize("bad", [{"dims": 4}, {"dims": 2.0},
                                 {"domain": {"kind": "box", "lo": [0.0] * 5,
                                             "hi": [1.0] * 5}}])
def test_invalid_geometry_builds_no_domain(bad):
    # the weights gate samples the domain at grid_resolution; with a bad dims
    # or domain it would sample a 51^dims grid, so it does not run (and a
    # float dims would pass to Box([0.0] * dims) and fail in run_suite)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as exc:
            load_config(overrides=bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [v.split(":")[0].split(" ")[0] for v in exc.value.violations] == [*bad]
    assert peak < 4e6


@pytest.mark.parametrize("key", ["grid_resolution", "ball_resolution"])
def test_resolution_budget_checked_before_any_grid(key):
    # 101^3 = 1,030,301 nodes; the weights gate would sample the domain grid
    assert 101 ** 3 > NODE_BUDGET >= 51 ** 3
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as exc:
            load_config(overrides={"dims": 3, "g_class": {"p": 1.5, "q": 2.5},
                                   key: 101})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [v.split(" ")[0] for v in exc.value.violations] == [key]
    assert peak < 4e6


def test_g_class_takes_only_p_and_q():
    # the witnesses meet the G(p, q, C) sandwich with C = 1, so no C is read
    assert set(DEFAULT_CONFIG["g_class"]) == {"p", "q"}
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"g_class": {"p": 1.5, "q": 3.0, "c": 1.0}})
    assert exc.value.violations == ["g_class: unknown key 'c'"]


@pytest.mark.parametrize("section, violation", [
    ({"conjugate": {"p": 2.0, "q": 2.0, "c": 1.0}}, "conjugate: unknown key 'c'"),
    ({"young": {"name": "power", "p": 2.0, "q": 3.0}}, "young: unknown key 'q'"),
    ({"weighted": {**DEFAULT_CONFIG["weighted"], "beta": 1.0}},
     "weighted: unknown key 'beta'"),
    ({"weights": [{"name": "constant", "value": 1.0, "exponent": 0.5}]},
     "weights[0]: unknown key 'exponent'"),
    ({"domain": {"kind": "box", "lo": [0, 0], "hi": [1, 1], "radius": 1.0}},
     "domain: unknown key 'radius'"),
])
def test_unknown_nested_key_rejected(section, violation):
    # a misspelt or misplaced key inside a section must not be ignored
    with pytest.raises(ConfigError) as exc:
        load_config(overrides=section)
    assert exc.value.violations == [violation]


# where load_config reports a spec of each family table, the key naming the
# family, the table, the overrides placing a spec there, and a valid spec of
# each family
_FAMILY_TABLES = {
    "young": ("name", YOUNG_FAMILIES, lambda spec: {"young": spec},
              {"power": {"p": 2.0}, "power_log": {"p": 2.0},
               "custom": {"expression": "t^2"}}),
    "weights[0]": ("name", WEIGHT_FAMILIES, lambda spec: {"weights": [spec]},
                   {"constant": {"value": 2.0},
                    "power": {"exponent": 0.5, "center": [0.3, 0.7]},
                    "custom": {"expression": "1 + x1^2"}}),
    "domain": ("kind", DOMAIN_FAMILIES, lambda spec: {"domain": spec},
               {"box": {"lo": [0.0, 0.0], "hi": [2.0, 1.0]},
                "ball": {"center": [0.5, 0.5], "radius": 0.5}}),
}


def _spec_violations(where: str, spec) -> list:
    # thm_bmo_le_lip has no parameter gate and runs on a ball domain too
    try:
        load_config(overrides={**_FAMILY_TABLES[where][2](spec),
                               "verifiers": ["thm_bmo_le_lip"]})
    except ConfigError as exc:
        return exc.violations
    return []


def test_every_table_family_has_a_valid_spec_here():
    for _, table, _, specs in _FAMILY_TABLES.values():
        assert {name: set(spec) for name, spec in specs.items()} == {
            name: set(keys) for name, (keys, _) in table.items()}


@pytest.mark.parametrize("where, name", [(where, name) for where, row in _FAMILY_TABLES.items()
                                         for name in row[3]])
def test_family_table_reader(where, name):
    label, table, _, specs = _FAMILY_TABLES[where]
    spec = {label: name, **specs[name]}
    assert _spec_violations(where, spec) == []
    assert _spec_violations(where, {**spec, "bogus": 1}) == [f"{where}: unknown key 'bogus'"]
    for key, kind in table[name][0].items():
        wrong = "2" if kind is float else 2.0 if kind is str else [0.5, "a"]
        bad = _spec_violations(where, {**spec, key: wrong})
        assert len(bad) == 1 and bad[0].startswith(f"{where}: {key} must be "), bad
    for bad_name in (3, None, [name], "nope"):
        bad = _spec_violations(where, {**spec, label: bad_name})
        assert len(bad) == 1 and bad[0].startswith(f"{where}: unknown {label} {bad_name!r}")
    bad = _spec_violations(where, name)  # not an object
    assert len(bad) == 1 and bad[0].startswith(f"{where}: unknown {label} None")


@pytest.mark.parametrize("weight, grid", [
    # odd Gauss grids have a node at 0.5, where |x - center|^-3 is inf
    ({"name": "power", "exponent": -3.0, "center": [0.5, 0.5]}, 11),
    ({"name": "power", "exponent": -3.0, "center": [0.5, 0.5]}, 51),
    # exp(1000 x1) overflows to inf on most of the unit box
    ({"name": "custom", "expression": "exp(x1*1000)"}, 51),
])
def test_infinite_weight_rejected_at_load(weight, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as exc:
            load_config(overrides={"weights": [weight], "grid_resolution": grid})
    [violation] = exc.value.violations
    assert violation.startswith("weighted_lipschitz: weights[0]: weight ")
    assert " is not positive and finite at " in violation
    assert violation.endswith(f" of {grid ** 2} quadrature nodes")


@pytest.mark.parametrize("overrides, key", [
    ({"sigma": 1e308}, "sigma"), ({"rho": 1e308}, "rho"),
    ({"radius_fraction": 1e-300}, "sigma")])
def test_unplaceable_ball_family_rejected_at_load(overrides, key):
    # both pass their scalar checks; run_suite would raise EmptyBallFamilyError
    with pytest.raises(ConfigError) as exc:
        load_config(overrides=overrides)
    [violation] = exc.value.violations
    assert violation.startswith(f"{key}, radius_fraction, ball_count: could not place 24 balls")


def test_default_weight_descriptions():
    # the power weight's center sits at sqrt(2) - 1 and sqrt(5) - 2 of the box
    assert [w.describe() for w in load_config().weights] == [
        "constant(value=1.0)", "constant(value=2.5)",
        "power(center=[0.41421356237309515, 0.2360679774997898],exponent=0.5)"]


# ---------------------------------------------------------------- gates

def test_conjugate_exponents_must_be_dual():
    load_config(overrides={"conjugate": {"p": 2.0, "q": 2.0}})
    load_config(overrides={"conjugate": {"p": 4.0, "q": 4.0 / 3.0}})
    with pytest.raises(ConfigError):
        load_config(overrides={"conjugate": {"p": 2.0, "q": 3.0}})


def test_bmo_gate_depends_on_dimension():
    # q(n-p) < np holds for (p,q) = (1.5,3) in the plane but the same pair
    # with n=3 would need a different q; reject an explicit bad request
    load_config(overrides={"g_class": {"p": 1.5, "q": 3.0}})
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"dims": 3, "g_class": {"p": 1.2, "q": 4.0}})
    assert any("q(n - p) < np" in v or "q*(n" in v or "gate" in v
               for v in exc.value.violations)


def _weighted(p, q, alpha):
    return {"p": p, "q": q, "alpha": alpha, "s": 1.2,
            "young": {"name": "power", "p": 1.2}}


def test_weighted_growth_gate():
    load_config(overrides={"weighted": _weighted(4.0, 1.5, 2.0)})
    # alpha*p - p - alpha*q must be positive
    with pytest.raises(ConfigError):
        load_config(overrides={"weighted": _weighted(2.0, 2.0, 2.0)})
    with pytest.raises(ConfigError):
        load_config(overrides={"weighted": _weighted(4.0, 1.5, 0.5)})


@pytest.mark.parametrize("name, section", [
    # thm_bmo needs 1 < p, not only the G-class bound 1 <= p
    ("thm_bmo", {"g_class": {"p": 1.0, "q": 1.5}}),
    # 1/p + 1/q misses 1 by about 1e-10
    ("conjugate_pair", {"conjugate": {"p": 2.5, "q": 1.6666666667}}),
    # phi = t^2 is not dominated by t^s with s = 1.2
    ("weighted_lipschitz", {"weighted": {
        "p": 4.0, "q": 1.5, "alpha": 2.0, "s": 1.2,
        "young": {"name": "power", "p": 2.0}}}),
    # t^5 lies outside G(1.5, 3): h(t) = t^(5/3) is not concave
    ("thm_lipschitz", {"young": {"name": "power", "p": 5.0}}),
    ("thm_bmo", {"young": {"name": "power", "p": 5.0}}),
    # t^1.2 lies outside G(1.5, 3): g(t) = t^(1.2/1.5) is not convex
    ("conjugate_pair", {"conjugate": {"p": 1.5, "q": 3.0},
                        "young": {"name": "power", "p": 1.2}}),
])
def test_load_rejects_what_the_verifier_would(name, section):
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={**section, "verifiers": [name]})
    assert all(v.startswith(f"{name}: ") for v in exc.value.violations)
    # the verifier raises the same text before it reads the corpus; the
    # section loads when the verifier is not requested
    row = next(v for v in VERIFIERS if v.name == name)
    cfg = load_config(overrides={**section, "verifiers": ["sobolev_poincare"]})
    with pytest.raises(InvalidInputError) as direct:
        row.run(HarnessContext(default_domain(2), []), cfg, 1)
    assert str(direct.value) == "; ".join(v.removeprefix(f"{name}: ")
                                          for v in exc.value.violations)


def test_gates_apply_only_to_requested_verifiers():
    bad = {"weighted": _weighted(2.0, 2.0, 2.0)}
    load_config(overrides={**bad, "verifiers": ["thm_bmo_le_lip"]})
    with pytest.raises(ConfigError):
        load_config(overrides={**bad, "verifiers": ["weighted_lipschitz"]})


def test_numeric_gates():
    for bad in ({"grid_resolution": 3}, {"sigma": 1.0}, {"k": 0.0},
                {"k": 1.0}, {"ball_count": 0}, {"radius_fraction": 0.0},
                {"lemma_exponent_t": 1.0}, {"sobolev_t": 2.0}):
        with pytest.raises(ConfigError):
            load_config(overrides=bad)


def test_verifier_names_checked():
    cfg = load_config(overrides={"verifiers": ["thm_bmo", "lemma_T_bound"]})
    # registry order is preserved regardless of request order
    assert cfg.enabled_verifiers() == ("lemma_T_bound", "thm_bmo")
    with pytest.raises(ConfigError):
        load_config(overrides={"verifiers": ["thm_everything"]})


def test_empty_verifier_list_rejected():
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"verifiers": []})
    assert [v.split(":")[0] for v in exc.value.violations] == ["verifiers"]


@pytest.mark.parametrize("verifier", VERIFIERS, ids=lambda v: v.name)
def test_ball_domain_incompatible_with_operator_verifiers(verifier):
    ball_domain = {"kind": "ball", "center": [0.5, 0.5], "radius": 0.4}
    overrides = {"domain": ball_domain, "verifiers": [verifier.name]}
    if verifier.needs_box:
        with pytest.raises(ConfigError):
            load_config(overrides=overrides)
    else:
        load_config(overrides=overrides)
    with pytest.raises(ConfigError):
        load_config(overrides={"domain": ball_domain})  # default "all"


# ---------------------------------------------------------------- builders

def test_build_domain_variants():
    cfg = load_config()
    box = cfg.domain
    assert isinstance(box, Box)
    assert box.volume() == pytest.approx(1.0)

    cfg2 = load_config(overrides={
        "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [2.0, 1.0]}})
    assert cfg2.domain.volume() == pytest.approx(2.0)


def test_build_young_and_weights():
    cfg = load_config()
    phi = cfg.young
    assert phi(2.0) == pytest.approx(4.0)
    weights = cfg.weights
    assert len(weights) == 3
    psi = cfg.weighted_young
    assert psi(2.0) == pytest.approx(2.0 ** 1.2)


@pytest.mark.parametrize("expression", ["t^^2", "sqrt(t)", "0", "3", "pi",
                                        pytest.param(3, id="int-3")])
def test_custom_young_built_at_load(expression):
    # a parse error, a non-Young profile (a constant one among them) and an
    # expression that is not a string all fail once at load, for either spec
    spec = {"name": "custom", "expression": expression}
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"young": spec})
    assert [v.split(":")[0] for v in exc.value.violations] == ["young"]
    weighted = {**DEFAULT_CONFIG["weighted"], "young": spec}
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"weighted": weighted, "verifiers": ["thm_bmo_le_lip"]})
    assert [v.split(":")[0] for v in exc.value.violations] == ["weighted.young"]
    cfg = load_config(overrides={"young": {"name": "custom", "expression": "t^2"}})
    assert cfg.young(2.0) == 4.0


def test_overflowing_custom_young_fails_only_the_g_class_gates_and_no_warning():
    # exp(t) - 1 overflows at the top of the t-grid: a Young function past that
    # end, but its index 1 + t runs from 1 to about 710, outside G(1.5, 3)
    spec = {"name": "custom", "expression": "exp(t) - 1"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as exc:
            load_config(overrides={"young": spec})
    fails = ("Young function fails the G(p,q) sandwich: "
             "witness g(s) = phi(s^(1/p)) is not convex on the grid; "
             "witness h(s) = phi(s^(1/q)) is not concave on the grid")
    assert exc.value.violations == [f"thm_lipschitz: {fails}", f"thm_bmo: {fails}"]


def test_overflowing_domination_check_is_one_violation_and_no_warning():
    # t^60 overflows at the top of the t-grid and underflows at its bottom
    weighted = {"p": 300.0, "q": 100.0, "alpha": 2.0, "s": 60.0,
                "young": {"name": "power", "p": 1.2}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as exc:
            load_config(overrides={"weighted": weighted,
                                   "verifiers": ["weighted_lipschitz"]})
    assert exc.value.violations == [
        "weighted_lipschitz: Young function is not dominated by t^60.0: "
        "ratio inf at t=1e-06"]


def test_power_dominated_by_its_own_exponent_loads():
    # t^60 against t^60 underflows at the bottom of the t-grid and overflows
    # at its top on both sides
    weighted = {"p": 300.0, "q": 100.0, "alpha": 2.0, "s": 60.0,
                "young": {"name": "power", "p": 60.0}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = load_config(overrides={"weighted": weighted})
    assert cfg.weighted_young(2.0) == 2.0 ** 60


def test_load_rejects_power_log_below_its_index_at_small_t():
    # t^3 log(e + t) has index 3 + O(t) as t -> 0, so it is not in G(3.003, q)
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"young": {"name": "power_log", "p": 3.0},
                               "g_class": {"p": 3.003, "q": 3.5}})
    assert [v.split(":")[0] for v in exc.value.violations] == ["thm_lipschitz", "thm_bmo"]


@pytest.mark.parametrize("expression", ["x1 +* 2", "x3 + 1", pytest.param(3, id="int-3")])
def test_custom_weight_built_at_load(expression):
    # a parse error, a variable outside x1..x2 and an expression that is not
    # a string all fail once at load
    weights = [{"name": "constant", "value": 1.0},
               {"name": "custom", "expression": expression}]
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"weights": weights})
    assert [v.split(":")[0] for v in exc.value.violations] == ["weights[1]"]
    cfg = load_config(overrides={"dims": 3, "g_class": {"p": 1.5, "q": 2.5},
                                 "weights": [{"name": "custom",
                                              "expression": "x3 + 1"}]})
    assert cfg.weights[0].describe() == "custom(expr=x3 + 1)"


def test_non_positive_weight_rejected_at_load():
    weights = [{"name": "custom", "expression": "x1 - 0.5"}]
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"weights": weights})
    assert len(exc.value.violations) == 1
    assert exc.value.violations[0].startswith(
        "weighted_lipschitz: weights[0]: weight custom(expr=x1 - 0.5) is not positive")
    # the weights enter weighted_lipschitz only
    load_config(overrides={"weights": weights, "verifiers": ["thm_bmo_le_lip"]})


@pytest.mark.parametrize("center", [[0.5, "a"], [0.5, None]])
def test_bad_power_weight_center_is_its_only_violation(center):
    # the weighted_lipschitz domain gate builds the weights, so it must not
    # run on a weights section that already failed its check
    weights = [{"name": "power", "exponent": 0.5, "center": center}]
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"weights": weights})
    assert exc.value.violations == ["weights[0]: center must be a length-2 point"]


def test_run_config_attribute_delegation():
    cfg = RunConfig({"alpha": 1.0})
    assert cfg.alpha == 1.0
    with pytest.raises(AttributeError):
        cfg.missing_key
