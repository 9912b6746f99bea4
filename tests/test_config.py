"""Config loading: deep-merged defaults, aggregated validation, builders."""
import json
import tracemalloc

import pytest

from orliczforms import ConfigError, load_config
from orliczforms.config import DEFAULT_CONFIG, RunConfig
from orliczforms.geometry import Box
from orliczforms.harness import VERIFIERS


def test_defaults_load_clean():
    cfg = load_config()
    assert cfg.dims == 2
    assert cfg.grid_resolution == 51
    assert cfg.rho == cfg.sigma  # rho falls back to sigma
    assert cfg.to_dict() == DEFAULT_CONFIG


def test_overrides_replace_top_level_keys():
    cfg = load_config(overrides={"young": {"name": "power", "p": 3.0},
                                 "ball_count": 6})
    assert cfg.young["p"] == 3.0
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
    ("thm_bmo", {"g_class": {"p": 1.0, "q": 1.5, "c": 1.0}}),
    # 1/p + 1/q misses 1 by about 1e-10
    ("conjugate_pair", {"conjugate": {"p": 2.5, "q": 1.6666666667}}),
    # phi = t^2 is not dominated by t^s with s = 1.2
    ("weighted_lipschitz", {"weighted": {
        "p": 4.0, "q": 1.5, "alpha": 2.0, "s": 1.2,
        "young": {"name": "power", "p": 2.0}}}),
])
def test_load_rejects_what_the_verifier_would(name, section):
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={**section, "verifiers": [name]})
    assert all(v.startswith(f"{name}: ") for v in exc.value.violations)


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
    box = cfg.build_domain()
    assert isinstance(box, Box)
    assert box.volume() == pytest.approx(1.0)

    cfg2 = load_config(overrides={
        "domain": {"kind": "box", "lo": [0.0, 0.0], "hi": [2.0, 1.0]}})
    assert cfg2.build_domain().volume() == pytest.approx(2.0)


def test_build_young_and_weights():
    cfg = load_config()
    phi = cfg.build_young()
    assert phi(2.0) == pytest.approx(4.0)
    weights = cfg.build_weights()
    assert len(weights) == 3
    psi = cfg.build_weighted_young()
    assert psi(2.0) == pytest.approx(2.0 ** 1.2)


@pytest.mark.parametrize("expression", ["t^^2", "sqrt(t)"])
def test_custom_young_built_at_load(expression):
    # a parse error and a non-Young profile both fail at load, for either spec
    spec = {"name": "custom", "expression": expression}
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"young": spec})
    assert [v.split(":")[0] for v in exc.value.violations] == ["young"]
    weighted = {**DEFAULT_CONFIG["weighted"], "young": spec}
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"weighted": weighted, "verifiers": ["thm_bmo_le_lip"]})
    assert [v.split(":")[0] for v in exc.value.violations] == ["weighted.young"]
    cfg = load_config(overrides={"young": {"name": "custom", "expression": "t^2"}})
    assert cfg.build_young()(2.0) == 4.0


@pytest.mark.parametrize("expression", ["x1 +* 2", "x3 + 1"])
def test_custom_weight_built_at_load(expression):
    # a parse error and a variable outside x1..x2 both fail at load
    weights = [{"name": "constant", "value": 1.0},
               {"name": "custom", "expression": expression}]
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"weights": weights})
    assert [v.split(":")[0] for v in exc.value.violations] == ["weights[1]"]
    cfg = load_config(overrides={"dims": 3, "g_class": {"p": 1.5, "q": 2.5},
                                 "weights": [{"name": "custom",
                                              "expression": "x3 + 1"}]})
    assert cfg.build_weights()[0].describe() == "custom(expr=x3 + 1)"


def test_non_positive_weight_rejected_at_load():
    weights = [{"name": "custom", "expression": "x1 - 0.5"}]
    with pytest.raises(ConfigError) as exc:
        load_config(overrides={"weights": weights})
    assert len(exc.value.violations) == 1
    assert exc.value.violations[0].startswith(
        "weighted_lipschitz: weights[0]: weight custom(expr=x1 - 0.5) is not positive")
    # the weights enter weighted_lipschitz only
    load_config(overrides={"weights": weights, "verifiers": ["thm_bmo_le_lip"]})


def test_run_config_attribute_delegation():
    cfg = RunConfig({"alpha": 1.0})
    assert cfg.alpha == 1.0
    with pytest.raises(AttributeError):
        cfg.missing_key
