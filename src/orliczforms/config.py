"""Run configuration: a single JSON document that pins every knob of a
verification run, validated up front with a complete list of violations.

Schema (all keys optional, defaults shown):

{
  "dims": 2,
  "domain": null,                    // null -> unit box; else a domain spec
  "grid_resolution": 51,
  "ball_resolution": 15,
  "ball_count": 24,
  "sigma": 1.1,
  "rho": null,                       // null -> same as sigma
  "k": 0.5,
  "radius_fraction": 0.25,
  "young": {"name": "power", "p": 2.0},           // a Young function spec
  "g_class": {"p": 1.5, "q": 3.0},  // young must lie in G(p, q)
  "conjugate": {"p": 2.0, "q": 2.0},
  "weighted": {"p": 4.0, "q": 1.5, "alpha": 2.0, "s": 1.2,
               "young": {"name": "power", "p": 1.2}},
  "weights": [{"name": "constant", "value": 1.0},  // nonempty, weight specs
              {"name": "constant", "value": 2.5},
              {"name": "power", "exponent": 0.5}],
  "lemma_exponent_t": 2.0,
  "sobolev_t": 1.5,
  "osc_a_values": [0.5, 1.0, 2.0],
  "verifiers": ["all"],
  "stability_check": true
}

A domain spec names its "kind" in ``geometry.DOMAIN_FAMILIES``, a Young
function spec and a weight spec their "name" in ``young.YOUNG_FAMILIES`` and
``weights.WEIGHT_FAMILIES``.  One reader checks the name, the keys and each
key's kind, then builds the spec, so each range rule is its constructor's.
The reader builds each spec once, at load, and the RunConfig keeps what it
built: ``domain``, ``young``, ``weighted_young`` and ``weights``.

``grid_resolution ** dims`` and ``ball_resolution ** dims`` may not exceed
``NODE_BUDGET`` (10^6 nodes), so no gate samples a grid larger than that.
Both ball families, at sigma and at rho, must be placeable in the domain;
the RunConfig keeps the families load placed as ``balls`` (sigma) and
``wrh_balls`` (rho), tuples that are the same object when rho is null or
equal to sigma.
"""

from __future__ import annotations

import copy
import json
import math

from .errors import ConfigError, OrliczFormsError
from .corpus import default_domain
from .geometry import DOMAIN_FAMILIES, Domain, ball_family
from .harness import VERIFIER_NAMES, VERIFIERS
from .weights import WEIGHT_FAMILIES
from .young import YOUNG_FAMILIES

__all__ = ["RunConfig", "load_config", "DEFAULT_CONFIG"]

DEFAULT_CONFIG: dict = {
    "dims": 2,
    "domain": None,  # None -> unit box of the configured dimension
    "grid_resolution": 51,
    "ball_resolution": 15,
    "ball_count": 24,
    "sigma": 1.1,
    "rho": None,
    "k": 0.5,
    "radius_fraction": 0.25,
    "young": {"name": "power", "p": 2.0},
    "g_class": {"p": 1.5, "q": 3.0},
    "conjugate": {"p": 2.0, "q": 2.0},
    "weighted": {"p": 4.0, "q": 1.5, "alpha": 2.0, "s": 1.2,
                 "young": {"name": "power", "p": 1.2}},
    "weights": [{"name": "constant", "value": 1.0},
                {"name": "constant", "value": 2.5},
                {"name": "power", "exponent": 0.5}],
    "lemma_exponent_t": 2.0,
    "sobolev_t": 1.5,
    "osc_a_values": [0.5, 1.0, 2.0],
    "verifiers": ["all"],
    "stability_check": True,
}

NODE_BUDGET = 10 ** 6  # most nodes a grid or ball quadrature may have

def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_keys(spec, allowed: tuple, where: str, errors: list):
    if isinstance(spec, dict):  # else the section's own check reports it
        errors.extend(f"{where}: unknown key {k!r}" for k in spec if k not in allowed)


def _fits(value, kind, dims: int) -> bool:
    """Whether ``value`` is of a family key's ``kind``."""
    if kind is float:
        return _is_num(value)
    if value is None or kind is str:
        return isinstance(value, kind)  # None fits only ``list | None``
    return isinstance(value, list) and len(value) == dims and all(map(_is_num, value))


def _read(spec, families: dict, label: str, where: str, errors: list, dims: int,
          *context):
    """Build ``spec``, an object {label: name, key: value, ...}, from its
    family table; add to ``errors`` an unknown name, unknown keys, the first
    value not of its key's kind, or the constructor's ``OrliczFormsError``,
    and return None when it cannot be built."""
    name = spec.get(label) if isinstance(spec, dict) else None
    if not (isinstance(name, str) and name in families):
        errors.append(f"{where}: unknown {label} {name!r}; expected an object "
                      f"with {label!r} in {list(families)}")
        return None
    keys, make = families[name]
    _check_keys(spec, (label, *keys), where, errors)
    for key, kind in keys.items():
        if not _fits(spec.get(key), kind, dims):
            what = ("a finite number" if kind is float else "a string" if kind is str
                    else f"a length-{dims} point")
            errors.append(f"{where}: {key} must be {what}")
            return None
    try:
        return make(*context, *(spec.get(key) for key in keys))
    except OrliczFormsError as exc:
        errors.append(f"{where}: {exc}")
        return None


class RunConfig:
    """A run's settings: the merged JSON in ``raw``, each key an attribute
    unless shadowed by what load built from its spec: ``domain`` (the unit
    box of ``dims`` for a null spec), ``young``, ``weighted_young`` and
    ``weights`` (a tuple); and the ball families load placed, ``balls`` and
    ``wrh_balls``.  A spec that failed its check is unset."""

    def __init__(self, raw: dict, **built):
        self.raw = raw
        self.__dict__.update((k, v) for k, v in built.items() if v is not None)

    # -- field accessors ----------------------------------------------------
    def __getattr__(self, name: str):
        raw = object.__getattribute__(self, "raw")
        if name in raw and name not in ("domain", "young", "weights"):
            return raw[name]
        raise AttributeError(name)

    @property
    def rho(self) -> float:
        return self.raw["sigma"] if self.raw["rho"] is None else self.raw["rho"]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.raw)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        merged = copy.deepcopy(DEFAULT_CONFIG)
        errors = [f"unknown config key {k!r}" for k in data if k not in merged]
        for k in merged:
            if k in data:
                merged[k] = copy.deepcopy(data[k])
        config, violations = _validate(merged)
        errors.extend(violations)
        if errors:
            raise ConfigError(errors)
        return config

    # -- the names perfbench reads; use the attributes ----------------------
    def build_domain(self) -> Domain:
        return self.domain

    def build_weights(self) -> list:
        return list(self.weights)

    def enabled_verifiers(self) -> tuple:
        names = self.raw["verifiers"]
        if names == ["all"] or names == "all":
            return VERIFIER_NAMES
        return tuple(n for n in VERIFIER_NAMES
                     if isinstance(names, list) and n in names)


def _validate(cfg: dict) -> tuple:
    """The RunConfig of the merged ``cfg``, with each spec built once, and
    every violation in it."""
    e: list = []
    dims = cfg["dims"]
    if type(dims) is not int or dims not in (2, 3):
        e.append(f"dims must be 2 or 3 (corpus presets exist for those), got {dims!r}")
        dims = 2  # keep later checks meaningful

    dom = cfg["domain"]
    # the unit box also when the domain fails, so the weight specs are built
    domain = (dom is not None and _read(dom, DOMAIN_FAMILIES, "kind", "domain", e, dims)
              or default_domain(dims))

    for key, low in (("grid_resolution", 5), ("ball_resolution", 5),
                     ("ball_count", 1)):
        v = cfg[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < low:
            e.append(f"{key} must be an integer >= {low}, got {v!r}")
        elif key != "ball_count" and v ** dims > NODE_BUDGET:
            e.append(f"{key} = {v} gives {v ** dims} nodes in {dims} dimensions, "
                     f"above the budget of {NODE_BUDGET}")

    # dims, the domain and the resolutions are all that is checked so far
    geometry_ok = not e

    if not (_is_num(cfg["sigma"]) and cfg["sigma"] > 1):
        e.append(f"sigma must be > 1, got {cfg['sigma']!r}")
    if cfg["rho"] is not None and not (_is_num(cfg["rho"]) and cfg["rho"] > 1):
        e.append(f"rho must be null or > 1, got {cfg['rho']!r}")
    if not (_is_num(cfg["k"]) and 0 < cfg["k"] < 1):
        e.append(f"k must lie in (0, 1), got {cfg['k']!r}")
    if not (_is_num(cfg["radius_fraction"]) and 0 < cfg["radius_fraction"] <= 1):
        e.append(f"radius_fraction must lie in (0, 1], got {cfg['radius_fraction']!r}")

    families: dict = {}  # key -> the balls B with cfg[key]*B inside the domain
    if not e:  # a sane geometry and ball parameters: place each ball family
        for key in ("sigma", "rho"):
            if key == "rho" and cfg["rho"] in (None, cfg["sigma"]):
                families["rho"] = families.get("sigma")  # sigma's family
                continue
            try:
                families[key] = tuple(ball_family(
                    domain, cfg["ball_count"], cfg["radius_fraction"], expansion=cfg[key]))
            except OrliczFormsError as exc:
                e.append(f"{key}, radius_fraction, ball_count: {exc}")

    young = _read(cfg["young"], YOUNG_FAMILIES, "name", "young", e, dims)

    g = cfg["g_class"]
    _check_keys(g, ("p", "q"), "g_class", e)
    if not isinstance(g, dict) or not all(_is_num(g.get(x)) for x in ("p", "q")):
        e.append("g_class: needs numeric p and q")
    elif not 1 <= g["p"] < g["q"]:
        e.append(f"g_class: needs 1 <= p < q, got p={g['p']}, q={g['q']}")

    cj = cfg["conjugate"]
    _check_keys(cj, ("p", "q"), "conjugate", e)
    if not isinstance(cj, dict) or not all(_is_num(cj.get(x)) for x in ("p", "q")):
        e.append("conjugate: needs numeric p and q")

    w = cfg["weighted"]
    _check_keys(w, ("p", "q", "alpha", "s", "young"), "weighted", e)
    weighted_young = None
    if not isinstance(w, dict) or not all(_is_num(w.get(x)) for x in ("p", "q", "alpha", "s")):
        e.append("weighted: needs numeric p, q, alpha, s")
    else:
        weighted_young = _read(w.get("young"), YOUNG_FAMILIES, "name", "weighted.young",
                               e, dims)

    weights_from = len(e)
    if not isinstance(cfg["weights"], list) or not cfg["weights"]:
        e.append("weights: needs a nonempty list")
    else:
        weights = tuple(_read(spec, WEIGHT_FAMILIES, "name", f"weights[{i}]", e, dims, domain)
                        for i, spec in enumerate(cfg["weights"]))
    weights_ok = len(e) == weights_from
    run_cfg = RunConfig(cfg, domain=domain, young=young, weighted_young=weighted_young,
                        weights=weights if weights_ok else None,
                        balls=families.get("sigma"), wrh_balls=families.get("rho"))

    for key in ("lemma_exponent_t", "sobolev_t"):
        if not _is_num(cfg[key]):
            e.append(f"{key} must be a number, got {cfg[key]!r}")
    if (not isinstance(cfg["osc_a_values"], list) or not cfg["osc_a_values"]
            or not all(_is_num(a) and a > 0 for a in cfg["osc_a_values"])):
        e.append("osc_a_values: needs a nonempty list of positive numbers")

    v = cfg["verifiers"]
    if v != "all" and v != ["all"]:
        if not isinstance(v, list) or not v:
            e.append("verifiers: expected 'all' or a nonempty list of verifier names")
        else:
            unknown = [x for x in v if x not in VERIFIER_NAMES]
            if unknown:
                e.append(f"verifiers: unknown names {unknown!r}; known: "
                         f"{list(VERIFIER_NAMES)}")
    requested = run_cfg.enabled_verifiers()
    clean = not e  # else a gate may trip over a bad value or unset spec reported above
    for row in VERIFIERS:
        if row.name in requested:
            try:
                e.extend(f"{row.name}: {m}" for m in row.gate(run_cfg, dims))
                # only on a sane domain and resolution, and on buildable weights
                if geometry_ok and weights_ok:
                    e.extend(f"{row.name}: {m}" for m in row.domain_gate(run_cfg))
            except (AttributeError, TypeError, KeyError, OrliczFormsError) as exc:
                if clean:  # a failure no check above explains
                    e.append(f"{row.name}: {exc}")
    if (isinstance(dom, dict) and dom.get("kind") == "ball"
            and any(row.needs_box for row in VERIFIERS if row.name in requested)):
        e.append("ball domains cannot run homotopy-image verifiers "
                 "(materialization needs a box); restrict 'verifiers'")

    if not isinstance(cfg["stability_check"], bool):
        e.append(f"stability_check must be boolean, got {cfg['stability_check']!r}")
    return run_cfg, e


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Load a JSON config file, apply overrides, validate everything at once."""
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError([f"cannot read config file {path!r}: {exc}"])
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config file {path!r} is not valid JSON: {exc}"])
        if not isinstance(data, dict):
            raise ConfigError([f"config file {path!r} must hold a JSON object"])
    if overrides:
        data.update(overrides)
    return RunConfig.from_dict(data)
