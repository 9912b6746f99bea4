"""Run configuration: a single JSON document that pins every knob of a
verification run, validated up front with a complete list of violations.

Schema (all keys optional, defaults shown):

{
  "dims": 2,
  "domain": {"kind": "box", "lo": [0, 0], "hi": [1, 1]},
  "grid_resolution": 51,
  "ball_resolution": 15,
  "ball_count": 24,
  "sigma": 1.1,
  "rho": null,                       // null -> same as sigma
  "k": 0.5,
  "radius_fraction": 0.25,
  "young": {"name": "power", "p": 2.0},           // or power_log / custom
  "g_class": {"p": 1.5, "q": 3.0, "c": 1.0},
  "conjugate": {"p": 2.0, "q": 2.0},
  "weighted": {"p": 4.0, "q": 1.5, "alpha": 2.0, "s": 1.2,
               "young": {"name": "power", "p": 1.2}},
  "weights": [{"name": "constant", "value": 1.0},
              {"name": "constant", "value": 2.5},
              {"name": "power", "exponent": 0.5}], // optional "center"
  "lemma_exponent_t": 2.0,
  "sobolev_t": 1.5,
  "osc_a_values": [0.5, 1.0, 2.0],
  "verifiers": ["all"],
  "stability_check": true
}
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError, OrliczFormsError
from .geometry import Ball, Box, Domain
from .harness import VERIFIER_NAMES, VERIFIERS
from .weights import constant_weight, custom_weight, power_weight
from .young import YoungFunction, custom_young, power, power_log

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
    "g_class": {"p": 1.5, "q": 3.0, "c": 1.0},
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

def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_young_spec(spec, where: str, errors: list):
    if not isinstance(spec, dict) or "name" not in spec:
        errors.append(f"{where}: expected an object with a 'name' key")
        return
    name = spec["name"]
    if name in ("power", "power_log"):
        p = spec.get("p")
        if not (_is_num(p) and p >= 1):
            errors.append(f"{where}: {name} needs p >= 1, got {p!r}")
    elif name == "custom":
        if not isinstance(spec.get("expression"), str):
            errors.append(f"{where}: custom needs an 'expression' string in t")
            return
        try:  # parse it and sample the Young-function axioms now, not in run_suite
            custom_young(spec["expression"])
        except OrliczFormsError as exc:
            errors.append(f"{where}: {exc}")
    else:
        errors.append(f"{where}: unknown Young function {name!r}")


def _build_young_spec(spec: dict) -> YoungFunction:
    if spec["name"] == "power":
        return power(spec["p"])
    if spec["name"] == "power_log":
        return power_log(spec["p"])
    return custom_young(spec["expression"])


@dataclass
class RunConfig:
    raw: dict = field(default_factory=lambda: copy.deepcopy(DEFAULT_CONFIG))

    # -- field accessors ----------------------------------------------------
    def __getattr__(self, name: str):
        raw = object.__getattribute__(self, "raw")
        if name in raw:
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
        errors.extend(_validate(merged))
        if errors:
            raise ConfigError(errors)
        return cls(merged)

    # -- builders ---------------------------------------------------------
    def build_domain(self) -> Domain:
        spec = self.raw["domain"]
        if spec is None:
            n = self.raw["dims"]
            return Box([0.0] * n, [1.0] * n)
        if spec["kind"] == "box":
            return Box(spec["lo"], spec["hi"])
        return Ball(spec["center"], spec["radius"])

    def build_young(self) -> YoungFunction:
        return _build_young_spec(self.raw["young"])

    def build_weighted_young(self) -> YoungFunction:
        return _build_young_spec(self.raw["weighted"]["young"])

    def build_weights(self) -> list:
        out = []
        for spec in self.raw["weights"]:
            if spec["name"] == "constant":
                out.append(constant_weight(spec["value"]))
            elif spec["name"] == "power":
                center = spec.get("center")
                if center is None:
                    from .corpus import _offgrid_center
                    center = _offgrid_center(self.build_domain())
                out.append(power_weight(center, spec["exponent"]))
            else:
                out.append(custom_weight(spec["expression"], self.raw["dims"]))
        return out

    def enabled_verifiers(self) -> tuple:
        names = self.raw["verifiers"]
        if names == ["all"] or names == "all":
            return VERIFIER_NAMES
        return tuple(n for n in VERIFIER_NAMES
                     if isinstance(names, list) and n in names)


def _validate(cfg: dict) -> list:
    e: list = []
    dims = cfg["dims"]
    if type(dims) is not int or dims not in (2, 3):
        e.append(f"dims must be 2 or 3 (corpus presets exist for those), got {dims!r}")
        dims = 2  # keep later checks meaningful

    dom = cfg["domain"]
    if dom is not None:
        if not isinstance(dom, dict) or dom.get("kind") not in ("box", "ball"):
            e.append("domain: expected {'kind': 'box'|'ball', ...}")
        elif dom["kind"] == "box":
            lo, hi = dom.get("lo"), dom.get("hi")
            if (not isinstance(lo, list) or not isinstance(hi, list)
                    or len(lo) != dims or len(hi) != dims
                    or not all(_is_num(a) for a in lo + hi)):
                e.append(f"domain: box needs numeric lo/hi of length {dims}")
            elif not all(a < b for a, b in zip(lo, hi)):
                e.append("domain: box needs lo < hi per axis")
        else:
            c, r = dom.get("center"), dom.get("radius")
            if (not isinstance(c, list) or len(c) != dims
                    or not all(_is_num(a) for a in c) or not _is_num(r) or r <= 0):
                e.append(f"domain: ball needs a length-{dims} center and radius > 0")

    geometry_ok = not e  # dims and the domain are all that is checked so far

    for key, low in (("grid_resolution", 5), ("ball_resolution", 5),
                     ("ball_count", 1)):
        v = cfg[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < low:
            e.append(f"{key} must be an integer >= {low}, got {v!r}")

    if not (_is_num(cfg["sigma"]) and cfg["sigma"] > 1):
        e.append(f"sigma must be > 1, got {cfg['sigma']!r}")
    if cfg["rho"] is not None and not (_is_num(cfg["rho"]) and cfg["rho"] > 1):
        e.append(f"rho must be null or > 1, got {cfg['rho']!r}")
    if not (_is_num(cfg["k"]) and 0 < cfg["k"] < 1):
        e.append(f"k must lie in (0, 1), got {cfg['k']!r}")
    if not (_is_num(cfg["radius_fraction"]) and 0 < cfg["radius_fraction"] <= 1):
        e.append(f"radius_fraction must lie in (0, 1], got {cfg['radius_fraction']!r}")

    _check_young_spec(cfg["young"], "young", e)

    g = cfg["g_class"]
    if not isinstance(g, dict) or not all(_is_num(g.get(x)) for x in ("p", "q")):
        e.append("g_class: needs numeric p and q")
    else:
        if not 1 <= g["p"] < g["q"]:
            e.append(f"g_class: needs 1 <= p < q, got p={g['p']}, q={g['q']}")
        if g.get("c") is not None and not (_is_num(g["c"]) and g["c"] >= 1):
            e.append(f"g_class: c must be null or >= 1, got {g.get('c')!r}")

    cj = cfg["conjugate"]
    if not isinstance(cj, dict) or not all(_is_num(cj.get(x)) for x in ("p", "q")):
        e.append("conjugate: needs numeric p and q")

    w = cfg["weighted"]
    if not isinstance(w, dict) or not all(_is_num(w.get(x)) for x in ("p", "q", "alpha", "s")):
        e.append("weighted: needs numeric p, q, alpha, s")
    else:
        _check_young_spec(w.get("young", {}), "weighted.young", e)

    if not isinstance(cfg["weights"], list) or not cfg["weights"]:
        e.append("weights: needs a nonempty list")
    else:
        for i, spec in enumerate(cfg["weights"]):
            where = f"weights[{i}]"
            if not isinstance(spec, dict) or "name" not in spec:
                e.append(f"{where}: expected an object with a 'name' key")
            elif spec["name"] == "constant":
                if not (_is_num(spec.get("value")) and spec["value"] > 0):
                    e.append(f"{where}: constant needs value > 0")
            elif spec["name"] == "power":
                if not _is_num(spec.get("exponent")):
                    e.append(f"{where}: power needs a numeric exponent")
                c = spec.get("center")
                if c is not None and (not isinstance(c, list) or len(c) != dims
                                      or not all(_is_num(a) for a in c)):
                    e.append(f"{where}: center must be a length-{dims} point")
            elif spec["name"] == "custom":
                if not isinstance(spec.get("expression"), str):
                    e.append(f"{where}: custom needs an 'expression' string")
                else:
                    try:  # parse it against x1..x{dims} now, not in run_suite
                        custom_weight(spec["expression"], dims)
                    except OrliczFormsError as exc:
                        e.append(f"{where}: {exc}")
            else:
                e.append(f"{where}: unknown weight {spec['name']!r}")

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
    run_cfg = RunConfig(cfg)
    requested = run_cfg.enabled_verifiers()
    clean = not e  # else a gate may trip over a malformed value reported above
    for row in VERIFIERS:
        if row.name in requested:
            try:
                e.extend(f"{row.name}: {m}" for m in row.gate(run_cfg, dims))
                if geometry_ok:  # else the raw dims or domain may be huge
                    e.extend(f"{row.name}: {m}" for m in row.domain_gate(run_cfg))
            except (TypeError, KeyError, OrliczFormsError) as exc:
                if clean:  # a failure no check above explains
                    e.append(f"{row.name}: {exc}")
    if (isinstance(dom, dict) and dom.get("kind") == "ball"
            and any(row.needs_box for row in VERIFIERS if row.name in requested)):
        e.append("ball domains cannot run homotopy-image verifiers "
                 "(materialization needs a box); restrict 'verifiers'")

    if not isinstance(cfg["stability_check"], bool):
        e.append(f"stability_check must be boolean, got {cfg['stability_check']!r}")
    return e


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
