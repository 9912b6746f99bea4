"""Test-form corpus: construction, admission gate, and named presets.

The default corpus mixes polynomial, trigonometric, compactly supported, and
mildly singular coefficient fields across all degrees, with closed entries
(exact exterior derivatives of potentials) alongside non-closed ones.
Polynomial entries keep per-axis degree at least three: flatter fields hit
the quadrature roundoff floor, where the decomposition residual no longer
shrinks under grid refinement and the refinement self-check loses meaning.

Admission: every entry of degree 1..n-1 must exhibit a decomposition
residual at most 1e-3 on the build domain before it enters the corpus;
violations raise instead of silently weakening coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError
from .forms import BumpField, DifferentialForm, RadialPowerField
from .geometry import Box, Domain, offgrid_center
from .homotopy import decomposition_residual

__all__ = ["CorpusEntry", "default_domain", "build_corpus", "named_form",
           "RESIDUAL_GATE"]

RESIDUAL_GATE = 1e-3


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    dims: int
    degree: int
    form: DifferentialForm | None
    pair: tuple | None
    tags: frozenset
    provenance: dict
    residual: float | None = None

    def has(self, tag: str) -> bool:
        return tag in self.tags

    def summary(self) -> dict:
        return {"id": self.id, "dims": self.dims, "degree": self.degree,
                "tags": sorted(self.tags), "provenance": self.provenance,
                "residual": self.residual}


def default_domain(dims: int) -> Box:
    return Box([0.0] * dims, [1.0] * dims)


def _entries_2d(domain: Domain) -> list[CorpusEntry]:
    n = 2
    c = domain.centroid()
    bump = BumpField(c, 0.7 * domain.inradius())
    radial = RadialPowerField(offgrid_center(domain), 1.5)
    raw = [
        # (id, degree, components or pair, tags, provenance)
        ("poly-closed-1form", 1, ["3*x1^2*x2", "x1^3"],
         {"closed", "smooth"}, {"preset": "polynomial", "potential": "x1^3*x2"}),
        ("poly-1form", 1, ["x2^3", "0"],
         {"smooth"}, {"preset": "polynomial"}),
        ("trig-closed-1form", 1, ["pi*cos(pi*x1)*x2", "sin(pi*x1)"],
         {"closed", "smooth"}, {"preset": "trigonometric", "potential": "sin(pi*x1)*x2"}),
        ("trig-1form", 1, ["sin(pi*x2)", "0"],
         {"smooth"}, {"preset": "trigonometric"}),
        ("mixed-1form", 1, ["0", "x2^3 + sin(pi*x1)"],
         {"smooth"}, {"preset": "mixed"}),
        ("bump-1form", 1, [bump, 0.0],
         {"smooth", "compact-support"},
         {"preset": "exp_bump", "support_fraction": 0.7}),
        ("radial-1form", 1, [radial, 0.0],
         {"rough"}, {"preset": "radial_power", "exponent": 1.5,
                     "center": [float(a) for a in radial.center]}),
        ("poly-0form", 0, ["x1^3 + x2^3 - x1*x2"],
         {"smooth"}, {"preset": "polynomial"}),
        ("trig-0form", 0, ["sin(pi*x1)*cos(pi*x2)"],
         {"smooth"}, {"preset": "trigonometric"}),
        ("zeromean-0form", 0, [f"x1 - {float(c[0])!r}"],
         {"smooth", "zero-mean"}, {"preset": "polynomial"}),
        ("poly-top-form", 2, ["x1^3 + x2"],
         {"closed", "smooth", "top"}, {"preset": "polynomial"}),
    ]
    out = [CorpusEntry(eid, n, deg, DifferentialForm(n, deg, tuple(comps)), None,
                       frozenset(tags), prov)
           for eid, deg, comps, tags, prov in raw]
    pair_u = DifferentialForm(n, 0, ("x1^2 - x2^2",))
    pair_v = DifferentialForm.from_components(n, 2, {(1, 2): "2*x1*x2"})
    out.append(CorpusEntry("harmonic-pair", n, 0, None, (pair_u, pair_v),
                           frozenset({"pair", "smooth"}),
                           {"preset": "harmonic_conjugate",
                            "potential": "x1^2 - x2^2"}))
    return out


def _entries_3d(domain: Domain) -> list[CorpusEntry]:
    n = 3
    radial = RadialPowerField(offgrid_center(domain), 1.5)
    raw = [
        ("poly-closed-1form", 1, {(1,): "3*x1^2*x2*x3", (2,): "x1^3*x3", (3,): "x1^3*x2"},
         {"closed", "smooth"}, {"preset": "polynomial", "potential": "x1^3*x2*x3"}),
        ("poly-1form", 1, {(1,): "x3^3"},
         {"smooth"}, {"preset": "polynomial"}),
        ("trig-1form", 1, {(1,): "sin(pi*x2)"},
         {"smooth"}, {"preset": "trigonometric"}),
        ("poly-closed-2form", 2, {(1, 3): "3*x1^2*x2", (2, 3): "x1^3"},
         {"closed", "smooth"}, {"preset": "polynomial", "potential": "x1^3*x2 dx3"}),
        ("poly-2form", 2, {(2, 3): "x1^3"},
         {"smooth"}, {"preset": "polynomial"}),
        ("radial-1form", 1, {(2,): radial},
         {"rough"}, {"preset": "radial_power", "exponent": 1.5,
                     "center": [float(a) for a in radial.center]}),
        ("poly-0form", 0, {(): "x1^3 + x2*x3"},
         {"smooth"}, {"preset": "polynomial"}),
        ("poly-top-form", 3, {(1, 2, 3): "x1^3*x2"},
         {"closed", "smooth", "top"}, {"preset": "polynomial"}),
    ]
    return [CorpusEntry(eid, n, deg,
                        DifferentialForm.from_components(n, deg, comps), None,
                        frozenset(tags), prov)
            for eid, deg, comps, tags, prov in raw]


def build_corpus(domain: Domain | None = None, dims: int = 2, *, admit: bool = True,
                 resolution: int | None = None) -> list[CorpusEntry]:
    """Build the default corpus on a domain, optionally running the admission gate.

    With ``admit`` the decomposition residual is measured for every entry of
    degree 1..n-1 and recorded on the entry; any residual above the gate
    raises.  ``admit=False`` skips the (comparatively slow) gate for callers
    that only need the forms themselves.
    """
    if domain is None:
        domain = default_domain(dims)
    if domain.dims != dims:
        raise InvalidInputError(f"domain has dims {domain.dims}, expected {dims}")
    if dims == 2:
        entries = _entries_2d(domain)
    elif dims == 3:
        entries = _entries_3d(domain)
    else:
        raise InvalidInputError(f"no default corpus for dims {dims}")
    if not admit:
        return entries
    if resolution is None:
        resolution = 51 if dims == 2 else 15
    admitted = []
    for e in entries:
        if e.form is not None and 1 <= e.degree <= dims - 1:
            r = decomposition_residual(e.form, domain, resolution=resolution)
            if not r <= RESIDUAL_GATE:
                raise InvalidInputError(
                    f"corpus entry {e.id} fails the decomposition gate: "
                    f"residual {r:.3e} > {RESIDUAL_GATE}")
            e = CorpusEntry(e.id, e.dims, e.degree, e.form, e.pair, e.tags,
                            e.provenance, residual=r)
        admitted.append(e)
    return admitted


def named_form(spec: str, dims: int, domain: Domain | None = None) -> DifferentialForm:
    """Resolve a command-line form spec.

    Accepted shapes: ``zero`` (zero 1-form), ``const:dx<i>`` (constant basis
    1-form), ``poly:<expr>`` (0-form from an expression in x1..xn),
    ``oneform:<e1>,...,<en>`` (1-form components in axis order), and
    ``corpus:<id>`` (an entry of the default corpus).
    """
    if domain is None:
        domain = default_domain(dims)
    if spec == "zero":
        return DifferentialForm.from_components(dims, 1, {})
    kind, _, rest = spec.partition(":")
    if kind == "const":
        if not (rest.startswith("dx") and rest[2:].isdigit()):
            raise InvalidInputError(f"expected const:dx<i>, got {spec!r}")
        i = int(rest[2:])
        if not 1 <= i <= dims:
            raise InvalidInputError(f"axis {i} outside 1..{dims}")
        return DifferentialForm.from_components(dims, 1, {(i,): 1.0})
    if kind == "poly" and rest:
        return DifferentialForm(dims, 0, (rest,))
    if kind == "oneform" and rest:
        comps = rest.split(",")
        if len(comps) != dims:
            raise InvalidInputError(
                f"oneform needs {dims} comma-separated components, got {len(comps)}")
        return DifferentialForm(dims, 1, tuple(c.strip() or "0" for c in comps))
    if kind == "corpus" and rest:
        for e in build_corpus(domain, dims, admit=False):
            if e.id == rest and e.form is not None:
                return e.form
        raise InvalidInputError(f"no corpus entry named {rest!r} with a single form")
    raise InvalidInputError(f"unrecognized form spec {spec!r}")
