"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install()`` wraps one function (or class method) per layer.  A
module-level function is replaced in *every* ``orliczforms`` module that
binds it, because callers bind differently: ``harness`` imports
``apply_T``, ``closed_part``, ``materialize``, ``luxemburg_norm``,
``lp_norm``, ``oscillation_profile`` and ``check_wrh`` by name, ``corpus``
imports ``decomposition_residual`` by name, and ``young`` reaches
``homotopy.closed_part`` as a module attribute.  Patching only the defining
module would silently drop the harness's calls; the worker's self-test
catches a layer that records no calls.

Three layers have no public function to wrap and are patched on their class
instead: ``forms.spline`` (``GridField.__call__``), ``forms.expr``
(``ExprField.__call__``) and ``homotopy.T_eval`` (``_TuEvaluator.coeffs``,
the evaluator behind the components of the form ``apply_T`` returns).

A layer's self time is its span time minus the time of spans nested inside
it.  The wrappers' own bookkeeping is excluded from every span and summed in
``bookkeeping_s``.  ``exterior.contract`` operation and byte counts are
*computed* from the contraction table size and the array sizes, not
measured: per table row the kernel multiplies sign, vector and coefficient
and scatter-adds the product (3 flops per element), reading two operand rows
and reading and writing one output row (4 x 8 bytes per element).
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from time import perf_counter

VERIFIERS = (
    "lemma_T_bound", "lemma_closed_part_bound", "sobolev_poincare",
    "oscillation_lower_bound", "thm_lipschitz", "thm_bmo", "thm_bmo_le_lip",
    "conjugate_pair", "weighted_lipschitz",
)
_VERIFIER_FUNCS = {
    "lemma_T_bound": "verify_lemma_T_bound",
    "lemma_closed_part_bound": "verify_lemma_closedpart_bound",
    "sobolev_poincare": "verify_sobolev_poincare",
    "oscillation_lower_bound": "verify_oscillation_lower_bound",
    "thm_lipschitz": "verify_thm_lipschitz",
    "thm_bmo": "verify_thm_bmo",
    "thm_bmo_le_lip": "verify_thm_bmo_le_lip",
    "conjugate_pair": "verify_conjugate_pair",
    "weighted_lipschitz": "verify_weighted_lipschitz",
}

# Layers whose self times make up the coverage share (harness spans are
# excluded: their self time is exactly the glue that coverage looks for).
COMPUTE_LAYERS = (
    "exterior.contract", "homotopy.apply_T", "homotopy.T_eval",
    "homotopy.materialize", "homotopy.closed_part", "corpus.admission",
    "forms.spline", "forms.expr", "young.luxemburg", "young.lp",
    "young.oscillation_profile", "young.wrh",
)


class _Stats:
    __slots__ = ("calls", "incl_s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.extra: dict = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


class _CountingPhi:
    """Young function proxy counting evaluations (one per bisection step)."""

    def __init__(self, phi, stats):
        self._phi, self._stats = phi, stats

    def __call__(self, t):
        self._stats.add("phi_evals", 1)
        return self._phi(t)

    def __getattr__(self, name):
        return getattr(self._phi, name)


class Tracer:
    def __init__(self):
        self.stats = {name: _Stats() for name in
                      COMPUTE_LAYERS + tuple(f"harness.{v}" for v in VERIFIERS)}
        self.bookkeeping_s = 0.0
        self._stack: list = []
        self._closed_keys: dict = {}
        self._ynodes: dict = {}
        self._ynode_counts: list = []

    # -- span machinery ---------------------------------------------------
    def _wrap(self, name, fn, before=None, after=None):
        """Span around ``fn``; ``before`` may rewrite the arguments and
        returns (args, kwargs, ctx); ``after`` sees ctx, the result and the
        span duration."""
        stats = self.stats[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            ctx = None
            if before is not None:
                args, kwargs, ctx = before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            dt = t1 - t0
            stats.calls += 1
            stats.incl_s += dt
            stats.self_s += dt - frame[0]
            if after is not None:
                after(ctx, args, kwargs, out, dt)
            t_exit = perf_counter()
            if stack:
                stack[-1][0] += t_exit - t_enter
            self.bookkeeping_s += (t_exit - t_enter) - dt
            return out

        functools.update_wrapper(wrapper, fn)
        return wrapper

    @staticmethod
    def _patch_everywhere(fn, wrapper):
        """Replace ``fn`` by ``wrapper`` in every orliczforms module binding it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "orliczforms"
                                   or modname.startswith("orliczforms.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)

    def _function(self, name, fn, before=None, after=None):
        self._patch_everywhere(fn, self._wrap(name, fn, before, after))

    def _method(self, name, cls, attr, before=None, after=None):
        setattr(cls, attr, self._wrap(name, getattr(cls, attr), before, after))

    # -- layers -----------------------------------------------------------
    def install(self):
        from orliczforms import corpus, exterior, forms, harness, homotopy, young

        contract = self.stats["exterior.contract"]

        def contract_before(args, kwargs):
            n, l, a, v = args
            elems = math.prod(a.shape[1:])
            rows = math.comb(n, l) * l
            contract.add("elements", elems)
            contract.add("ops", 3 * rows * elems)
            contract.add("bytes", 4 * 8 * rows * elems)
            return args, kwargs, None

        self._function("exterior.contract", exterior.contract_coeffs,
                       before=contract_before)

        t_eval = self.stats["homotopy.T_eval"]

        def t_eval_before(args, kwargs):
            return args, kwargs, (contract.calls, contract.extra.get("elements", 0))

        def t_eval_after(ctx, args, kwargs, out, dt):
            calls0, elems0 = ctx
            if contract.calls > calls0:  # a cache hit runs no kernel
                t_eval.add("points", int(args[1].shape[0]))
                t_eval.add("kernel_evals", contract.extra["elements"] - elems0)

        self._method("homotopy.T_eval", homotopy._TuEvaluator, "coeffs",
                     before=t_eval_before, after=t_eval_after)

        apply_sig = inspect.signature(homotopy.apply_T)

        def apply_before(args, kwargs):
            b = apply_sig.bind(*args, **kwargs)
            b.apply_defaults()
            self._ynode_counts.append(self._bump_ynodes(
                homotopy, b.arguments["region"], b.arguments["bump"],
                b.arguments["resolution"]))
            return args, kwargs, None

        self._function("homotopy.apply_T", homotopy.apply_T, before=apply_before)

        mat = self.stats["homotopy.materialize"]
        mat_sig = inspect.signature(homotopy.materialize)

        def mat_before(args, kwargs):
            b = mat_sig.bind(*args, **kwargs)
            mat.add("points", b.arguments["resolution"] ** b.arguments["box"].dims)
            return args, kwargs, None

        self._function("homotopy.materialize", homotopy.materialize, before=mat_before)

        cp_sig = inspect.signature(homotopy.closed_part)

        def closed_before(args, kwargs):
            b = cp_sig.bind(*args, **kwargs)
            b.apply_defaults()
            u = b.arguments["u"]
            key = (id(u), repr(b.arguments["region"]), b.arguments["resolution"])
            self._closed_keys[key] = u  # pinning u keeps its id unique
            return args, kwargs, None

        self._function("homotopy.closed_part", homotopy.closed_part,
                       before=closed_before)
        self._function("corpus.admission", corpus.decomposition_residual)

        def points_after(stats):
            def after(ctx, args, kwargs, out, dt):
                stats.add("points", int(out.shape[0]))
            return after

        self._method("forms.spline", forms.GridField, "__call__",
                     after=points_after(self.stats["forms.spline"]))
        self._method("forms.expr", forms.ExprField, "__call__",
                     after=points_after(self.stats["forms.expr"]))

        lux = self.stats["young.luxemburg"]
        lux_sig = inspect.signature(young.luxemburg_norm)

        def lux_before(args, kwargs):
            b = lux_sig.bind(*args, **kwargs)
            b.arguments["phi"] = _CountingPhi(b.arguments["phi"], lux)
            return b.args, b.kwargs, None

        self._function("young.luxemburg", young.luxemburg_norm, before=lux_before)
        self._function("young.lp", young.lp_norm)
        self._function("young.oscillation_profile", young.oscillation_profile)
        self._function("young.wrh", young.check_wrh)

        for verifier in VERIFIERS:
            fn = getattr(harness, _VERIFIER_FUNCS[verifier])
            self._function(f"harness.{verifier}", fn,
                           after=self._scale_after(verifier, fn))

    def _scale_after(self, verifier, fn):
        stats = self.stats[f"harness.{verifier}"]
        sig = inspect.signature(fn)

        def after(ctx, args, kwargs, out, dt):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            stats.add(f"s{b.arguments['scale']}_s", dt)
        return after

    def _bump_ynodes(self, homotopy, region, bump, resolution) -> int:
        """y-nodes in the bump support, from the public BumpFunction and quadrature."""
        if bump is not None:
            return self._count_ynodes(region, bump, resolution)
        key = (repr(region), resolution)
        if key not in self._ynodes:
            self._ynodes[key] = self._count_ynodes(
                region, homotopy.BumpFunction(region, resolution=resolution),
                resolution)
        return self._ynodes[key]

    @staticmethod
    def _count_ynodes(region, bump, resolution) -> int:
        quad = region.quadrature(resolution)
        return int(((quad.weights * bump(quad.points)) > 0).sum())

    # -- results ----------------------------------------------------------
    def coverage(self, traced_run_s: float) -> float:
        """Share of the traced pass spent in the named layers' self time."""
        covered = sum(self.stats[name].self_s for name in COMPUTE_LAYERS)
        return covered / max(traced_run_s - self.bookkeeping_s, 1e-12)

    def metrics(self) -> dict:
        """Per-layer metric values keyed by the names in BENCHMARK.json."""
        s = self.stats
        c = s["exterior.contract"]
        closed_calls = s["homotopy.closed_part"].calls
        ynodes = self._ynode_counts
        out = {
            "exterior.contract.self_s": c.self_s,
            "exterior.contract.calls": c.calls,
            "exterior.contract.ops": c.extra.get("ops", 0),
            "exterior.contract.bytes": c.extra.get("bytes", 0),
            "homotopy.T_eval.self_s": s["homotopy.T_eval"].self_s,
            "homotopy.T_eval.points": s["homotopy.T_eval"].extra.get("points", 0),
            "homotopy.T_eval.kernel_evals":
                s["homotopy.T_eval"].extra.get("kernel_evals", 0),
            "homotopy.materialize.self_s": s["homotopy.materialize"].self_s,
            "homotopy.materialize.points":
                s["homotopy.materialize"].extra.get("points", 0),
            "homotopy.closed_part.calls": closed_calls,
            "homotopy.closed_part.unique_ratio":
                len(self._closed_keys) / closed_calls if closed_calls else 0.0,
            "homotopy.bump_ynodes.min": min(ynodes) if ynodes else 0,
            "homotopy.bump_ynodes.max": max(ynodes) if ynodes else 0,
            "corpus.admission_s": s["corpus.admission"].incl_s,
            "corpus.admission.calls": s["corpus.admission"].calls,
            "forms.spline.self_s": s["forms.spline"].self_s,
            "forms.spline.points": s["forms.spline"].extra.get("points", 0),
            "forms.expr.self_s": s["forms.expr"].self_s,
            "forms.expr.points": s["forms.expr"].extra.get("points", 0),
            "young.luxemburg.self_s": s["young.luxemburg"].self_s,
            "young.luxemburg.calls": s["young.luxemburg"].calls,
            "young.luxemburg.phi_evals":
                s["young.luxemburg"].extra.get("phi_evals", 0),
            "young.oscillation_profile.calls": s["young.oscillation_profile"].calls,
            "young.lp.self_s": s["young.lp"].self_s,
        }
        for v in VERIFIERS:
            h = s[f"harness.{v}"].extra
            out[f"harness.{v}.s1_s"] = h.get("s1_s", 0.0)
            out[f"harness.{v}.s2_s"] = h.get("s2_s", 0.0)
        return out
