"""Benchmark worker: one workload at one seed, timed passes, every output checked.

``run.py`` starts this script with BLAS/OpenMP threads pinned to 1 and
``PYTHONPATH`` pointing at the checkout's ``src/``; it is not meant to be
run by hand.  The library is driven only through its public API
(``load_config`` + ``run_suite``, and ``oscillation_norm``), on inputs
generated here from ``--seed``.

An *operation* is one verifier report (``suite-accept-2d``) or one
``oscillation_norm`` call (``norm-sweep-2d``).  It fails on an exception, a
non-``ok`` status, a non-finite value, bytes that differ from the previous
pass of the same run, a report entry outside the generated corpus or ball
family, or (norm sweep) a closed form whose norm is not below
``CLOSED_TOL`` or a non-closed one whose norm is not above ``OPEN_FLOOR``.

With ``--trace 0`` passes repeat until ``--seconds`` have gone by, at least
two of them, and ``run_s`` is their median.  With ``--trace 1`` a warm-up
pass and an untraced pass are followed by one traced pass (see
``layers.py``); all are checked, the traced one yields the per-layer
metrics, and the tracing overhead is its time minus the untraced pass's.
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from layers import COMPUTE_LAYERS, Tracer  # this directory is sys.path[0]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SUITE = "suite-accept-2d"
NORM_SWEEP = "norm-sweep-2d"
WORKLOADS = (SUITE, NORM_SWEEP)
# run_suite overrides of the criterion-7 acceptance config
ACCEPTANCE_OVERRIDES = {"grid_resolution": 27, "ball_resolution": 9,
                        "ball_count": 12, "stability_check": True}

# Self-test: the layers that must record calls on each workload.  The
# harness spans the suite must record follow from its config instead.
EXPECTED_LAYERS = {
    SUITE: COMPUTE_LAYERS,
    NORM_SWEEP: ("exterior.contract", "homotopy.apply_T", "homotopy.T_eval",
                 "homotopy.closed_part", "forms.expr", "young.luxemburg",
                 "young.oscillation_profile"),
}
# Coverage check: the named layers' self times must add up to at least this
# share of the traced pass, so a heavy layer missing from the list shows.
MIN_COVERAGE = 0.95


@dataclass
class Pass:
    seconds: float
    ops: dict = field(default_factory=dict)  # key -> (ok, payload bytes)
    constants: dict = field(default_factory=dict)
    sha1: str | None = None
    errors: list = field(default_factory=list)


def _jittered_box(dims: int, seed: int) -> dict:
    rng = random.Random(seed)
    lo = [round(rng.uniform(-0.1, 0.1), 4) for _ in range(dims)]
    hi = [round(a + rng.uniform(0.95, 1.15), 4) for a in lo]
    return {"kind": "box", "lo": lo, "hi": hi}


class Suite:
    """``run_suite`` at the acceptance config; seed 0 is the unit box, other
    seeds jitter the box bounds."""

    def __init__(self, seed: int):
        from orliczforms import ball_family, build_corpus, load_config
        overrides = dict(ACCEPTANCE_OVERRIDES)
        if seed != 0:
            overrides["domain"] = _jittered_box(2, seed)
        self.cfg = load_config(overrides=overrides)
        domain = self.cfg.build_domain()
        self.corpus_ids = {e.id for e in build_corpus(domain, 2, admit=False)}
        self.balls = {(tuple(float(c) for c in b.center), float(b.radius))
                      for b in ball_family(domain, self.cfg.ball_count,
                                           self.cfg.radius_fraction,
                                           expansion=self.cfg.sigma)}
        keys = []
        for v in self.cfg.enabled_verifiers():
            if v == "weighted_lipschitz":
                keys += [f"{v}[{w.describe()}]" for w in self.cfg.build_weights()]
            else:
                keys.append(v)
        self.expected_keys = keys
        scales = (1, 2) if self.cfg.stability_check else (1,)
        self.expected_spans = [f"harness.{v}.s{sc}_s"
                               for v in self.cfg.enabled_verifiers() for sc in scales]

    def _entry_problem(self, entry: dict) -> str | None:
        if entry["id"].split("[")[0] not in self.corpus_ids:
            return f"entry {entry['id']} is not in the corpus"
        for k in ("argmax_ball", "ball"):
            if k in entry:
                b = entry[k]
                if (tuple(b["center"]), b["radius"]) not in self.balls:
                    return f"entry {entry['id']} names a ball outside the family"
        return None

    def run(self) -> Pass:
        from orliczforms import reports_to_json, run_suite
        t0 = perf_counter()
        try:
            reports = run_suite(self.cfg)
            text = reports_to_json(reports, self.cfg)
        except Exception as exc:  # an exception fails every report of the pass
            return Pass(perf_counter() - t0, errors=[f"run_suite raised {exc!r}"])
        p = Pass(perf_counter() - t0, sha1=hashlib.sha1(text.encode()).hexdigest())
        for r in reports:
            key = r.inequality
            if key == "weighted_lipschitz":
                key += f"[{r.config['weight']}]"
            c = r.empirical_constant
            problems = [f"status {r.status}"] if r.status != "ok" else []
            if c is None and r.entries:
                problems.append("no empirical constant")
            if c is not None and not math.isfinite(c):
                problems.append(f"non-finite constant {c!r}")
            problems += [m for m in map(self._entry_problem, r.entries) if m]
            p.errors += [f"{key}: {m}" for m in problems]
            p.ops[key] = (not problems, json.dumps(r.to_dict(), sort_keys=True).encode())
            p.constants[key] = c
        return p


class NormSweep:
    """``oscillation_norm`` once per 1-form: the closed corpus 1-forms plus
    seed-drawn non-closed polynomial and trigonometric ones, on the unit box.
    Kinds and Young functions alternate between bmo/power:2 and
    lipschitz/power_log:1.5."""

    BALL_COUNT = 24
    BALL_RESOLUTION = 21
    CLOSED_TOL = 1e-6   # closed forms measure ~5e-9; they must collapse
    OPEN_FLOOR = 1e-3   # drawn forms measure ~1; they must not

    def __init__(self, seed: int):
        from orliczforms import (DifferentialForm, OscillationNormSpec, ball_family,
                                 build_corpus, default_domain, power, power_log)
        self.domain = default_domain(2)
        rng = random.Random(seed)

        def coef():
            sign = rng.choice((-1.0, 1.0))
            return round(sign * rng.uniform(0.5, 1.5), 4)

        forms = [(e.id, e.form, True) for e in build_corpus(self.domain, 2, admit=False)
                 if e.degree == 1 and e.has("closed")]
        for i in range(3):
            a, b, c, d = coef(), coef(), coef(), coef()
            forms.append((f"drawn-poly-{i}", DifferentialForm(2, 1, (
                f"({a})*x2^3 + ({b})*x1^2*x2", f"({c})*x1^3 + ({d})*x1*x2")), False))
        for i in range(3):
            a, b, c, d = coef(), coef(), coef(), coef()
            forms.append((f"drawn-trig-{i}", DifferentialForm(2, 1, (
                f"({a})*sin(pi*x2) + ({b})*x1*cos(pi*x2)",
                f"({c})*cos(pi*x1) + ({d})*x2")), False))
        variants = [(OscillationNormSpec(kind="bmo", ball_count=self.BALL_COUNT),
                     power(2.0)),
                    (OscillationNormSpec(kind="lipschitz", ball_count=self.BALL_COUNT),
                     power_log(1.5))]
        self.items = [(fid, form, closed) + variants[i % 2]
                      for i, (fid, form, closed) in enumerate(forms)]
        spec = variants[0][0]
        self.balls = ball_family(self.domain, self.BALL_COUNT, spec.radius_fraction,
                                 expansion=spec.sigma)
        self.expected_keys = [item[0] for item in self.items]
        self.expected_spans = []

    def run(self) -> Pass:
        from orliczforms import oscillation_norm
        results = []
        t0 = perf_counter()
        for fid, form, closed, spec, phi in self.items:
            try:
                res = oscillation_norm(form, self.domain, phi, spec,
                                       ball_resolution=self.BALL_RESOLUTION,
                                       balls=self.balls)
            except Exception as exc:  # one failed call fails one operation
                res = exc
            results.append(res)
        p = Pass(perf_counter() - t0)
        digest = hashlib.sha1()
        for (fid, form, closed, spec, phi), res in zip(self.items, results):
            if isinstance(res, Exception):
                p.errors.append(f"{fid}: raised {res!r}")
                p.ops[fid] = (False, b"")
                continue
            v = res.value
            if not math.isfinite(v):
                problem = f"non-finite norm {v!r}"
            elif closed and not v < self.CLOSED_TOL:
                problem = f"closed form norm {v:.3e} >= {self.CLOSED_TOL:g}"
            elif not closed and not v > self.OPEN_FLOOR:
                problem = f"non-closed form norm {v:.3e} <= {self.OPEN_FLOOR:g}"
            else:
                problem = None
            if problem:
                p.errors.append(f"{fid}: {problem}")
            payload = json.dumps({"kind": spec.kind, "phi": phi.describe(),
                                  **res.to_dict()}, sort_keys=True).encode()
            digest.update(payload)
            p.ops[fid] = (problem is None, payload)
            p.constants[fid] = v
        p.sha1 = digest.hexdigest()
        return p


def build(name: str, seed: int):
    return NormSweep(seed) if name == NORM_SWEEP else Suite(seed)


def score(passes: list, expected_keys: list) -> tuple[int, int, list]:
    """(attempted, failed, problems) over all passes of the run."""
    attempted = failed = 0
    problems = []
    prev = None
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {e}" for e in p.errors]
        for key in dict.fromkeys(list(expected_keys) + list(p.ops)):
            attempted += 1
            ok, payload = p.ops.get(key, (False, None))
            if key not in p.ops and not p.errors:
                problems.append(f"pass {i}: {key}: missing")
            elif key not in expected_keys:
                ok = False
                problems.append(f"pass {i}: {key}: unexpected operation")
            if ok and prev is not None and key in prev.ops and prev.ops[key][0] \
                    and prev.ops[key][1] != payload:
                ok = False
                problems.append(f"pass {i}: {key}: bytes differ from pass {i - 1}")
            failed += not ok
        prev = p
    return attempted, failed, problems


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "commit": _git_commit(),
            "threads": {k: os.environ.get(k) for k in sorted(os.environ)
                        if k.endswith("_NUM_THREADS") or k.endswith("_MAX_THREADS")
                        or k == "VECLIB_MAXIMUM_THREADS"}}


def compare_reference(name: str, seed: int, last: Pass) -> None:
    """Print the report sha1 and constants against the stored seed reference."""
    print(f"# report sha1={last.sha1}")
    print(f"# constants {json.dumps(last.constants, sort_keys=True)}")
    refs = json.loads((HERE / "reference.json").read_text())
    ref = refs.get(name, {}).get(str(seed))
    if ref is None:
        print(f"# reference: none stored for seed {seed}")
        return
    same = "identical" if ref["sha1"] == last.sha1 else "DIFFERS"
    worst, where = 0.0, None
    for key, want in ref["constants"].items():
        got = last.constants.get(key)
        if want is None or got is None:
            change = 0.0 if want is got else math.inf
        else:
            change = abs(got - want) / max(abs(want), 1e-6)
        if change > worst or where is None:
            worst, where = change, key
    print(f"# reference seed {seed}: sha1 {same}; constants max relative change "
          f"{worst:.3e} (at {where}; denominators floored at 1e-6)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t_setup = perf_counter()
    import orliczforms
    if not Path(orliczforms.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"orliczforms imported from {orliczforms.__file__}, "
                         f"not from {ROOT / 'src'}")
    workload = build(args.workload, args.seed)
    setup_s = perf_counter() - t_setup
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")

    passes = []
    tracer = None
    if args.trace:
        passes += [workload.run(), workload.run()]  # warm-up, untraced reference
        tracer = Tracer()
        tracer.install()
        passes.append(workload.run())
    else:
        t_begin = perf_counter()
        while len(passes) < 2 or perf_counter() - t_begin < args.seconds:
            passes.append(workload.run())

    attempted, failed, problems = score(passes, workload.expected_keys)
    times = [p.seconds for p in passes]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} pass_s={[round(t, 4) for t in times]}")
    compare_reference(args.workload, args.seed, passes[-1])

    if tracer is None:
        metrics = {"run_s": (statistics.median(times), "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                   / 1024.0, "MB")}
    else:
        untraced, traced = times[1:]
        coverage = tracer.coverage(traced)
        layer = tracer.metrics()
        missing = [n for n in EXPECTED_LAYERS[args.workload]
                   if tracer.stats[n].calls == 0]
        missing += [n for n in workload.expected_spans if not layer[n] > 0]
        if missing:
            problems.append(f"self-test: no calls recorded for {missing}")
        if not coverage >= MIN_COVERAGE:
            problems.append(f"coverage: named layers hold {coverage:.3f} of the "
                            f"traced pass, below {MIN_COVERAGE}")
        print(f"# trace: untraced pass {untraced:.4f} s, traced pass {traced:.4f} s, "
              f"bookkeeping {tracer.bookkeeping_s:.4f} s, coverage {coverage:.4f}")
        units = {"self_s": "s", "s1_s": "s", "s2_s": "s", "admission_s": "s",
                 "ops": "flop-computed", "bytes": "B-computed",
                 "unique_ratio": "ratio"}
        metrics = {k: (v, units.get(k.rsplit(".", 1)[1], "count"))
                   for k, v in layer.items()}
        metrics["trace.run_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.coverage"] = (coverage, "ratio")

    for msg in problems:
        print(f"# FAIL {msg}")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if not args.trace:
        result["setup_sample_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
