"""Span recorder for the traced benchmark run.

The recorder wraps the package's public functions by module attribute and
records a span (name, job id, parent span, start, end, error flag and a few
attributes) around every call.  A function imported by name into another
module, such as ``evolve_full`` in ``cli`` or ``solve_level_set`` in
``exact``, is wrapped there too, so calls through either name are seen.
Functions called once per point or per iteration are only counted.  Spans
stay in memory and are written out when the run ends.  Nothing under
``src/`` is edited: ``uninstall`` puts every original attribute back.
"""
from __future__ import annotations

import csv
import importlib
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "shearwaves"
LAYERS = ("cli", "simulate", "constitutive", "exact", "profiles", "analysis", "verify",
          "numerics")

# span fields
ID, PARENT, JOB, NAME, START, END, ERROR, ATTRS = range(8)


def _csv_attrs(args, kwargs, out):
    path, _header, columns = args
    return {"rows": int(np.asarray(columns[0]).size), "bytes": Path(path).stat().st_size}


def _json_attrs(args, kwargs, out):
    path = Path(args[0])
    return {"bytes": path.stat().st_size, "manifest": path.name == "manifest.json"}


def _evolve_attrs(args, kwargs, out):
    grid, config = args[1], args[3]
    return {"n": grid.n, "steps": len(out.step_coords), "scheme": config.scheme}


def _points_attrs(args, kwargs, out):
    return {"points": int(np.asarray(out[0]).size)}


# (home module, attribute, span name, span attribute extractor or None)
PLAN = (
    ("cli", "main", "cli.main", None),
    ("cli", "_write_csv", "cli.write_csv", _csv_attrs),
    ("cli", "_write_json", "cli.write_json", _json_attrs),
    ("simulate", "evolve_full", "simulate.evolve_full", _evolve_attrs),
    ("simulate", "evolve_asymptotic", "simulate.evolve_asymptotic", _evolve_attrs),
    ("simulate", "evolve_scalar", "simulate.evolve_scalar", _evolve_attrs),
    ("constitutive", "eval_Q", "constitutive.eval_Q", None),
    ("constitutive", "solve_level_set", "constitutive.solve_level_set", None),
    ("exact", "sample_hodograph", "exact.sample_hodograph", _points_attrs),
    ("exact", "sample_simple_wave", "exact.sample_simple_wave", _points_attrs),
    ("exact", "eval_overdetermined", "exact.eval_overdetermined", _points_attrs),
    ("analysis", "classify", "analysis.classify", None),
    ("analysis", "temple_eigen", "analysis.temple_eigen", None),
    ("verify", "residual_full", "verify.residual", None),
    ("verify", "residual_asymptotic", "verify.residual", None),
    ("verify", "conservation_residual", "verify.residual", None),
    ("verify", "linearized_symmetry_residual", "verify.residual", None),
    ("verify", "commutator_residual", "verify.residual", None),
    ("verify", "convergence_study", "verify.convergence_study", None),
    ("numerics", "rk4_integrate", "numerics.rk4_integrate", None),
)
COUNTED = (
    ("exact", "eval_simple_wave", "exact.eval_simple_wave"),
    ("exact", "hodograph_invert", "exact.hodograph_invert"),
    ("exact", "hodograph_forward", "exact.hodograph_forward"),
    ("exact", "hodograph_jacobian", "exact.hodograph_jacobian"),
)
PROFILE_METHODS = ("__call__", "deriv", "deriv2")


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._saved = []

    def span(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self.job, name, 0.0, 0.0, False, None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, out)
            return out

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _modules(self):
        pkg = importlib.import_module(PACKAGE)
        return [pkg] + [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]

    def _patch(self, modules, home, attr, wrapper_for):
        original = getattr(importlib.import_module(f"{PACKAGE}.{home}"), attr)
        wrapper = wrapper_for(original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every planned function wherever the package binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for home, attr, name, attrs in PLAN:
            self._patch(modules, home, attr, lambda fn, n=name, a=attrs: self.span(n, fn, a))
        for home, attr, name in COUNTED:
            self._patch(modules, home, attr, lambda fn, n=name: self.counter(n, fn))
        profile_cls = importlib.import_module(f"{PACKAGE}.profiles").ProfileFunction
        for attr in PROFILE_METHODS:
            original = profile_cls.__dict__[attr]
            self._saved.append((profile_cls, attr, original))
            setattr(profile_cls, attr, self.counter("profiles.calls", original))

    def uninstall(self):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def write(self, path: Path):
        """Write every recorded span as one CSV row."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "parent", "job", "name", "start", "end", "error", "attrs"])
            for rec in self.spans:
                w.writerow([*rec[:ATTRS], "" if rec[ATTRS] is None else repr(rec[ATTRS])])


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover.

    Children are the spans whose parent is the span; their intervals are
    merged and clipped to the parent before subtracting.
    """
    children = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = {}
    for rec in spans:
        start, end = rec[START], rec[END]
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(rec[ID], ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[rec[ID]] = (end - start) - covered
    return out


def _ancestor(by_id, rec, prefix):
    while rec[PARENT] >= 0:
        rec = by_id[rec[PARENT]]
        if rec[NAME].startswith(prefix):
            return rec
    return None


def layer_metrics(spans, counts, points: int) -> dict:
    """Per-layer metrics of one traced round, from its spans and counts.

    ``points`` is the round's solved-point count (rectangle sizes, classify
    samples and verify levels n^2), the base of profiles.calls_per_point.
    """
    counts = Counter(counts)
    selfs = self_times(spans)
    by_id = {rec[ID]: rec for rec in spans}
    dur = Counter()
    calls = Counter()
    selft = Counter()
    errors = Counter()
    for rec in spans:
        name = rec[NAME]
        dur[name] += rec[END] - rec[START]
        calls[name] += 1
        selft[name] += selfs[rec[ID]]
        layer = name.split(".")[0]
        parent = by_id.get(rec[PARENT])
        if rec[ERROR] and (parent is None or parent[NAME].split(".")[0] != layer):
            errors[layer] += 1

    csv_recs = [r[ATTRS] for r in spans if r[NAME] == "cli.write_csv" and r[ATTRS]]
    csv_rows = sum(a["rows"] for a in csv_recs)
    manifests = [r[ATTRS]["bytes"] for r in spans
                 if r[NAME] == "cli.write_json" and r[ATTRS] and r[ATTRS]["manifest"]]

    evolves = [r for r in spans if r[NAME].startswith("simulate.") and r[ATTRS]]
    steps = sum(r[ATTRS]["steps"] for r in evolves)

    def step_us(keep):
        sel = [r for r in evolves if keep(r[ATTRS]["n"])]
        n_steps = sum(r[ATTRS]["steps"] for r in sel)
        return 1e6 * sum(r[END] - r[START] for r in sel) / n_steps if n_steps else 0.0

    full_muscl = {r[ID] for r in evolves
                  if r[NAME] == "simulate.evolve_full" and r[ATTRS]["scheme"] == "muscl_minmod"}
    full_muscl_steps = sum(by_id[i][ATTRS]["steps"] for i in full_muscl)
    q_in_full_muscl = 0
    for rec in spans:
        if rec[NAME] == "constitutive.eval_Q":
            anc = _ancestor(by_id, rec, "simulate.")
            if anc is not None and anc[ID] in full_muscl:
                q_in_full_muscl += 1

    sampled = [r for r in spans if r[NAME] in ("exact.sample_hodograph", "exact.sample_simple_wave",
                                               "exact.eval_overdetermined") and r[ATTRS]]
    invert = counts["exact.hodograph_invert"]
    newton = counts["exact.hodograph_jacobian"]
    forward = counts["exact.hodograph_forward"]
    trials = forward - invert

    metrics = {
        "cli.self_s": selft["cli.main"],
        "cli.write_csv_s": dur["cli.write_csv"],
        "cli.csv_rows": csv_rows,
        "cli.csv_bytes": sum(a["bytes"] for a in csv_recs),
        "cli.write_csv_us_per_row": 1e6 * dur["cli.write_csv"] / csv_rows if csv_rows else 0.0,
        "cli.write_json_s": dur["cli.write_json"],
        "cli.manifest_bytes": sum(manifests),
        "simulate.evolve_s": sum(r[END] - r[START] for r in spans
                                 if r[NAME].startswith("simulate.")),
        "simulate.steps": steps,
        "simulate.cell_updates": sum(r[ATTRS]["n"] * r[ATTRS]["steps"] for r in evolves),
        "simulate.errors": errors["simulate"],
        "simulate.step_us.le512": step_us(lambda n: n <= 512),
        "constitutive.eval_Q_calls": calls["constitutive.eval_Q"],
        "constitutive.eval_Q_s": dur["constitutive.eval_Q"],
        "constitutive.eval_Q_calls_per_step":
            q_in_full_muscl / full_muscl_steps if full_muscl_steps else 0.0,
        "constitutive.solve_level_set_calls": calls["constitutive.solve_level_set"],
        "constitutive.solve_level_set_s": dur["constitutive.solve_level_set"],
        "exact.sample_hodograph_s": dur["exact.sample_hodograph"],
        "exact.sample_simple_wave_s": dur["exact.sample_simple_wave"],
        "exact.eval_overdetermined_s": dur["exact.eval_overdetermined"],
        "exact.points_solved": sum(r[ATTRS]["points"] for r in sampled),
        "exact.hodograph_invert_calls": invert,
        "exact.newton_iters": newton,
        "exact.forward_evals": forward,
        "exact.newton_accept_ratio": newton / trials if trials > 0 else 0.0,
        "exact.eval_simple_wave_calls": counts["exact.eval_simple_wave"],
        "exact.errors": errors["exact"],
        "profiles.calls": counts["profiles.calls"],
        "profiles.calls_per_point": counts["profiles.calls"] / points if points else 0.0,
        "analysis.classify_s": dur["analysis.classify"],
        "analysis.temple_eigen_calls": calls["analysis.temple_eigen"],
        "analysis.temple_eigen_s": dur["analysis.temple_eigen"],
        "verify.residual_s": dur["verify.residual"],
        "verify.convergence_study_s": selft["verify.convergence_study"],
        "numerics.rk4_calls": calls["numerics.rk4_integrate"],
        "numerics.rk4_s": dur["numerics.rk4_integrate"],
    }
    # only evolve_fine runs grids this large; elsewhere the metric is left out
    if any(r[ATTRS]["n"] >= 4096 for r in evolves):
        metrics["simulate.step_us.ge4096"] = step_us(lambda n: n >= 4096)
    return metrics
