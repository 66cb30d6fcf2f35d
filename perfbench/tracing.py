"""In-memory spans around the program's public functions, and layer metrics.

``Tracer.install`` replaces each traced name in every module namespace
where the program looks it up (``cli`` binds names with ``from .x
import``), and the public ``SiteModel`` methods on the class.  A span is
``[name, start, end, parent, op, info]``; self time is the span's
duration minus the durations of its direct children.  Work the tracer
itself does to count a call's rows or directions is recorded as a
``trace.count`` child of the caller, so no layer's self time includes
it.  Spans stay in memory and are written out by ``dump`` when the run
ends.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np


# span name -> (defining module, attribute, modules that look the name up)
TRACED = {
    "config.load_config": ("config", "load_config", ("cli",)),
    "config.read_resonance_file": ("config", "read_resonance_file", ("cli",)),
    "config.write_table": ("config", "write_table", ("cli", "config")),
    "geometry.project_onto_site": ("geometry", "project_onto_site", ("cli", "fitting", "spectra", "geometry")),
    "search.find_clock_transitions": ("search", "find_clock_transitions", ("cli",)),
    "search.curvature": ("search", "curvature", ("search",)),
    "search.broadening_map": ("search", "broadening_map", ("cli",)),
    "search.branching_map": ("search", "branching_map", ("cli",)),
    "fitting.assign_sites": ("fitting", "assign_sites", ("cli",)),
    "fitting.projection_rows": ("fitting", "projection_rows", ("fitting",)),
    "fitting.levenberg_marquardt": ("fitting", "levenberg_marquardt", ("fitting",)),
    "fitting.fit_ground_tensor": ("fitting", "fit_ground_tensor", ("cli",)),
    "fitting.fit_difference_tensor": ("fitting", "fit_difference_tensor", ("cli",)),
    "fitting.fit_diagnostics": ("fitting", "fit_diagnostics", ("cli",)),
    "spectra.predict_hole_offsets": ("spectra", "predict_hole_offsets", ("cli",)),
    "spectra.synth_shb": ("spectra", "synth_shb", ("cli",)),
    "spectra.find_peaks": ("spectra", "find_peaks", ("cli",)),
}


def _directions(u) -> int:
    return int(np.asarray(u).size // 3)


def _rows_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    comments = args[3] if len(args) > 3 else kwargs.get("comments", ())
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") - len(comments) - 1


# name -> function(args, kwargs, result) giving the span's count
COUNTERS = {
    "config.read_resonance_file": lambda a, k, r: len(r),
    "config.write_table": _rows_written,
    "search.find_clock_transitions": lambda a, k, r: len(r),
    "search.broadening_map": lambda a, k, r: len(r.extrema),
    "fitting.assign_sites": lambda a, k, r: (len(a[0]), len(r[0])),
    "spectra.predict_hole_offsets": lambda a, k, r: len(r),
    "spectra.synth_shb": lambda a, k, r: len(r.offsets),
    "spectra.find_peaks": lambda a, k, r: (len(a[0].offsets), len(r)),
}
# traced public SiteModel methods -> position of the direction argument u (self is 0)
MODEL_METHODS = {"sigma": 1, "quad_coeff": 1, "shift": 2, "shift_db": 2, "splittings_per_tesla": 1}
COUNTERS.update({f"search.SiteModel.{m}": (lambda a, k, r, p=p: _directions(a[p])) for m, p in MODEL_METHODS.items()})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple] = []

    def span(self, name: str, fn, args, kwargs, counter=None):
        parent = self.stack[-1] if self.stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
        counter = counter or COUNTERS.get(name)
        if counter is not None:
            start = time.perf_counter()
            record[5] = counter(args, kwargs, result)
            self.spans.append(["trace.count", start, time.perf_counter(), parent, self.op, None])
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs)
        return traced

    def _lm(self, fn):
        """levenberg_marquardt with its model_fn counted: evaluations, accepted steps.

        A trial evaluation is accepted under the solver's own rule: its
        weighted cost does not exceed the cost of the current point.
        """
        @functools.wraps(fn)
        def traced(model_fn, jac_fn, y, w, x0, *args, **kwargs):
            stats = {"evals": 0, "accepted": 0, "cost": None}

            def counted(x):
                out = model_fn(x)
                cost = float(np.sum(w * (y - out) ** 2))
                if stats["cost"] is None or cost <= stats["cost"]:
                    stats["accepted"] += stats["cost"] is not None
                    stats["cost"] = cost
                stats["evals"] += 1
                return out

            return self.span(
                "fitting.levenberg_marquardt", fn, (counted, jac_fn, y, w, x0, *args), kwargs,
                lambda a, k, r: (r[1], stats["evals"], stats["accepted"]),
            )
        return traced

    def install(self, modules: dict):
        for name, (home, attr, users) in TRACED.items():
            original = getattr(modules[home], attr)
            wrapped = self._lm(original) if name == "fitting.levenberg_marquardt" else self._wrap(name, original)
            for user in users:
                self._saved.append((modules[user], attr, getattr(modules[user], attr)))
                setattr(modules[user], attr, wrapped)
        model = modules["search"].SiteModel
        for method in MODEL_METHODS:
            original = getattr(model, method)
            self._saved.append((model, method, original))
            setattr(model, method, self._wrap(f"search.SiteModel.{method}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path: str, extra: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": self.spans}, fh)


def layer_metrics(spans: list[list], ops: int) -> dict:
    """Per-layer metrics from the spans of ``ops`` traced operations."""
    duration = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += duration[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def total(name):
        return sum(duration[i] for i in ids(name))

    def mean(name):
        n = len(ids(name))
        return total(name) / n if n else 0.0

    def info(name):
        return [spans[i][5] for i in ids(name)]

    def ratio(a, b):
        return a / b if b else 0.0

    model_ids = [i for m in MODEL_METHODS for i in ids(f"search.SiteModel.{m}")
                 if spans[i][3] < 0 or not spans[spans[i][3]][0].startswith("search.SiteModel.")]
    clock = ids("search.find_clock_transitions")
    solutions = sum(info("search.find_clock_transitions"))
    accepted = len(ids("search.curvature"))
    assign = info("fitting.assign_sites")
    points = sum(a for a, _ in assign)
    lm = info("fitting.levenberg_marquardt")
    lm_evals = sum(e for _, e, _ in lm)
    synth_samples = sum(info("spectra.synth_shb"))
    peaks = info("spectra.find_peaks")
    peak_samples = sum(n for n, _ in peaks)
    written = sum(info("config.write_table"))
    return {
        "cli.self_s": sum(duration[i] - child[i] for i in ids("cli.main")) / ops,
        "config.load_config_s": mean("config.load_config"),
        "config.read_s_per_row": ratio(total("config.read_resonance_file"), sum(info("config.read_resonance_file"))),
        "config.write_s_per_row": ratio(total("config.write_table"), written),
        "config.rows_written": written / ops,
        "geometry.project_calls": len(ids("geometry.project_onto_site")) / ops,
        "geometry.project_s": total("geometry.project_onto_site") / ops,
        "search.clock_site_s": mean("search.find_clock_transitions"),
        "search.clock_refine_self_s": ratio(sum(duration[i] - child[i] for i in clock), len(clock)),
        "search.model_eval_s": sum(duration[i] for i in model_ids) / ops,
        "search.model_directions": sum(spans[i][5] for i in model_ids) / ops,
        "search.solutions": ratio(solutions, len(clock)),
        "search.accepted_before_dedup": ratio(accepted, len(clock)),
        "search.dedup_kept_ratio": ratio(solutions, accepted),
        "search.broadening_map_s": mean("search.broadening_map"),
        "search.broadening_extrema": ratio(sum(info("search.broadening_map")), len(ids("search.broadening_map"))),
        "search.branching_map_s": mean("search.branching_map"),
        "fitting.assign_s_per_point": ratio(total("fitting.assign_sites"), points),
        "fitting.assign_accept_ratio": ratio(sum(k for _, k in assign), points),
        "fitting.projection_rows_s": mean("fitting.projection_rows"),
        "fitting.lm_s": mean("fitting.levenberg_marquardt"),
        "fitting.lm_iterations": ratio(sum(it for it, _, _ in lm), len(lm)),
        "fitting.lm_model_evals": ratio(lm_evals, len(lm)),
        "fitting.lm_step_accept_ratio": ratio(sum(a for _, _, a in lm), lm_evals - len(lm)),
        "spectra.predict_offsets_s": mean("spectra.predict_hole_offsets"),
        "spectra.features": ratio(sum(info("spectra.predict_hole_offsets")), len(ids("spectra.predict_hole_offsets"))),
        "spectra.synth_s_per_sample": ratio(total("spectra.synth_shb"), synth_samples),
        "spectra.find_peaks_s_per_sample": ratio(total("spectra.find_peaks"), peak_samples),
        "spectra.peaks_found": ratio(sum(k for _, k in peaks), len(peaks)),
        "spectra.samples": ratio(peak_samples, len(peaks)),
    }
