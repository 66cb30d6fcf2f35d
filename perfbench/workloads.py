"""The four workloads: seeded inputs, the CLI calls of one operation, checks.

Each workload makes operation ``i`` of a run from ``(seed, i)`` alone,
so every run replays the same input sequence from its start and no two
operations of a run share an input.  An operation is a fixed list of
``garnetspin`` argv lists; the runner times them and then hands their
captured stdout to ``check``, which returns a list of problems (empty
when the outputs are right).  Checks compare with ``reference`` or with
a property the method must have, never with stored program output.
"""

from __future__ import annotations

import ast
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

B_MAX_T = 0.1                # bundled grid.b_max
GRAD_TOL = 1e-3             # documented angular-gradient tolerance, MHz/deg
SHB_SAMPLES = 20000          # trace samples per shb-peaks operation
SHB_ROUND = 4                # base field directions, one per operation of a round
SHB_B_T = 0.09
SHB_LINEWIDTH = 0.5          # MHz FWHM
SHB_NOISE = 0.003
SHB_WINDOW = 5
SHB_PROMINENCE = 0.1
FIT_NOISE = 0.005            # relative, clipped at 3 sigma
FIT_ANGLE_STEP = 0.5
FIT_FIELD_T = 0.1


@dataclass
class Operation:
    argvs: list
    expect: dict = field(default_factory=dict)


def _rng(seed: int, workload: str, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload)), i])


def _jittered(rng, rel: float, levels=("ground", "excited")) -> dict:
    params = {k: dict(v) for k, v in ref.BUNDLED.items()}
    for level in levels:
        g = np.asarray(params[level]["g"])
        params[level]["g"] = tuple(g * (1.0 + rng.uniform(-rel, rel, 3)))
    return params


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _data_rows(text: str) -> list[list[str]]:
    """Comma rows of a CLI table, without comments and the header line."""
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


# -- clock-scan ---------------------------------------------------------------

def clock_scan_op(seed: int, i: int, work: str) -> Operation:
    rng = _rng(seed, "clock-scan", i)
    params = _jittered(rng, 0.01)
    cfg = _write(os.path.join(work, "clock.cfg"), ref.config_text(params, {"convention": "si-table"}))
    return Operation(
        [["--config", cfg, "scan-clock", "--splitting-model", "sqrt"]], {"params": params}
    )


def _box(theta, phi, half=0.005):
    """Directions covering the printed-rounding box around (theta, phi)."""
    d = (-half, 0.0, half)
    return ref.unit(np.array([theta + a for a in d for _ in d]), np.array([phi + b for _ in d for b in d]))


def clock_scan_check(op: Operation, outs: list[str]) -> list[str]:
    params = op.expect["params"]
    rows = _data_rows(outs[0])
    sites = {s: ref.Site(s, params) for s in ref.SITE_AXES}
    problems = []
    listed = {}
    for r in rows:
        site, b_mt, th, ph = int(r[0]), float(r[1]), float(r[2]), float(r[3])
        branch, curv = (float(r[4]), float(r[5])), float(r[6])
        s = sites[site]
        box = _box(th, ph)
        b_ref = s.b_star(box, branch) * 1e3
        c_ref = s.curvature(box)
        where = f"site {site} branch {branch} ({th}, {ph})"
        if not 0.0 < b_mt <= B_MAX_T * 1e3 + 5e-4:
            problems.append(f"{where}: B {b_mt} mT outside (0, b_max]")
        if not b_ref.min() - 5e-4 - 1e-9 <= b_mt <= b_ref.max() + 5e-4 + 1e-9:
            problems.append(f"{where}: B {b_mt} mT vs closed-form B* {b_ref[4]:.4f} mT")
        if not c_ref.min() - 5e-3 - 1e-9 <= curv <= c_ref.max() + 5e-3 + 1e-9:
            problems.append(f"{where}: curvature {curv} vs 2q {c_ref[4]:.4f} Hz/G^2")
        grads = [s.shift_gradient(b * 1e-3, u, branch) for u in box for b in (b_mt - 5e-4, b_mt, b_mt + 5e-4)]
        g0 = s.shift_gradient(b_mt * 1e-3, box[4], branch)
        if g0 > GRAD_TOL + max(abs(g - g0) for g in grads):
            problems.append(f"{where}: angular gradient {g0:.3g} MHz/deg above {GRAD_TOL}")
        listed.setdefault((site, branch), []).append((box[4], b_mt))
    for site, s in sites.items():
        for u, _ in s.axes():
            for branch in ref.BRANCHES:
                b_star = float(s.b_star(u, branch))
                if not 0.0 < b_star <= B_MAX_T:
                    continue
                hit = any(
                    math.degrees(math.acos(min(1.0, float(v @ u)))) <= 0.02
                    and abs(b - b_star * 1e3) <= 6e-4
                    for v, b in listed.get((site, branch), [])
                )
                if not hit:
                    th, ph = ref.angles(u)
                    problems.append(
                        f"site {site} branch {branch}: local-axis clock point at "
                        f"({th:.2f}, {ph:.2f}), B* {b_star * 1e3:.3f} mT not listed"
                    )
    return problems


# -- fit-assign ---------------------------------------------------------------

def fit_assign_op(seed: int, i: int, work: str) -> Operation:
    rng = _rng(seed, "fit-assign", i)
    params = _jittered(rng, 0.03)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    cfg = ref.config_text(params, {
        "convention": "si-table",
        "scan.optical_axis": axis,
        "scan.field_magnitude": FIT_FIELD_T,
        "scan.angle_start": 0.0,
        "scan.angle_stop": 180.0,
        "scan.angle_step": FIT_ANGLE_STEP,
    })
    cfg = _write(os.path.join(work, "fit.cfg"), cfg)
    angles = np.arange(0.0, 180.0, FIT_ANGLE_STEP)
    fields = ref.scan_field(axis, FIT_FIELD_T, angles)
    gg, ge = (np.asarray(params[level]["g"]) for level in ("ground", "excited"))
    argvs, tolerance = [], []
    for mode, kind in (("ground", "ground_splitting"), ("difference", "difference_splitting")):
        lines = ["angle_deg,frequency_MHz,kind,site"]
        clean, jac = [], []
        for site in ref.SITE_AXES:
            p = (fields @ ref.frame(site).T) ** 2
            dg = np.sqrt(p @ gg ** 2)
            if mode == "ground":
                f, j = dg, gg * p / dg[:, None]
            else:
                de = np.sqrt(p @ ge ** 2)
                f, j = np.abs(dg - de), np.sign(dg - de)[:, None] * -ge * p / de[:, None]
            clean.append(f)
            jac.append(j)
            f = f * (1.0 + np.clip(rng.normal(0.0, FIT_NOISE, f.size), -3 * FIT_NOISE, 3 * FIT_NOISE))
            lines += [f"{a!r},{v!r},{kind},0" for a, v in zip(angles.tolist(), f.tolist())]
        # six standard errors of an unweighted least-squares fit with this noise
        j, sigma = np.vstack(jac), FIT_NOISE * np.concatenate(clean)
        inv = np.linalg.inv(j.T @ j)
        cov = inv @ (j.T * sigma ** 2) @ j @ inv
        tolerance.append(6.0 * np.sqrt(np.diag(cov)))
        data = _write(os.path.join(work, f"{mode}.csv"), "\n".join(lines) + "\n")
        out = os.path.join(work, f"{mode}.fit")
        argvs.append(["--config", cfg, "fit", "--data", data, "--mode", mode, "--out", out])
    return Operation(argvs, {"params": params, "axis": axis, "points": 6 * angles.size, "tolerance": tolerance})


def fit_assign_check(op: Operation, outs: list[str]) -> list[str]:
    params, axis, n = op.expect["params"], op.expect["axis"], op.expect["points"]
    problems = []
    for argv, text, level, tol in zip(op.argvs, outs, ("ground", "excited"), op.expect["tolerance"]):
        mode = argv[argv.index("--mode") + 1]
        diag = {}
        for line in text.splitlines():
            if line.startswith("# assigned"):
                words = line.split()
                diag["assigned"], diag["excluded"] = int(words[2]), int(words[5])
            elif " = " in line:
                key, value = line.split(" = ", 1)
                diag[key] = value
        if diag.get("assigned") != n or diag.get("excluded") != 0:
            problems.append(f"{mode}: assigned/excluded {diag.get('assigned')}/{diag.get('excluded')} of {n}")
        if diag.get("converged") != "True":
            problems.append(f"{mode}: fit did not converge")
        if "g_values_MHz_per_T" not in diag:
            problems.append(f"{mode}: no g values printed")
            continue
        got = np.array(ast.literal_eval(diag["g_values_MHz_per_T"]))
        want = np.abs(params[level]["g"])
        if np.any(np.abs(got - want) > tol):
            problems.append(f"{mode}: |g| {np.round(got, 3)} vs generating {np.round(want, 3)}")
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            rows = np.array([[float(c) for c in r] for r in _data_rows(fh.read())])
        fields = ref.scan_field(axis, FIT_FIELD_T, rows[:, 0])
        pred = np.empty(len(rows))
        for site in ref.SITE_AXES:
            sel = rows[:, 2] == site
            pred[sel] = ref.scan_splitting(params["ground"]["g"], site, fields[sel])
            if mode == "difference":
                pred[sel] = np.abs(pred[sel] - ref.scan_splitting(params["excited"]["g"], site, fields[sel]))
        bad = np.abs(pred - rows[:, 1]) > 3.2 * FIT_NOISE * rows[:, 1]
        if bad.any():
            problems.append(f"{mode}: {int(bad.sum())} assigned sites miss their points beyond the noise")
    return problems


# -- shb-peaks ----------------------------------------------------------------

def _shb_grid(features):
    span = max(abs(f[0]) for f in features) + 5.0 * SHB_LINEWIDTH
    step = 2.0 * span / (SHB_SAMPLES - 1)
    return span, step


def _cubic_operations() -> np.ndarray:
    """The 48 signed permutation matrices; they map the six site frames onto each other."""
    perms = [np.eye(3)[list(p)] for p in itertools.permutations(range(3))]
    return np.array([np.diag(s) @ p for p in perms for s in itertools.product((1.0, -1.0), repeat=3)])


def _base_directions(n: int) -> np.ndarray:
    """n golden-spiral sphere points folded into the cubic wedge x >= y >= z >= 0."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    r = np.sqrt(1.0 - z ** 2)
    a = math.pi * (1.0 + math.sqrt(5.0)) * k
    pts = np.stack([r * np.cos(a), r * np.sin(a), z], axis=1)
    return -np.sort(-np.abs(pts), axis=1)


CUBIC = _cubic_operations()
SHB_DIRECTIONS = _base_directions(SHB_ROUND)


def shb_peaks_op(seed: int, i: int, work: str) -> Operation:
    """Operation i uses base direction i mod SHB_ROUND, so every round of
    SHB_ROUND operations covers the same spread of feature layouts; the
    seed picks a cubic symmetry operation (which leaves the offsets
    unchanged), a jitter of about 2 degrees and the noise."""
    rng = _rng(seed, "shb-peaks", i)
    axis = CUBIC[rng.integers(len(CUBIC))] @ SHB_DIRECTIONS[i % SHB_ROUND]
    axis = axis + rng.normal(0.0, 0.02, 3)
    axis /= np.linalg.norm(axis)
    features = ref.hole_features(ref.BUNDLED, SHB_B_T * axis)
    span, step = _shb_grid(features)
    trace = os.path.join(work, "shb.txt")
    synth = [
        "--seed", str(int(rng.integers(2 ** 31))), "synth", "--kind", "shb",
        "--b-mag", repr(SHB_B_T), "--axis=" + ",".join(repr(float(v)) for v in axis),
        "--linewidth", repr(SHB_LINEWIDTH), "--step", repr(float(step)),
        "--noise", repr(SHB_NOISE), "--out", trace,
    ]
    peaks = ["find-peaks", "--data", trace, "--window", str(SHB_WINDOW),
             "--prominence", repr(SHB_PROMINENCE)]
    return Operation([synth, peaks], {"features": features, "span": span, "step": step})


def _top_region(y, i, slack):
    """Bounds [lo, hi] of the run of samples around i that lie within slack of y[i]."""
    low = np.nonzero(y <= y[i] - slack)[0]
    left, right = low[low < i], low[low > i]
    return (left[-1] + 1 if left.size else 0), (right[0] - 1 if right.size else y.size - 1)


def _robust_prominence(y, i, lo, hi, slack):
    """Prominence of the maximum i when every sample may move by up to slack/2.

    Walks out of the top region [lo, hi] to the next sample within slack
    of y[i], a rival that noise may lift above the peak, and takes the
    lower of the two flanks' highest minima, as the program's walk does.
    """
    rivals = np.nonzero(y > y[i] - slack)[0]
    left, right = rivals[rivals < lo], rivals[rivals > hi]
    a = left[-1] + 1 if left.size else 0
    b = right[0] if right.size else y.size
    return y[i] - max(y[a:i + 1].min(), y[i:b].min())


def shb_peaks_check(op: Operation, outs: list[str]) -> list[str]:
    """Peaks against the noiseless smoothed reference trace.

    ``slack`` is twice the bound (6 sigma) on the smoothed noise.  A
    maximum whose robust prominence clears the threshold by ``slack`` is
    then always reported inside its top region, and a reported peak
    always lies within the top region of some reference maximum.
    """
    features, span, step = op.expect["features"], op.expect["span"], op.expect["step"]
    if f"wrote {SHB_SAMPLES} samples" not in outs[0]:
        return [f"synth: expected {SHB_SAMPLES} samples, got {outs[0].strip()!r}"]
    peaks = np.array([[float(c) for c in r] for r in _data_rows(outs[1])]).reshape(-1, 2)
    x = -span + step * np.arange(SHB_SAMPLES)
    y = ref.lorentzian_trace(features, x, SHB_LINEWIDTH)
    y = np.convolve(np.pad(y, SHB_WINDOW // 2, mode="edge"), np.ones(SHB_WINDOW) / SHB_WINDOW, "valid")
    slack = 12 * SHB_NOISE / math.sqrt(SHB_WINDOW)
    maxima = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1
    regions = [_top_region(y, m, slack) for m in maxima]
    problems = []
    for off, amp, _ in features:
        near = [k for k, m in enumerate(maxima) if abs(x[m] - off) <= 0.1 * SHB_LINEWIDTH]
        if amp <= 0 or not near:
            continue
        k = max(near, key=lambda k: y[maxima[k]])
        lo, hi = regions[k]
        resolvable = (
            x[hi] - x[lo] <= 0.5 * SHB_LINEWIDTH
            and _robust_prominence(y, maxima[k], lo, hi, slack) >= SHB_PROMINENCE + slack
        )
        if resolvable and not np.any(np.abs(peaks[:, 0] - off) <= 0.25 * SHB_LINEWIDTH):
            problems.append(f"anti-hole at {off:.4f} MHz has no peak within {0.25 * SHB_LINEWIDTH} MHz")
    margin = 0.05 * SHB_LINEWIDTH
    for off, _ in peaks:
        if not any(x[lo] - margin <= off <= x[hi] + margin for lo, hi in regions):
            problems.append(f"peak at {off:.4f} MHz lies away from every computed maximum")
    return problems


# -- maps ---------------------------------------------------------------------

def maps_op(seed: int, i: int, work: str) -> Operation:
    rng = _rng(seed, "maps", i)
    params = _jittered(rng, 0.01)
    b_mag = float(rng.uniform(0.05, 0.5))
    cfg = _write(os.path.join(work, "maps.cfg"), ref.config_text(params, {"convention": "si-table"}))
    sites = ",".join(map(str, ref.SITE_AXES))
    base = os.path.join(work, "map")
    return Operation(
        [
            ["--config", cfg, "broadening-map", "--site", sites, "--b-mag", repr(b_mag), "--out", base + ".broad"],
            ["--config", cfg, "branching-map", "--site", sites, "--out", base + ".branch"],
        ],
        {"params": params, "b_mag": b_mag, "base": base},
    )


def _sampled_surface(path: str, stride: int = 97):
    with open(path, encoding="utf-8") as fh:
        rows = _data_rows(fh.read())
    sample = np.array([[float(c) for c in r] for r in rows[::stride]])
    return len(rows), sample


def maps_check(op: Operation, outs: list[str]) -> list[str]:
    params, b_mag, base = op.expect["params"], op.expect["b_mag"], op.expect["base"]
    thetas, phis = ref.grid(1.0)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    mesh = ref.unit(tg, pg)
    problems = []
    extrema = {}
    site = None
    for line in outs[0].splitlines():
        if line.startswith("# site"):
            site = int(line.split()[2].rstrip(":"))
            extrema[site] = []
        elif line.startswith("#   "):
            words = line.replace("(", " ").replace(")", " ").replace(",", " ").split()
            extrema[site].append((float(words[3]), float(words[4]), float(words[7])))
    ratios = {}
    for line in outs[1].splitlines():
        words = line.split()
        if line.startswith("site"):
            ratios[int(words[1].rstrip(":"))] = float(words[4])
    for sid in ref.SITE_AXES:
        s = ref.Site(sid, params)
        listed = [(ref.unit(th, ph), v) for th, ph, v in extrema.get(sid, [])]
        for u, a in s.axes():
            want = math.sqrt(s.gg2[a]) * b_mag
            if not any(float(v @ u) >= math.cos(math.radians(0.08)) and abs(val - want) <= 5e-5 + 1e-9 * want
                       for v, val in listed):
                th, ph = ref.angles(u)
                problems.append(f"broadening site {sid}: local axis ({th:.1f}, {ph:.1f}) "
                                f"with splitting {want:.4f} MHz not listed")
        ratio_max = float(s.branching_ratio(mesh).max())
        if abs(ratios.get(sid, math.nan) - ratio_max) > 5e-5 + 1e-9:
            problems.append(f"branching site {sid}: max {ratios.get(sid)} vs reference {ratio_max:.6f}")
        for kind, fn, tol in (
            ("broad", lambda u: s.slopes(u)[0] * b_mag, 1e-8),
            ("branch", s.branching_ratio, 1e-6),
        ):
            count, rows = _sampled_surface(f"{base}.{kind}.site{sid}")
            want = fn(ref.unit(rows[:, 0], rows[:, 1]))
            if count != tg.size:
                problems.append(f"{kind} site {sid}: {count} rows, expected {tg.size}")
            elif np.any(np.abs(rows[:, 2] - want) > tol * np.abs(want) + 1e-12):
                problems.append(f"{kind} site {sid}: surface rows differ from the closed form")
    return problems


# name -> (make operation i, check its outputs, operations per round)
WORKLOADS = {
    "clock-scan": (clock_scan_op, clock_scan_check, 1),
    "fit-assign": (fit_assign_op, fit_assign_check, 1),
    "shb-peaks": (shb_peaks_op, shb_peaks_check, SHB_ROUND),
    "maps": (maps_op, maps_check, 1),
}
