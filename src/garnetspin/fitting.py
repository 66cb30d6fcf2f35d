"""Least-squares recovery of effective g tensors from rotation scans.

The measured observable is the doublet splitting (or the difference of
ground and excited splittings) as a fixed-magnitude field rotates in a
plane.  Writing G_a = g_a^2 and P_a = b_a^2 for the squared local field
projections, the ground model is

    model(angle; G) = sqrt(G_x P_x + G_y P_y + G_z P_z)

which is linear in G under the square root; optimizing over G rather
than g enforces magnitude-only semantics (signs are not observable).
The solver is a damped Gauss-Newton (Levenberg-Marquardt) iteration
with the analytic Jacobian dmodel/dG_a = P_a / (2 model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import RotationScan, field_at_angle, project_onto_site, site_frame
from .hamiltonian import EffectiveGTensor

GROUND_SPLITTING = "ground_splitting"
DIFFERENCE_SPLITTING = "difference_splitting"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class FitError(ValueError):
    """Ill-posed fit input (too few orientations, degenerate data)."""


@dataclass(frozen=True)
class Resonance:
    """One measured resonance point of a rotation scan."""

    scan_angle: float
    frequency: float
    kind: str = GROUND_SPLITTING
    site_assignment: int | None = None
    weight: float = 1.0

    def __post_init__(self):
        if self.frequency <= 0:
            raise FitError("resonance frequency must be positive")
        if self.kind not in (GROUND_SPLITTING, DIFFERENCE_SPLITTING):
            raise FitError(f"unknown resonance kind {self.kind!r}")
        if self.weight < 0:
            raise FitError("weight must be >= 0")


@dataclass(frozen=True)
class FitProblem:
    """Immutable description of one tensor fit."""

    resonances: tuple[Resonance, ...]
    scan: RotationScan
    convention: str = "si-table"
    fixed_ground: EffectiveGTensor | None = None
    initial_guess: tuple[float, float, float] | None = None

    def kind(self) -> str:
        kinds = {r.kind for r in self.resonances}
        if len(kinds) != 1:
            raise FitError("all resonances in one problem must share a kind")
        return kinds.pop()


@dataclass(frozen=True)
class FitResult:
    """Solver output: tensor magnitudes plus quality diagnostics."""

    g_values: EffectiveGTensor
    uncertainties: np.ndarray
    r_squared: float
    residuals: np.ndarray
    iterations: int
    converged: bool
    excited_g: EffectiveGTensor | None = None
    underdetermined_axes: tuple[str, ...] = ()


def projection_rows(problem: FitProblem) -> np.ndarray:
    """Squared local field projections, one row of (P_x, P_y, P_z) per point."""
    rows = np.empty((len(problem.resonances), 3))
    for i, r in enumerate(problem.resonances):
        if r.site_assignment is None:
            raise FitError("every resonance needs a site assignment before solving")
        b = field_at_angle(problem.scan, r.scan_angle)
        local = project_onto_site(b, site_frame(r.site_assignment), problem.convention)
        rows[i] = local.as_array() ** 2
    return rows


def _check_orientations(problem: FitProblem):
    angles = {round(r.scan_angle, 9) for r in problem.resonances}
    if len(angles) < 3:
        raise FitError("need at least 3 independent scan orientations")


def _ground_model(gsq: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(p @ gsq, 0.0))


def _ground_jacobian(gsq: np.ndarray, p: np.ndarray) -> np.ndarray:
    delta = _ground_model(gsq, p)
    safe = np.where(delta > 0, delta, 1.0)
    return p / (2.0 * safe[:, None])


def levenberg_marquardt(model_fn, jac_fn, y, w, x0, max_iter=200):
    """Generic damped Gauss-Newton minimizer over nonnegative parameters.

    Returns (x, iterations, converged).  Convergence when the gradient
    norm drops below 1e-8 * (1 + cost); the objective never increases
    across accepted steps.
    """
    x = np.array(x0, dtype=float)
    sw = np.sqrt(w)
    lam = 1e-3
    res = sw * (y - model_fn(x))
    cost = float(res @ res)
    for it in range(1, max_iter + 1):
        jac = sw[:, None] * jac_fn(x)
        grad = jac.T @ res
        if np.linalg.norm(grad) < 1e-8 * (1.0 + cost):
            return x, it, True
        jtj = jac.T @ jac
        stepped = False
        for _ in range(50):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(jtj + lam * np.eye(len(x)), grad, rcond=None)[0]
            x_new = np.maximum(x + step, 0.0)
            res_new = sw * (y - model_fn(x_new))
            cost_new = float(res_new @ res_new)
            if cost_new <= cost:
                x, res, cost = x_new, res_new, cost_new
                lam = max(lam / 10.0, 1e-12)
                stepped = True
                break
            lam *= 10.0
        if not stepped:
            return x, it, False
    return x, max_iter, False


def _finish(problem, gsq, model_fn, jac_fn, iterations, converged, split=False):
    y = np.array([r.frequency for r in problem.resonances])
    w = np.array([r.weight for r in problem.resonances])
    residuals = y - model_fn(gsq)
    jac = np.sqrt(w)[:, None] * jac_fn(gsq)
    n, k = jac.shape
    # linearized covariance in the squared parameters, then propagated to
    # g = sqrt(G) via dg = dG / (2g)
    dof = max(n - k, 1)
    variance = float((np.sqrt(w) * residuals) @ (np.sqrt(w) * residuals)) / dof
    jtj = jac.T @ jac
    under = []
    labels = ("g_x", "g_y", "g_z", "e_x", "e_y", "e_z")
    try:
        cov = variance * np.linalg.inv(jtj)
        sigma_sq = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        sigma_sq = np.full(k, np.inf)
    scale = np.linalg.norm(jtj) if np.linalg.norm(jtj) > 0 else 1.0
    for i in range(k):
        if jtj[i, i] < 1e-12 * scale:
            sigma_sq[i] = np.inf
            under.append(labels[i])
    g = np.sqrt(gsq)
    sigma_g = np.where(g > 0, sigma_sq / (2.0 * np.where(g > 0, g, 1.0)), np.inf)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - float(residuals @ residuals) / ss_tot if ss_tot > 0 else 1.0
    if split:
        return FitResult(
            EffectiveGTensor(*g[:3]),
            sigma_g,
            r_squared,
            residuals,
            iterations,
            converged,
            excited_g=EffectiveGTensor(*g[3:]),
            underdetermined_axes=tuple(under),
        )
    return FitResult(
        EffectiveGTensor(*g),
        sigma_g[:3],
        r_squared,
        residuals,
        iterations,
        converged,
        underdetermined_axes=tuple(under),
    )


def fit_ground_tensor(problem: FitProblem) -> FitResult:
    """Fit (|g_x|, |g_y|, |g_z|) to ground-splitting resonances."""
    if problem.kind() != GROUND_SPLITTING:
        raise FitError("fit_ground_tensor requires ground_splitting data")
    _check_orientations(problem)
    p = projection_rows(problem)
    y = np.array([r.frequency for r in problem.resonances])
    w = np.array([r.weight for r in problem.resonances])
    guess = problem.initial_guess or (50.0, 100.0, 50.0)
    x0 = np.array(guess, dtype=float) ** 2
    model = lambda gsq: _ground_model(gsq, p)
    jac = lambda gsq: _ground_jacobian(gsq, p)
    gsq, iterations, converged = levenberg_marquardt(model, jac, y, w, x0)
    return _finish(problem, gsq, model, jac, iterations, converged)


def fit_difference_tensor(problem: FitProblem) -> FitResult:
    """Fit the excited tensor (or both) to |ground - excited| splittings."""
    if problem.kind() != DIFFERENCE_SPLITTING:
        raise FitError("fit_difference_tensor requires difference_splitting data")
    _check_orientations(problem)
    p = projection_rows(problem)
    y = np.array([r.frequency for r in problem.resonances])
    w = np.array([r.weight for r in problem.resonances])
    if float(np.max(np.abs(y))) < 1e-9:
        raise FitError("difference data is zero at all angles: underdetermined")

    if problem.fixed_ground is not None:
        ground_sq = problem.fixed_ground.magnitudes() ** 2
        ground_delta = _ground_model(ground_sq, p)
        guess = problem.initial_guess or tuple(problem.fixed_ground.magnitudes() / 2.0)
        x0 = np.array(guess, dtype=float) ** 2

        def model(esq):
            return np.abs(ground_delta - _ground_model(esq, p))

        def jac(esq):
            sign = np.sign(ground_delta - _ground_model(esq, p))
            sign = np.where(sign == 0, 1.0, sign)
            return -sign[:, None] * _ground_jacobian(esq, p)

        esq, iterations, converged = levenberg_marquardt(model, jac, y, w, x0)
        return _finish(problem, esq, model, jac, iterations, converged)

    guess = problem.initial_guess or (50.0, 100.0, 50.0)
    g0 = np.array(guess, dtype=float)
    x0 = np.concatenate([g0, g0 / 2.0]) ** 2

    def model6(x):
        return np.abs(_ground_model(x[:3], p) - _ground_model(x[3:], p))

    def jac6(x):
        sign = np.sign(_ground_model(x[:3], p) - _ground_model(x[3:], p))
        sign = np.where(sign == 0, 1.0, sign)
        return np.hstack(
            [sign[:, None] * _ground_jacobian(x[:3], p), -sign[:, None] * _ground_jacobian(x[3:], p)]
        )

    x, iterations, converged = levenberg_marquardt(model6, jac6, y, w, x0)
    return _finish(problem, x, model6, jac6, iterations, converged, split=True)


def predicted_splitting(g: EffectiveGTensor, scan, angle, site_id, convention):
    b = field_at_angle(scan, angle)
    local = project_onto_site(b, site_frame(site_id), convention)
    return math.sqrt(float((g.magnitudes() ** 2) @ (local.as_array() ** 2)))


def assign_sites(
    resonances,
    scan: RotationScan,
    g: EffectiveGTensor,
    convention: str = "si-table",
    reject_fraction: float = 0.2,
    excited: EffectiveGTensor | None = None,
):
    """Assign each resonance to the site predicting it best.

    Returns (assigned, report) where ``assigned`` keeps only resonances
    whose best prediction lies within ``reject_fraction`` of itself;
    ties go to the lowest site id.  The report lists every decision for
    manual review.
    """
    assigned = []
    report = []
    for r in resonances:
        best_site, best_err, best_pred = None, math.inf, None
        for sid in range(1, 7):
            pred = predicted_splitting(g, scan, r.scan_angle, sid, convention)
            if r.kind == DIFFERENCE_SPLITTING and excited is not None:
                pred = abs(
                    pred - predicted_splitting(excited, scan, r.scan_angle, sid, convention)
                )
            err = abs(pred - r.frequency)
            if err < best_err - 1e-12:
                best_site, best_err, best_pred = sid, err, pred
        accept = best_pred is not None and best_err <= reject_fraction * max(abs(best_pred), 1e-12)
        report.append(
            {
                "angle_deg": r.scan_angle,
                "frequency_MHz": r.frequency,
                "site": best_site if accept else None,
                "predicted_MHz": best_pred,
                "residual_MHz": best_err,
                "accepted": accept,
            }
        )
        if accept:
            assigned.append(replace(r, site_assignment=best_site))
    return assigned, report


def filter_host_spins(resonances, scan: RotationScan, low=9.0, high=11.0, flatness=0.05):
    """Drop angle-independent resonances with 9-11 MHz/T per-tesla slope.

    Host nuclear spins split linearly with |B| but ignore the rotation
    angle; any group of points whose implied slope sits in [low, high]
    MHz/T and varies by less than ``flatness`` across the scan is
    removed.  Returns (kept, removed).
    """
    slopes = np.array([r.frequency / scan.field_magnitude for r in resonances])
    in_band = (slopes >= low) & (slopes <= high)
    kept, removed = [], []
    if in_band.sum() >= 2:
        band = slopes[in_band]
        flat = (band.max() - band.min()) <= flatness * band.mean()
    else:
        flat = False
    for r, hit in zip(resonances, in_band):
        (removed if (hit and flat) else kept).append(r)
    return kept, removed


def golden_section_array(fn, lo, hi, tol):
    """Minimize a batch of unimodal scalar functions, function i on [lo[i], hi[i]].

    ``fn(x, idx)`` returns the values of the functions numbered ``idx`` at
    the points ``x``.  Each bracket shrinks until its own width is at most
    ``tol`` and is then left alone, so function i is evaluated at exactly
    the points a search of it alone would visit.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    every = np.arange(a.size)
    fc, fd = fn(c, every), fn(d, every)
    active = every[(b - a) > tol]
    while active.size:
        left = fc[active] < fd[active]
        lt, rt = active[left], active[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - _GOLDEN * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + _GOLDEN * (b[rt] - a[rt])
        f = fn(np.where(left, c[active], d[active]), active)
        fc[lt], fd[rt] = f[left], f[~left]
        active = active[(b[active] - a[active]) > tol]
    return 0.5 * (a + b)


def golden_section(fn, lo, hi, tol=1e-4):
    """Minimize a unimodal scalar function on [lo, hi]."""

    def values(x, _):
        return np.array([fn(float(v)) for v in x])

    return float(golden_section_array(values, [lo], [hi], tol)[0])


def fit_angular_offset(problem: FitProblem, g: EffectiveGTensor, half_range=10.0) -> float:
    """Global scan-angle misalignment minimizing the squared residual."""

    def cost(offset):
        scan = replace(problem.scan, angular_offset=problem.scan.angular_offset + offset)
        total = 0.0
        for r in problem.resonances:
            pred = predicted_splitting(g, scan, r.scan_angle, r.site_assignment, problem.convention)
            total += r.weight * (r.frequency - pred) ** 2
        return total

    return golden_section(cost, -half_range, half_range, tol=1e-5)


def fit_diagnostics(result: FitResult, problem: FitProblem) -> dict:
    """Plain-dict quality report for one converged fit."""
    y = np.array([r.frequency for r in problem.resonances])
    return {
        "g_values_MHz_per_T": tuple(float(v) for v in result.g_values.magnitudes()),
        "uncertainties_MHz_per_T": tuple(float(v) for v in result.uncertainties),
        "r_squared": result.r_squared,
        "rms_residual_MHz": float(np.sqrt(np.mean(result.residuals ** 2))),
        "max_residual_MHz": float(np.max(np.abs(result.residuals))),
        "n_points": len(y),
        "iterations": result.iterations,
        "converged": result.converged,
        "underdetermined_axes": result.underdetermined_axes,
        "uncertainty_note": "linearized covariance, residual-variance scaled",
    }
