"""Orientation-space searches: clock transitions, broadening, branching.

For a fixed field direction u the optical transition shift is exactly
quadratic in the field magnitude,

    dE(B) = sigma(u) B + q(u) B^2,

where sigma combines the two doublet splittings per tesla for the
chosen spin branch and q is the difference of the quadratic Zeeman
coefficients.  A clock transition is a field point where the magnitude
derivative and both angular derivatives vanish simultaneously; the grid
seeds candidates and local refinement polishes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import golden_section_array
from .geometry import site_frame
from .hamiltonian import LevelModel, default_models

SPLITTING_MODELS = ("sqrt", "linear")
BRANCHES = ((-0.5, -0.5), (0.5, 0.5), (0.5, -0.5), (-0.5, 0.5))

FIELD_DERIV_TOL = 1e-6     # MHz/T
ANGULAR_GRAD_TOL = 1e-3    # MHz/degree
HZ_PER_G2_PER_MHZ_PER_T2 = 0.01
_FD_ANGLE_DEG = 0.01
_CURV_STEP_T = 1e-4


class SearchError(ValueError):
    """Invalid search input."""


@dataclass(frozen=True)
class GridSpec:
    """Search mesh: field magnitudes and angular steps."""

    b_max: float = 0.1
    b_step: float = 1e-3
    theta_step: float = 1.0
    phi_step: float = 1.0

    def __post_init__(self):
        if self.b_step <= 0 or self.theta_step <= 0 or self.phi_step <= 0:
            raise SearchError("grid steps must be positive")
        if self.b_step > self.b_max:
            raise SearchError("b_step must not exceed b_max")


@dataclass(frozen=True)
class ClockTransition:
    """One converged zero-derivative field point."""

    site: int
    b_star: float
    theta: float
    phi: float
    branch: tuple[float, float]
    curvature: float
    gradient_norm: float


@dataclass(frozen=True)
class OrientationMap:
    """Value surface over a (theta, phi) grid with located extrema."""

    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray
    extrema: tuple = ()

    def __post_init__(self):
        if self.values.shape != (len(self.thetas), len(self.phis)):
            raise SearchError("surface dimensions must match the grid")


def _unit_vectors(theta_deg, phi_deg):
    th = np.radians(theta_deg)
    ph = np.radians(phi_deg)
    st = np.sin(th)
    return np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=-1)


class SiteModel:
    """Per-site evaluator of sigma(u), q(u) and the transition shift.

    ``splitting_model`` selects how the doublet splitting per tesla is
    formed from the local direction cosines: "sqrt" is the quadrature
    form sqrt(sum g_a^2 u_a^2) (the physical model), "linear" is the
    signed sum g_a u_a kept as a published-table compatibility
    diagnostic (see the verify report).
    """

    def __init__(
        self,
        site_id: int,
        ground: LevelModel | None = None,
        excited: LevelModel | None = None,
        convention: str = "si-table",
        splitting_model: str = "sqrt",
    ):
        if splitting_model not in SPLITTING_MODELS:
            raise SearchError(f"unknown splitting model {splitting_model!r}")
        if ground is None or excited is None:
            g_default, e_default = default_models()
            ground = ground or g_default
            excited = excited or e_default
        self.site_id = site_id
        self.ground = ground
        self.excited = excited
        self.convention = convention
        self.splitting_model = splitting_model
        self.frame = site_frame(site_id).matrix()
        self._gg = ground.g.as_array()
        self._ge = excited.g.as_array()
        gc, ec = ground.constants_, excited.constants_
        # transition quadratic coefficients per local axis, MHz/T^2
        self._dq = (
            gc.g_j ** 2 * ground.tensor.as_array() - ec.g_j ** 2 * excited.tensor.as_array()
        ) * gc.mu_b ** 2

    def local_components(self, u):
        """Signed local direction cosines under the active convention."""
        u = np.asarray(u, dtype=float)
        c = u @ self.frame.T
        if self.convention == "equal-projection":
            cx = c[..., 0]
            inplane = np.sqrt(np.clip(1.0 - cx ** 2, 0.0, None) / 2.0)
            c = np.stack([cx, inplane, inplane], axis=-1)
        return c

    def splittings_per_tesla(self, u):
        """(ground, excited) doublet splitting slopes, MHz/T."""
        c = self.local_components(u)
        if self.splitting_model == "sqrt":
            sg = np.sqrt((c ** 2) @ (self._gg ** 2))
            se = np.sqrt((c ** 2) @ (self._ge ** 2))
        else:
            sg = c @ self._gg
            se = c @ self._ge
        return sg, se

    def sigma(self, u, branch):
        m_g, m_e = branch
        sg, se = self.splittings_per_tesla(u)
        return m_g * sg - m_e * se

    def quad_coeff(self, u):
        c = self.local_components(u)
        return (c ** 2) @ self._dq

    def shift(self, b_mag, u, branch):
        """Optical transition shift dE(B, u), MHz."""
        return self.sigma(u, branch) * b_mag + self.quad_coeff(u) * b_mag ** 2

    def shift_db(self, b_mag, u, branch):
        """Analytic magnitude derivative d(dE)/dB, MHz/T."""
        return self.sigma(u, branch) + 2.0 * self.quad_coeff(u) * b_mag

    # -- elementwise path used by refinement --

    def _sigma_q(self, ux, uy, uz, m_g, m_e):
        """sigma and q at lab directions (ux, uy, uz) for branch spins (m_g, m_e).

        The frame products are written as component sums, not
        ``u @ frame.T``, so their rounding does not depend on the
        matrix-product kernel: the golden-section comparisons in
        refinement can turn on the last digits of the objective.
        """
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = self.frame
        c0 = ux * r00 + uy * r01 + uz * r02
        c1 = ux * r10 + uy * r11 + uz * r12
        c2 = ux * r20 + uy * r21 + uz * r22
        if self.convention == "equal-projection":
            c1 = c2 = np.sqrt(np.maximum(1.0 - c0 * c0, 0.0) / 2.0)
        p0, p1, p2 = c0 * c0, c1 * c1, c2 * c2
        if self.splitting_model == "sqrt":
            gg2, ge2 = self._gg ** 2, self._ge ** 2
            sg = np.sqrt(gg2[0] * p0 + gg2[1] * p1 + gg2[2] * p2)
            se = np.sqrt(ge2[0] * p0 + ge2[1] * p1 + ge2[2] * p2)
        else:
            gg, ge = self._gg, self._ge
            sg = gg[0] * c0 + gg[1] * c1 + gg[2] * c2
            se = ge[0] * c0 + ge[1] * c1 + ge[2] * c2
        dq = self._dq
        return m_g * sg - m_e * se, dq[0] * p0 + dq[1] * p1 + dq[2] * p2

    def _clock_objective(self, theta, phi, m_g, m_e, b_max, step_deg=_FD_ANGLE_DEG):
        """(angular gradient norm at the extremum field, that field), elementwise.

        ``theta``, ``phi`` in degrees; ``m_g``, ``m_e`` are the branch spins
        of each point.  The norm is inf and the field nan where the
        orientation has no positive-field magnitude extremum within b_max.
        """
        th, ph = np.radians(theta), np.radians(phi)
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        ux, uy, uz = st * cp, st * sp, ct
        sigma, q = self._sigma_q(ux, uy, uz, m_g, m_e)
        with np.errstate(divide="ignore", invalid="ignore"):
            b = -sigma / (2.0 * q)
        ok = (b > 0.0) & (b <= b_max) & np.isfinite(b)
        b = np.where(ok, b, np.nan)
        # (e_theta, e_phi); at the poles <100> and <010> instead
        pole = np.abs(st) <= 1e-9
        e_t = (np.where(pole, 1.0, ct * cp), np.where(pole, 0.0, ct * sp), np.where(pole, 0.0, -st))
        e_p = (np.where(pole, 0.0, -sp), np.where(pole, np.abs(ct), cp), np.zeros_like(st))
        # rows: +e_theta, -e_theta, +e_phi, -e_phi
        h = math.radians(step_deg)
        ch, sh = math.cos(h), math.sin(h)
        shift = np.array([sh, -sh, sh, -sh])[:, None]
        v = [ch * uc + shift * np.stack([t, t, p, p]) for uc, t, p in zip((ux, uy, uz), e_t, e_p)]
        s2, q2 = self._sigma_q(*v, m_g, m_e)
        f = s2 * b + q2 * b * b
        g_theta = (f[0] - f[1]) / (2.0 * step_deg)
        g_phi = (f[2] - f[3]) / (2.0 * step_deg)
        return np.where(ok, np.hypot(g_theta, g_phi), np.inf), b


def _tangent_basis(u):
    """Orthonormal tangent vectors (e_theta-like, e_phi-like) at u.

    Built from the polar axis away from the poles and from <100> at
    them, so angular derivatives are great-circle derivatives
    everywhere (MHz per degree of arc).
    """
    u = np.asarray(u, dtype=float)
    pole = np.zeros_like(u)
    pole[..., 2] = 1.0
    near_pole = np.abs(u[..., 2:3]) > 1.0 - 1e-9
    alt = np.zeros_like(u)
    alt[..., 0] = 1.0
    ref = np.where(near_pole, alt, pole)
    e_phi = np.cross(ref, u)
    e_phi = e_phi / np.linalg.norm(e_phi, axis=-1, keepdims=True)
    e_theta = np.cross(e_phi, u)
    return e_theta, e_phi


def _rotate_towards(u, t, angle_rad):
    return math.cos(angle_rad) * u + math.sin(angle_rad) * t


def _angular_gradient_components(model: SiteModel, b_mag, u, branch, step_deg=_FD_ANGLE_DEG):
    e_theta, e_phi = _tangent_basis(u)
    h = math.radians(step_deg)
    out = []
    for t in (e_theta, e_phi):
        up = _rotate_towards(u, t, h)
        um = _rotate_towards(u, t, -h)
        out.append((model.shift(b_mag, up, branch) - model.shift(b_mag, um, branch)) / (2.0 * step_deg))
    return out[0], out[1]


def angular_gradient(
    model: SiteModel, b_mag: float, theta: float, phi: float, branch, step_deg=_FD_ANGLE_DEG
) -> float:
    """Norm of the angular derivative of the shift, MHz/degree."""
    if b_mag <= 0:
        raise SearchError("field magnitude must be positive")
    u = _unit_vectors(theta, phi)
    ft, fp = _angular_gradient_components(model, b_mag, u, branch, step_deg)
    return float(np.hypot(ft, fp))


def field_extremum(
    model: SiteModel, theta: float, phi: float, branch, grid: GridSpec
) -> float | None:
    """Positive field magnitude where d(dE)/dB = 0, if any in (0, b_max].

    Coarse scan at ``b_step`` locates a sign change of the analytic
    derivative, then bisection tightens it below 1e-6 MHz/T.
    """
    u = _unit_vectors(theta, phi)
    n = int(math.floor(grid.b_max / grid.b_step + 1e-9))
    bs = grid.b_step * np.arange(0, n + 1)
    d = model.shift_db(bs, u, branch)
    sign_change = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
    exact = np.nonzero(np.abs(d) < FIELD_DERIV_TOL)[0]
    if len(sign_change) == 0:
        if len(exact) and bs[exact[0]] > 0:
            return float(bs[exact[0]])
        return None
    lo, hi = bs[sign_change[0]], bs[sign_change[0] + 1]
    dlo = model.shift_db(lo, u, branch)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        dm = model.shift_db(mid, u, branch)
        if abs(dm) < FIELD_DERIV_TOL:
            return float(mid)
        if np.sign(dm) == np.sign(dlo):
            lo, dlo = mid, dm
        else:
            hi = mid
    return float(0.5 * (lo + hi))


def curvature(model: SiteModel, ct_b: float, theta: float, phi: float, branch) -> float:
    """Second magnitude derivative at a solution, Hz/G^2 (central FD)."""
    u = _unit_vectors(theta, phi)
    h = _CURV_STEP_T
    d2 = (
        model.shift(ct_b + h, u, branch)
        - 2.0 * model.shift(ct_b, u, branch)
        + model.shift(ct_b - h, u, branch)
    ) / h ** 2
    return float(d2) * HZ_PER_G2_PER_MHZ_PER_T2


def _b_star_grid(model: SiteModel, u, branch, grid: GridSpec):
    """Vectorized closed-form extremum field (quadratic model)."""
    sigma = model.sigma(u, branch)
    q = model.quad_coeff(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = -sigma / (2.0 * q)
    b = np.where((b > 0) & (b <= grid.b_max) & np.isfinite(b), b, np.nan)
    return b


def _grad_norm_grid(model: SiteModel, b, u, branch):
    e_theta, e_phi = _tangent_basis(u)
    h = math.radians(_FD_ANGLE_DEG)
    bt = b[..., None] if b.ndim < u.ndim else b
    comps = []
    for t in (e_theta, e_phi):
        up = np.cos(h) * u + np.sin(h) * t
        um = np.cos(h) * u - np.sin(h) * t
        comps.append(
            (model.shift(b, up, branch) - model.shift(b, um, branch)) / (2.0 * _FD_ANGLE_DEG)
        )
    return np.hypot(comps[0], comps[1])


def _descend(model: SiteModel, theta, phi, m_g, m_e, grid: GridSpec):
    """Cyclic coordinate descent on the angular gradient norm, all seeds at once.

    The magnitude coordinate is eliminated analytically: at each
    orientation the candidate field is the quadratic-model extremum, so
    only (theta, phi) are searched.  Every seed keeps its own golden-section
    brackets, so it follows the path it would follow if refined alone.
    """

    def norm(th, ph, i):
        return model._clock_objective(th, ph, m_g[i], m_e[i], grid.b_max)[0]

    span = max(grid.theta_step, grid.phi_step)
    for _ in range(20):
        theta = golden_section_array(lambda t, i: norm(t, phi[i], i), theta - span, theta + span, 1e-5)
        phi = golden_section_array(lambda p, i: norm(theta[i], p, i), phi - span, phi + span, 1e-5)
        span *= 0.5
        if span < 1e-4:
            break
    grad, b = model._clock_objective(theta, phi, m_g, m_e, grid.b_max)
    return theta, phi, b, grad


def _canonical_angles(theta, phi):
    theta = theta % 360.0
    if theta > 180.0:
        theta = 360.0 - theta
        phi += 180.0
    phi = (phi + 180.0) % 360.0 - 180.0
    if phi <= -180.0:
        phi += 360.0
    return theta, phi


def find_clock_transitions(
    model: SiteModel,
    grid: GridSpec | None = None,
    branches=BRANCHES,
    seed_gradient: float = 1.0,
) -> list[ClockTransition]:
    """All zero-derivative field points of one site, one per branch cluster.

    Every grid orientation with a positive-field magnitude extremum is a
    seed; local minima of the angular gradient norm below
    ``seed_gradient`` MHz/degree are refined, and refined points are
    accepted when both derivative thresholds hold.  Duplicates within
    2 degrees and 2 mT collapse to the lowest-gradient representative.
    """
    grid = grid or GridSpec()
    thetas = np.arange(0.0, 180.0 + 1e-9, grid.theta_step)
    phis = np.arange(-180.0 + grid.phi_step, 180.0 + 1e-9, grid.phi_step)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    u = _unit_vectors(tg, pg)
    seeds = []
    for k, branch in enumerate(branches):
        b = _b_star_grid(model, u, branch, grid)
        norm = np.where(np.isfinite(b), _grad_norm_grid(model, b, u, branch), np.inf)
        i, j = _local_minima(norm, seed_gradient)
        seeds.append((tg[i, j], pg[i, j], np.full(i.size, k)))
    theta, phi, which = (np.concatenate(a) for a in zip(*seeds))
    spins = np.array(branches, dtype=float)[which]
    theta, phi, b_ref, g_ref = _descend(model, theta, phi, spins[:, 0], spins[:, 1], grid)
    results: list[ClockTransition] = []
    # g_ref is inf wherever b_ref is not a field in (0, b_max]
    for k in np.nonzero(g_ref < ANGULAR_GRAD_TOL)[0]:
        branch = branches[which[k]]
        th, ph = _canonical_angles(theta[k], phi[k])
        db = abs(model.shift_db(b_ref[k], _unit_vectors(th, ph), branch))
        if db >= FIELD_DERIV_TOL:
            continue
        curv = curvature(model, b_ref[k], th, ph, branch)
        results.append(
            ClockTransition(model.site_id, float(b_ref[k]), th, ph, branch, curv, float(g_ref[k]))
        )
    return _deduplicate(results)


def _local_minima(norm, threshold):
    """Indices of 8-neighborhood local minima (phi wraps) below threshold."""
    padded = np.pad(norm, ((1, 1), (0, 0)), constant_values=np.inf)
    padded = np.concatenate([padded[:, -1:], padded, padded[:, :1]], axis=1)
    center = padded[1:-1, 1:-1]
    is_min = center <= threshold
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            neighbor = padded[1 + di : padded.shape[0] - 1 + di, 1 + dj : padded.shape[1] - 1 + dj]
            is_min &= center <= neighbor
    return np.nonzero(is_min)


def _deduplicate(results, angle_tol=2.0, b_tol=2e-3):
    """Greedy, lowest gradient first: drop a point within ``angle_tol``
    degrees and ``b_tol`` tesla of an already kept point on its branch."""
    ordered = sorted(results, key=lambda c: c.gradient_norm)
    n = len(ordered)
    u = _unit_vectors(np.array([c.theta for c in ordered]), np.array([c.phi for c in ordered]))
    b = np.array([c.b_star for c in ordered])
    codes: dict = {}
    branch = np.array([codes.setdefault(c.branch, len(codes)) for c in ordered], dtype=int)
    kept_u, kept_b, kept_branch = np.empty((n, 3)), np.empty(n), np.empty(n, dtype=int)
    kept: list[ClockTransition] = []
    for i, ct in enumerate(ordered):
        k = len(kept)
        near = (
            (kept_branch[:k] == branch[i])
            & (np.abs(b[i] - kept_b[:k]) <= b_tol)
            & (np.degrees(np.arccos(np.clip(kept_u[:k] @ u[i], -1.0, 1.0))) <= angle_tol)
        )
        if not near.any():
            kept_u[k], kept_b[k], kept_branch[k] = u[i], b[i], branch[i]
            kept.append(ct)
    return sorted(kept, key=lambda c: (c.branch, c.theta, c.phi))


def broadening_map(
    model: SiteModel, b_mag: float, grid: GridSpec | None = None, grad_tol: float = 1e-3
) -> OrientationMap:
    """Ground-splitting surface over orientation with classified extrema.

    Extrema are grid-local stationary points (angular gradient of the
    splitting below ``grad_tol`` MHz/degree after refinement would be
    ideal; here the grid minimum of the finite-difference norm is
    reported), classified max/min/saddle by the 2x2 angular Hessian.
    """
    if b_mag <= 0:
        raise SearchError("field magnitude must be positive")
    grid = grid or GridSpec()
    thetas = np.arange(0.0, 180.0 + 1e-9, grid.theta_step)
    phis = np.arange(-180.0 + grid.phi_step, 180.0 + 1e-9, grid.phi_step)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    u = _unit_vectors(tg, pg)
    sg, _ = model.splittings_per_tesla(u)
    values = sg * b_mag

    e_theta, e_phi = _tangent_basis(u)
    h = math.radians(_FD_ANGLE_DEG)

    def split_at(vec):
        s, _ = model.splittings_per_tesla(vec)
        return s * b_mag

    ft = (split_at(np.cos(h) * u + np.sin(h) * e_theta) - split_at(np.cos(h) * u - np.sin(h) * e_theta)) / (2 * _FD_ANGLE_DEG)
    fp = (split_at(np.cos(h) * u + np.sin(h) * e_phi) - split_at(np.cos(h) * u - np.sin(h) * e_phi)) / (2 * _FD_ANGLE_DEG)
    norm = np.hypot(ft, fp)
    extrema = []
    for i, j in zip(*_local_minima(norm, grad_tol * 100)):
        kind = _classify_extremum(split_at, u[i, j], e_theta[i, j], e_phi[i, j])
        extrema.append(
            {
                "theta_deg": float(tg[i, j]),
                "phi_deg": float(pg[i, j]),
                "splitting_MHz": float(values[i, j]),
                "gradient_MHz_per_deg": float(norm[i, j]),
                "kind": kind,
            }
        )
    return OrientationMap(thetas, phis, values, tuple(extrema))


def _classify_extremum(fn, u, et, ep, step_deg=0.1):
    h = math.radians(step_deg)
    f0 = fn(u)
    out = []
    for t in (et, ep):
        fpp = fn(np.cos(h) * u + np.sin(h) * t)
        fmm = fn(np.cos(h) * u - np.sin(h) * t)
        out.append((fpp - 2 * f0 + fmm) / step_deg ** 2)
    htt, hpp = out
    if htt > 0 and hpp > 0:
        return "min"
    if htt < 0 and hpp < 0:
        return "max"
    return "saddle"


def branching_ratio(model: SiteModel, u) -> np.ndarray:
    """R = tan^2(psi/2) between the two g-scaled effective field vectors."""
    c = model.local_components(u)
    vg = c * model._gg
    ve = c * model._ge
    ng = np.linalg.norm(vg, axis=-1)
    ne = np.linalg.norm(ve, axis=-1)
    if np.any(ng == 0) or np.any(ne == 0):
        raise SearchError("zero effective field vector: branching undefined")
    cospsi = np.clip(np.sum(vg * ve, axis=-1) / (ng * ne), -1.0, 1.0)
    psi = np.arccos(cospsi)
    return np.tan(psi / 2.0) ** 2


def branching_map(model: SiteModel, grid: GridSpec | None = None) -> OrientationMap:
    """Branching-ratio surface with the global maximum as sole extremum."""
    grid = grid or GridSpec()
    thetas = np.arange(0.0, 180.0 + 1e-9, grid.theta_step)
    phis = np.arange(-180.0 + grid.phi_step, 180.0 + 1e-9, grid.phi_step)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    u = _unit_vectors(tg, pg)
    values = branching_ratio(model, u)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    x_axis = site_frame(model.site_id).x_axis
    udir = u[i, j]
    angle_to_x = math.degrees(
        math.acos(min(abs(float(udir @ x_axis)), 1.0))
    )
    extremum = {
        "theta_deg": float(tg[i, j]),
        "phi_deg": float(pg[i, j]),
        "ratio": float(values[i, j]),
        "angle_to_local_x_deg": angle_to_x,
        "kind": "max",
    }
    return OrientationMap(thetas, phis, values, (extremum,))
