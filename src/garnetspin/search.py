"""Orientation-space searches: clock transitions, broadening, branching.

For a fixed field direction u the optical transition shift is exactly
quadratic in the field magnitude,

    dE(B) = sigma(u) B + q(u) B^2,

where sigma combines the two doublet splittings per tesla for the
chosen spin branch and q is the difference of the quadratic Zeeman
coefficients.  A clock transition is a field point where the magnitude
derivative and both angular derivatives vanish.  The magnitude
derivative vanishes at B* = -sigma/(2q), where the shift takes the value
F(u) = -sigma^2/(4q); since d(dE)/dB = 0 there, the angular derivatives
of dE at B* are those of F.  The clock transitions are therefore the
stationary points of F on the unit sphere with B* in (0, b_max], and
they are found in closed form (``_stationary_directions``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import cartesian_to_angles, site_frame
from .hamiltonian import LevelModel, default_models

SPLITTING_MODELS = ("sqrt", "linear")
BRANCHES = ((-0.5, -0.5), (0.5, 0.5), (0.5, -0.5), (-0.5, 0.5))

HZ_PER_G2_PER_MHZ_PER_T2 = 0.01
_FD_ANGLE_DEG = 0.01
_SQ2 = math.sqrt(2.0)

# Unit local directions whose squares span the local components a
# convention can reach: the three axes, or under equal-projection the x
# axis and the in-plane diagonal, which stands for the whole circle u.x = 0.
_BASIS = {
    "si-table": np.eye(3),
    "equal-projection": np.array([[1.0, 0.0, 0.0], [0.0, 1.0 / _SQ2, 1.0 / _SQ2]]),
}

# Sign changes of the local components that map a stationary direction of
# F onto another one: F is even in each component in the sqrt model and
# even in c under the linear model; equal-projection fixes the in-plane signs.
_FLIPS = {
    ("sqrt", "si-table"): np.array(list(itertools.product((1.0, -1.0), repeat=3))),
    ("sqrt", "equal-projection"): np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]]),
    ("linear", "si-table"): np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]),
    ("linear", "equal-projection"): np.ones((1, 3)),
}


class SearchError(ValueError):
    """Invalid search input."""


class DegenerateError(SearchError):
    """The stationary set is a continuum, so there are no isolated solutions."""


@dataclass(frozen=True)
class GridSpec:
    """Orientation mesh of the maps (angular steps) and clock field limit b_max.

    The clock-transition search is closed form and uses only ``b_max``.
    """

    b_max: float = 0.1
    b_step: float = 1e-3
    theta_step: float = 1.0
    phi_step: float = 1.0

    def __post_init__(self):
        values = (self.b_max, self.b_step, self.theta_step, self.phi_step)
        if not all(math.isfinite(v) for v in values):
            raise SearchError("grid values must be finite")
        if self.b_step <= 0 or self.theta_step <= 0 or self.phi_step <= 0:
            raise SearchError("grid steps must be positive")
        if self.b_step > self.b_max:
            raise SearchError("b_step must not exceed b_max")


@dataclass(frozen=True)
class ClockTransition:
    """One zero-derivative field point.

    ``degenerate`` marks a representative of a circle of constant u.x
    (equal-projection convention), every point of which is a solution.
    """

    site: int
    b_star: float
    theta: float
    phi: float
    branch: tuple[float, float]
    curvature: float
    gradient_norm: float
    degenerate: bool = False


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


def _orientation_grid(grid: GridSpec):
    """(thetas, phis, unit vectors on their mesh) of a map."""
    thetas = np.arange(0.0, 180.0 + 1e-9, grid.theta_step)
    phis = np.arange(-180.0 + grid.phi_step, 180.0 + 1e-9, grid.phi_step)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    return thetas, phis, _unit_vectors(tg, pg)


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


def angular_gradient(
    model: SiteModel, b_mag: float, theta: float, phi: float, branch, step_deg=_FD_ANGLE_DEG
) -> float:
    """Norm of the angular derivative of the shift at fixed B, MHz/degree.

    Central finite differences along two great circles; an independent
    check on :func:`sphere_gradient`.
    """
    if b_mag <= 0:
        raise SearchError("field magnitude must be positive")
    u = _unit_vectors(theta, phi)
    h = math.radians(step_deg)
    out = []
    for t in _tangent_basis(u):
        up = math.cos(h) * u + math.sin(h) * t
        um = math.cos(h) * u - math.sin(h) * t
        out.append((model.shift(b_mag, up, branch) - model.shift(b_mag, um, branch)) / (2.0 * step_deg))
    return float(np.hypot(out[0], out[1]))


def sphere_gradient(model: SiteModel, u, branch):
    """Analytic gradient of F(u) = -sigma^2/(4q), the shift at B*, on the unit sphere.

    Lab-frame tangent vectors, MHz per radian.  Since d(dE)/dB = 0 at
    B*, dF = B* dsigma + B*^2 dq.  Under equal-projection F depends on
    the angle alpha between u and local x alone, and the gradient is
    dF/dalpha along the meridian away from x; it is reported as zero at
    u = +-x, where the linear model has a cone point instead.
    """
    u = np.asarray(u, dtype=float)
    m_g, m_e = branch
    c = model.local_components(u)
    sg, se = model.splittings_per_tesla(u)
    q = (c ** 2) @ model._dq
    b = (-(m_g * sg - m_e * se) / (2.0 * q))[..., None]
    if model.splitting_model == "sqrt":
        dsigma = m_g * c * model._gg ** 2 / sg[..., None] - m_e * c * model._ge ** 2 / se[..., None]
    else:
        dsigma = m_g * model._gg - m_e * model._ge
    dfdc = b * dsigma + 2.0 * b * b * model._dq * c
    if model.convention == "equal-projection":
        cx = c[..., :1]
        sin_a = np.sqrt(np.clip(1.0 - cx ** 2, 0.0, None))
        dfda = -sin_a * dfdc[..., :1] + cx * (dfdc[..., 1:2] + dfdc[..., 2:]) / _SQ2
        with np.errstate(divide="ignore", invalid="ignore"):
            meridian = np.where(sin_a > 0, (cx * u - model.frame[0]) / sin_a, 0.0)
        return dfda * meridian
    grad = dfdc @ model.frame
    return grad - np.sum(grad * u, axis=-1, keepdims=True) * u


def _b_star(model: SiteModel, u, branch, b_max):
    """(B*, q) per direction; B* is nan where q = 0 or B* is outside (0, b_max]."""
    sigma, q = model.sigma(u, branch), model.quad_coeff(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = -sigma / (2.0 * q)
    return np.where((b > 0.0) & (b <= b_max), b, np.nan), q


def field_extremum(
    model: SiteModel, theta: float, phi: float, branch, grid: GridSpec
) -> float | None:
    """Field magnitude B* = -sigma/(2q) where d(dE)/dB = 0, or None if not in (0, b_max]."""
    b, _ = _b_star(model, _unit_vectors(theta, phi), branch, grid.b_max)
    return float(b) if np.isfinite(b) else None


def curvature(model: SiteModel, b_mag: float, theta: float, phi: float, branch) -> float:
    """Second magnitude derivative of the shift, exactly 2q, in Hz/G^2.

    The shift is quadratic in B, so the value depends neither on
    ``b_mag`` nor on ``branch``.
    """
    return 2.0 * float(model.quad_coeff(_unit_vectors(theta, phi))) * HZ_PER_G2_PER_MHZ_PER_T2


def _continuum(model: SiteModel) -> bool:
    """True when G_g, G_e and D, restricted to the reachable simplex, are dependent.

    F is then a function of the ratio G_e.p / G_g.p alone (or constant),
    and its stationary set is made of whole lines of the simplex.
    """
    vertices = _BASIS[model.convention] ** 2
    m = np.stack([model._gg ** 2, model._ge ** 2, model._dq]) @ vertices.T
    scale = np.abs(m).max(axis=1, keepdims=True)
    m = m / np.where(scale > 0.0, scale, 1.0)
    return np.linalg.matrix_rank(m, tol=1e-9) < len(vertices)


def _stationary_directions(model: SiteModel, branch) -> list[np.ndarray]:
    """Local unit directions where F is stationary, one per class of ``_FLIPS``.

    sqrt model: F depends on u only through p = c^2, a point of the
    simplex spanned by the vertices V = ``_BASIS``^2.  With G = g^2 and
    D = ``_dq``, map p to (X, Y) = (G_g.p, G_e.p) / (D.p); there
    F = -(m_g sqrt(X) - m_e sqrt(Y))^2 / 4, whose gradient vanishes only
    where sigma = 0.  When G_g, G_e and D are independent (see
    ``_continuum``) no stationary point with B* != 0 lies inside the
    simplex.  Every vertex is stationary.  An edge maps onto a line with
    direction (dX, dY), and F is stationary on it where
    m_g dX / sqrt(X) = m_e dY / sqrt(Y).  That fixes Y/X, one linear
    equation in p: with w_k = G_e.V_k dX^2 - G_g.V_k dY^2 the root is
    p = (w_j V_i - w_i V_j) / (w_j - w_i), inside the edge when w_i w_j < 0.

    linear model: F = -(a.c)^2 / (4 c^T D c) with a = m_g g_g - m_e g_e is
    a Rayleigh quotient with a rank-1 numerator, stationary only at
    c ~ a/D, or where a.c = 0 (sigma = 0, so B* = 0).
    """
    m_g, m_e = branch
    basis = _BASIS[model.convention]
    vertices = basis ** 2
    if model.splitting_model == "linear":
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = (basis @ (m_g * model._gg - m_e * model._ge)) / (vertices @ model._dq)
        if not (np.all(np.isfinite(gamma)) and gamma.any()):
            return []
        # equal-projection reaches only a non-negative in-plane part
        gamma = gamma if gamma[-1] >= 0.0 else -gamma
        c = gamma @ basis
        return [c / np.linalg.norm(c)]
    a, b, d = (vertices @ v for v in (model._gg ** 2, model._ge ** 2, model._dq))
    points = list(vertices)
    for i, j in itertools.combinations(range(len(vertices)), 2):
        dx = a[j] * d[i] - a[i] * d[j]
        dy = b[j] * d[i] - b[i] * d[j]
        if m_g * dx * m_e * dy <= 0.0:
            continue
        w_i = b[i] * dx ** 2 - a[i] * dy ** 2
        w_j = b[j] * dx ** 2 - a[j] * dy ** 2
        if w_i * w_j < 0.0:
            points.append((w_j * vertices[i] - w_i * vertices[j]) / (w_j - w_i))
    # a splitting that vanishes is not differentiable there (a cone point)
    return [np.sqrt(p) for p in points if p @ model._gg ** 2 > 0.0 and p @ model._ge ** 2 > 0.0]


def find_clock_transitions(
    model: SiteModel,
    grid: GridSpec | None = None,
    branches=BRANCHES,
) -> list[ClockTransition]:
    """Every clock transition of one site, each sign copy, sorted by (branch, theta, phi).

    Closed form: the stationary directions of F are solved in local
    coordinates and mapped to the lab with the site frame, so sites
    related by a frame rotation give the same local set.  Only
    ``grid.b_max`` is used; directions with q = 0 or with B* outside
    (0, b_max] are dropped.  B* = -sigma/(2q) and the curvature 2q are
    exact.  Raises :class:`DegenerateError` when the stationary set is
    a continuum.
    """
    grid = grid or GridSpec()
    if model.splitting_model == "sqrt" and _continuum(model):
        raise DegenerateError(
            "no isolated solutions (the squared ground and excited g and the "
            "quadratic coefficients are linearly dependent: the stationary set "
            "is a degenerate continuum)"
        )
    flips = _FLIPS[(model.splitting_model, model.convention)]
    results: list[ClockTransition] = []
    for branch in branches:
        directions = _stationary_directions(model, branch)
        if not directions:
            continue
        # + 0.0 turns -0.0 into 0.0, so np.unique merges sign copies of zeros
        local = np.unique(np.concatenate([c * flips for c in directions]) + 0.0, axis=0)
        u = local @ model.frame
        b, q = _b_star(model, u, branch, grid.b_max)
        keep = np.isfinite(b)
        local, u, b, q = local[keep], u[keep], b[keep], q[keep]
        grad = np.linalg.norm(sphere_gradient(model, u, branch), axis=-1) * math.pi / 180.0
        for k in range(len(u)):
            theta, phi = cartesian_to_angles(u[k])
            results.append(
                ClockTransition(
                    model.site_id,
                    float(b[k]),
                    theta,
                    phi,
                    branch,
                    2.0 * float(q[k]) * HZ_PER_G2_PER_MHZ_PER_T2,
                    float(grad[k]),
                    model.convention == "equal-projection" and bool(local[k, 1] > 0.0),
                )
            )
    return sorted(results, key=lambda c: (c.branch, c.theta, c.phi))


def broadening_map(model: SiteModel, b_mag: float, grid: GridSpec | None = None) -> OrientationMap:
    """Ground-splitting surface over orientation with its stationary points.

    The squared splitting sum G_a c_a^2 is a Rayleigh quotient of
    diag(G), so the splitting is stationary on the sphere only at the
    six local +-axes: the smallest |g| gives the minimum, the largest
    the maximum and the middle one a saddle.  Under equal-projection it
    depends on u.x alone: the +-x points and the circle u.x = 0, listed
    once and flagged ``degenerate``.
    """
    if model.splitting_model != "sqrt":
        raise SearchError("broadening extrema are derived for the sqrt splitting model")
    if not (math.isfinite(b_mag) and b_mag > 0):
        raise SearchError("field magnitude must be finite and positive")
    thetas, phis, u = _orientation_grid(grid or GridSpec())
    sg, _ = model.splittings_per_tesla(u)
    basis = _BASIS[model.convention]
    levels = b_mag * np.sqrt(basis ** 2 @ model._gg ** 2)
    extrema = []
    for c, value in zip(basis, levels):
        kind = "min" if value == levels.min() else "max" if value == levels.max() else "saddle"
        ring = model.convention == "equal-projection" and c[1] > 0.0
        for copy in (c,) if ring else (c, -c):
            theta, phi = cartesian_to_angles(copy @ model.frame)
            extrema.append(
                {
                    "theta_deg": theta,
                    "phi_deg": phi,
                    "splitting_MHz": float(value),
                    "kind": kind,
                    "degenerate": bool(ring),
                }
            )
    return OrientationMap(thetas, phis, sg * b_mag, tuple(extrema))


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
    thetas, phis, u = _orientation_grid(grid or GridSpec())
    values = branching_ratio(model, u)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    x_axis = site_frame(model.site_id).x_axis
    udir = u[i, j]
    angle_to_x = math.degrees(
        math.acos(min(abs(float(udir @ x_axis)), 1.0))
    )
    extremum = {
        "theta_deg": float(thetas[i]),
        "phi_deg": float(phis[j]),
        "ratio": float(values[i, j]),
        "angle_to_local_x_deg": angle_to_x,
        "kind": "max",
    }
    return OrientationMap(thetas, phis, values, (extremum,))
