"""Closed-form reference model used to check the program's outputs.

Written with numpy alone from the parameter values the benchmark puts
into its generated config files and from the six tabulated site axes.
It imports nothing from garnetspin, so a change of convention inside
the program shows up as a check failure instead of being copied here.

Units: g in MHz/T, fields in T, splittings and shifts in MHz, angles in
degrees at every function boundary.
"""

from __future__ import annotations

import math

import numpy as np

MU_B_MHZ_PER_T = 13996.245
HZ_PER_G2_PER_MHZ_PER_T2 = 0.01

# Rows are the local x, y, z axes of each site in the cubic frame.
SITE_AXES = {
    1: ((1, -1, 0), (1, 1, 0), (0, 0, 1)),
    2: ((1, 1, 0), (-1, 1, 0), (0, 0, 1)),
    3: ((0, 1, -1), (0, 1, 1), (1, 0, 0)),
    4: ((0, 1, 1), (0, -1, 1), (1, 0, 0)),
    5: ((-1, 0, 1), (1, 0, 1), (0, 1, 0)),
    6: ((1, 0, 1), (1, 0, -1), (0, 1, 0)),
}
BRANCHES = ((-0.5, -0.5), (0.5, 0.5), (0.5, -0.5), (-0.5, 0.5))

# Bundled parameters of the Tm-doped garnet (the values in the package's
# default config file); workloads jitter the g values from these.
BUNDLED = {
    "ground": {"g_j": 1.16, "a_j": -470.3, "g_n_beta_n": -3.53,
               "g": (27.0, 146.0, 36.0), "aj_lambda": (-7.23e-4, -4.47e-3, -9.99e-4)},
    "excited": {"g_j": 0.8, "a_j": -678.3, "g_n_beta_n": -3.53,
                "g": (7.0, 92.0, 16.0), "aj_lambda": (-1.55e-4, -3.95e-3, -5.57e-4)},
}


def frame(site: int) -> np.ndarray:
    r = np.array(SITE_AXES[site], dtype=float)
    return r / np.linalg.norm(r, axis=1, keepdims=True)


def unit(theta_deg, phi_deg) -> np.ndarray:
    th, ph = np.radians(theta_deg), np.radians(phi_deg)
    st = np.sin(th)
    return np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=-1)


def angles(u) -> tuple[float, float]:
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    return math.degrees(math.acos(max(-1.0, min(1.0, u[2])))), math.degrees(math.atan2(u[1], u[0]))


def grid(step: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The (theta, phi) mesh the program's orientation searches use."""
    return np.arange(0.0, 180.0 + 1e-9, step), np.arange(-180.0 + step, 180.0 + 1e-9, step)


def config_text(params: dict, extra: dict | None = None) -> str:
    """Config file for the program: both parameterizations per level."""
    lines = []
    for level in ("ground", "excited"):
        p = params[level]
        for key in ("g_j", "a_j", "g_n_beta_n"):
            lines.append(f"{level}.{key} = {p[key]!r}")
        lines.append(f"{level}.g = " + ", ".join(repr(float(v)) for v in p["g"]))
        lines.append(f"{level}.aj_lambda = " + ", ".join(repr(float(v)) for v in p["aj_lambda"]))
    for key, value in (extra or {}).items():
        if isinstance(value, (tuple, list, np.ndarray)):
            value = ", ".join(repr(float(v)) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class Site:
    """sigma, q and their angular derivatives for one site (si-table, sqrt model)."""

    def __init__(self, site: int, params: dict):
        self.r = frame(site)
        g, e = params["ground"], params["excited"]
        self.gg2 = np.asarray(g["g"], dtype=float) ** 2
        self.ge2 = np.asarray(e["g"], dtype=float) ** 2
        lam_g = np.asarray(g["aj_lambda"], dtype=float) / g["a_j"]
        lam_e = np.asarray(e["aj_lambda"], dtype=float) / e["a_j"]
        # transition quadratic coefficient per local axis, MHz/T^2:
        # excited minus ground of -g_J^2 mu_B^2 Lambda_a
        self.dq = (g["g_j"] ** 2 * lam_g - e["g_j"] ** 2 * lam_e) * MU_B_MHZ_PER_T ** 2

    def local(self, u):
        return np.asarray(u, dtype=float) @ self.r.T

    def slopes(self, u):
        """(ground, excited) splitting per tesla, MHz/T."""
        c2 = self.local(u) ** 2
        return np.sqrt(c2 @ self.gg2), np.sqrt(c2 @ self.ge2)

    def sigma_q(self, u, branch):
        m_g, m_e = branch
        sg, se = self.slopes(u)
        return m_g * sg - m_e * se, self.local(u) ** 2 @ self.dq

    def b_star(self, u, branch):
        """Closed-form field-magnitude extremum -sigma/(2q), T (nan when q = 0)."""
        s, q = self.sigma_q(u, branch)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(q != 0, -s / (2.0 * q), np.nan)

    def curvature(self, u):
        """d^2(dE)/dB^2 = 2q, Hz/G^2."""
        return 2.0 * (self.local(u) ** 2 @ self.dq) * HZ_PER_G2_PER_MHZ_PER_T2

    def shift_gradient(self, b, u, branch):
        """Great-circle gradient norm of dE(B, u) = sigma B + q B^2 at fixed B, MHz/deg."""
        m_g, m_e = branch
        u = np.asarray(u, dtype=float)
        c = self.local(u)
        sg, se = self.slopes(u)
        d_sigma = m_g * (self.gg2 * c) / sg - m_e * (self.ge2 * c) / se
        d_q = 2.0 * self.dq * c
        grad = (b * d_sigma + b * b * d_q) @ self.r
        tangential = grad - (grad @ u) * u
        return float(np.linalg.norm(tangential)) * math.pi / 180.0

    def axes(self):
        """The six local +-axis directions, with the |g| index of each."""
        return [(sign * self.r[a], a) for a in range(3) for sign in (1.0, -1.0)]

    def branching_ratio(self, u):
        c = self.local(u)
        vg = c * np.sqrt(self.gg2)
        ve = c * np.sqrt(self.ge2)
        cos = np.sum(vg * ve, axis=-1) / (np.linalg.norm(vg, axis=-1) * np.linalg.norm(ve, axis=-1))
        return np.tan(np.arccos(np.clip(cos, -1.0, 1.0)) / 2.0) ** 2


def hole_features(params: dict, b_vec, merge_tol: float = 1e-6):
    """SHB (offset MHz, amplitude, label) per site, coincident offsets summed.

    Each site burns a main hole (-1) at 0, side holes (-1/4) at +-De and
    anti-holes (+1/4) at +-Dg, +-(Dg - De) and +-(Dg + De).
    """
    b = np.asarray(b_vec, dtype=float)
    raw = []
    for site in SITE_AXES:
        s = Site(site, params)
        sg, se = s.slopes(b / np.linalg.norm(b))
        dg, de = float(sg) * np.linalg.norm(b), float(se) * np.linalg.norm(b)
        raw += [(0.0, -1.0, "main"), (de, -0.25, "side"), (-de, -0.25, "side")]
        raw += [(o, 0.25, "anti") for o in (dg, -dg, dg - de, de - dg, dg + de, -dg - de)]
    merged = []
    for off, amp, label in sorted(raw):
        if merged and abs(off - merged[-1][0]) <= merge_tol:
            o, a, l = merged[-1]
            merged[-1] = (o, a + amp, l if l == label else "merged")
        else:
            merged.append((off, amp, label))
    return merged


def lorentzian_trace(features, x, fwhm):
    hw2 = (fwhm / 2.0) ** 2
    y = np.zeros_like(x)
    for off, amp, _ in features:
        y += amp * hw2 / ((x - off) ** 2 + hw2)
    return y


def scan_field(optical_axis, field_magnitude, angle_deg, reference_axis=None):
    """Cubic-frame field of a rotation scan perpendicular to the optical axis."""
    n = np.asarray(optical_axis, dtype=float)
    n = n / np.linalg.norm(n)
    if reference_axis is None:
        ref = np.array([0.0, 0.0, 1.0]) if abs(n[2]) <= 1.0 - 1e-9 else np.array([1.0, 0.0, 0.0])
    else:
        ref = np.asarray(reference_axis, dtype=float)
    e1 = ref - (ref @ n) * n
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    a = np.radians(np.asarray(angle_deg, dtype=float))[..., None]
    return field_magnitude * (np.cos(a) * e1 + np.sin(a) * e2)


def scan_splitting(g, site, b):
    """Doublet splitting sqrt(sum g_a^2 b_a^2), MHz, for cubic-frame fields b."""
    c = np.asarray(b, dtype=float) @ frame(site).T
    return np.sqrt(c ** 2 @ (np.asarray(g, dtype=float) ** 2))
