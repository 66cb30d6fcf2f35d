"""Self-check suite comparing computed values against reference numbers.

Each check returns a VerifyCheck with the measured value, the expected
value, the tolerance and a pass flag; the CLI renders one line per
check.  The clock-transition comparison is run under both projection
conventions and both splitting models so disagreements are surfaced
rather than hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .geometry import LabField, lab_to_cartesian, project_onto_site, site_frame
from .hamiltonian import (
    EffectiveGTensor,
    effective_g,
    EXCITED_CONSTANTS,
    EXCITED_TENSOR,
    GROUND_CONSTANTS,
    GROUND_TENSOR,
    hyperfine_splitting,
)
from .search import (
    GridSpec,
    SiteModel,
    branching_map,
    find_clock_transitions,
    sphere_gradient,
)

# Independently reported clock-transition solutions used as the
# comparison target: (site, B tesla, theta deg, phi deg, m_g, m_e).
REFERENCE_CLOCK_ROWS = (
    (1, 0.019, 55.0, -15.0, -0.5, -0.5),
    (1, 0.019, 125.0, 166.0, 0.5, 0.5),
    (1, 0.036, 64.0, -150.0, 0.5, -0.5),
    (1, 0.036, 117.0, 31.0, -0.5, 0.5),
    (2, 0.019, 54.0, 76.0, -0.5, -0.5),
    (2, 0.019, 125.0, -105.0, 0.5, 0.5),
    (2, 0.036, 116.0, 120.0, -0.5, 0.5),
    (2, 0.036, 63.0, -60.0, 0.5, -0.5),
    (3, 0.019, 102.0, 54.0, -0.5, -0.5),
    (3, 0.019, 79.0, -127.0, 0.5, 0.5),
    (3, 0.036, 64.0, 120.0, 0.5, -0.5),
    (3, 0.036, 118.0, 60.0, -0.5, 0.5),
    (4, 0.019, 38.0, 20.0, -0.5, -0.5),
    (4, 0.019, 143.0, -160.0, 0.5, 0.5),
    (4, 0.036, 140.0, -45.0, -0.5, 0.5),
    (4, 0.036, 40.0, 135.0, 0.5, -0.5),
    (5, 0.019, 38.0, 110.0, -0.5, -0.5),
    (5, 0.019, 142.0, -70.0, 0.5, 0.5),
    (5, 0.036, 140.0, 45.0, -0.5, 0.5),
    (5, 0.019, 40.0, -135.0, 0.5, -0.5),
    (6, 0.019, 78.0, 37.0, -0.5, -0.5),
    (6, 0.019, 102.0, -144.0, 0.5, 0.5),
    (6, 0.036, 62.0, 30.0, -0.5, 0.5),
    (6, 0.036, 118.0, -150.0, 0.5, -0.5),
)

REFERENCE_CURVATURE_HZ_PER_G2 = 36.0


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    measured: str
    expected: str
    tolerance: str
    passed: bool
    details: tuple[str, ...] = ()


def _equal_projection_111():
    b = lab_to_cartesian(LabField(1.0, math.degrees(math.acos(1 / math.sqrt(3))), 45.0))
    return project_onto_site(b, site_frame(1), "equal-projection")


def check_g_reconstruction() -> VerifyCheck:
    """Derived effective g values against the fitted reference values."""
    calc_g = effective_g(GROUND_CONSTANTS, GROUND_TENSOR).as_array()
    calc_e = effective_g(EXCITED_CONSTANTS, EXCITED_TENSOR).as_array()
    ref_g = np.array(constants.GROUND_G_MEASURED)
    ref_e = np.array(constants.EXCITED_G_MEASURED)
    tols = np.array([0.1, 3.0, 0.1]), np.array([0.1, 0.1, 0.1])
    ok = np.all(np.abs(calc_g - ref_g) <= tols[0]) and np.all(
        np.abs(calc_e - ref_e) <= tols[1]
    )
    return VerifyCheck(
        "effective-g reconstruction",
        f"g=({calc_g[0]:.2f},{calc_g[1]:.2f},{calc_g[2]:.2f}) "
        f"e=({calc_e[0]:.2f},{calc_e[1]:.2f},{calc_e[2]:.2f}) MHz/T",
        "g=(27,146,36) e=(7,92,16) MHz/T",
        "0.1 MHz/T (3.0 on ground y)",
        bool(ok),
    )


def check_linear_zeeman() -> VerifyCheck:
    """Splitting slopes for a <111> field, equal-projection convention."""
    local = _equal_projection_111()
    dg = hyperfine_splitting(EffectiveGTensor(*constants.GROUND_G_MEASURED), local)
    de = hyperfine_splitting(EffectiveGTensor(*constants.EXCITED_G_MEASURED), local)
    ok = abs(dg - 106.3) <= 0.5 and abs(de - 66.0) <= 0.5
    return VerifyCheck(
        "linear Zeeman at <111> (equal-projection)",
        f"ground {dg:.2f}, excited {de:.2f} MHz/T",
        "ground 106.3, excited 66.0 MHz/T",
        "0.5 MHz/T",
        ok,
    )


def check_linear_zeeman_si_table() -> VerifyCheck:
    """Same slopes under the literal axis-table convention (informational)."""
    b = lab_to_cartesian(LabField(1.0, math.degrees(math.acos(1 / math.sqrt(3))), 45.0))
    local = project_onto_site(b, site_frame(1), "si-table")
    dg = hyperfine_splitting(EffectiveGTensor(*constants.GROUND_G_MEASURED), local)
    de = hyperfine_splitting(EffectiveGTensor(*constants.EXCITED_G_MEASURED), local)
    return VerifyCheck(
        "linear Zeeman at <111> (si-table, informational)",
        f"ground {dg:.2f}, excited {de:.2f} MHz/T",
        "ground ~121 MHz/T (known convention discrepancy)",
        "n/a (always passes)",
        True,
    )


def check_quadratic_zeeman() -> VerifyCheck:
    """Transition quadratic coefficient for a <111> field, GHz/T^2."""
    local = _equal_projection_111()
    b2 = local.as_array() ** 2
    cg = GROUND_CONSTANTS.g_j ** 2 * constants.MU_B_MHZ_PER_T ** 2 * (
        GROUND_TENSOR.as_array() @ b2
    )
    ce = EXCITED_CONSTANTS.g_j ** 2 * constants.MU_B_MHZ_PER_T ** 2 * (
        EXCITED_TENSOR.as_array() @ b2
    )
    coeff_ghz = (cg - ce) / 1000.0
    ok = abs(coeff_ghz - 1.11) <= 0.03 and 0.84 <= coeff_ghz <= 1.34
    return VerifyCheck(
        "quadratic Zeeman at <111> (equal-projection)",
        f"{coeff_ghz:.3f} GHz/T^2",
        "1.11 GHz/T^2 (reference 1.09 +- 0.25)",
        "0.03 GHz/T^2 of 1.11",
        ok,
    )


def check_branching_maximum() -> VerifyCheck:
    model = SiteModel(1)
    m = branching_map(model, GridSpec(theta_step=1.0, phi_step=1.0))
    ext = m.extrema[0]
    ok = abs(ext["ratio"] - 0.05) <= 0.015 and ext["angle_to_local_x_deg"] <= 15.0
    return VerifyCheck(
        "branching-ratio maximum",
        f"{ext['ratio']:.4f} at {ext['angle_to_local_x_deg']:.1f} deg from local x",
        "0.05 within 15 deg of local x",
        "0.015 on ratio, 15 deg on direction",
        ok,
    )


def _direction(theta_deg, phi_deg):
    return lab_to_cartesian(LabField(1.0, theta_deg, phi_deg))


def _folded_angle(a, b) -> float:
    """Angle in degrees between the lines through unit vectors a and b."""
    return math.degrees(math.acos(min(abs(float(a @ b)), 1.0)))


def _candidates(transitions, site, m_g, m_e, u_ref):
    """(angle to u_ref in degrees, transition) for the row's site and branch.

    A degenerate transition stands for its circle of constant u.x, so
    its angle is the distance from u_ref to that circle.
    """
    x_axis = site_frame(site).x_axis
    out = []
    for ct in transitions:
        # inverting the field maps branch (m_g, m_e) to
        # (-m_g, -m_e) at the antipodal orientation, so accept
        # either labeling together with the |cos| angle comparison
        if ct.site != site or ct.branch not in ((m_g, m_e), (-m_g, -m_e)):
            continue
        u = _direction(ct.theta, ct.phi)
        if ct.degenerate:
            ang = abs(_folded_angle(u_ref, x_axis) - _folded_angle(u, x_axis))
        else:
            ang = _folded_angle(u, u_ref)
        out.append((ang, ct))
    return out


def match_clock_rows(transitions, b_tol=1e-3, angle_tol=2.0):
    """Count reference rows matched by a computed transition list."""
    matched = 0
    details = []
    for site, b_ref, th_ref, ph_ref, m_g, m_e in REFERENCE_CLOCK_ROWS:
        u_ref = _direction(th_ref, ph_ref)
        hit = None
        for ang, ct in _candidates(transitions, site, m_g, m_e, u_ref):
            if ang <= angle_tol and abs(ct.b_star - b_ref) <= b_tol:
                hit = ct
                break
        details.append((site, m_g, m_e, hit))
        if hit is not None:
            matched += 1
    return matched, details


def _row_report(transitions, model, row):
    """Analytic gradient at one reference row and the nearest listed point."""
    site, b_ref, th_ref, ph_ref, m_g, m_e = row
    u_ref = _direction(th_ref, ph_ref)
    grad = float(np.linalg.norm(sphere_gradient(model, u_ref, (m_g, m_e)))) * math.pi / 180.0
    text = (
        f"site {site} ({m_g:+.1f},{m_e:+.1f}) {b_ref * 1e3:.0f} mT at ({th_ref:.0f}, {ph_ref:.0f}): "
        f"analytic gradient {grad:.3g} MHz/deg; "
    )
    candidates = _candidates(transitions, site, m_g, m_e, u_ref)
    if not candidates:
        return text + "no listed point on this branch"
    ang, ct = min(candidates, key=lambda c: c[0])
    return text + (
        f"nearest listed {ct.b_star * 1e3:.3f} mT at ({ct.theta:.2f}, {ct.phi:.2f})"
        f"{' (circle of constant u.x)' if ct.degenerate else ''}, {ang:.2f} deg away"
    )


def check_clock_table(convention: str, splitting_model: str, grid=None) -> VerifyCheck:
    grid = grid or GridSpec(b_max=0.06)
    models = {
        sid: SiteModel(sid, convention=convention, splitting_model=splitting_model)
        for sid in range(1, 7)
    }
    transitions = []
    for model in models.values():
        transitions.extend(find_clock_transitions(model, grid))
    matched, _ = match_clock_rows(transitions)
    ok = matched == len(REFERENCE_CLOCK_ROWS)
    return VerifyCheck(
        f"clock-transition table ({convention}, {splitting_model} splitting)",
        f"{matched}/24 reference rows matched, {len(transitions)} exact solutions",
        "24/24 matched within 1 mT and 2 deg",
        "1 mT, 2 deg",
        ok,
        tuple(_row_report(transitions, models[row[0]], row) for row in REFERENCE_CLOCK_ROWS),
    )


def run_all(include_clock: bool = True) -> list[VerifyCheck]:
    checks = [
        check_g_reconstruction(),
        check_linear_zeeman(),
        check_linear_zeeman_si_table(),
        check_quadratic_zeeman(),
        check_branching_maximum(),
    ]
    if include_clock:
        for convention in ("si-table", "equal-projection"):
            for model in ("sqrt", "linear"):
                checks.append(check_clock_table(convention, model))
    return checks
