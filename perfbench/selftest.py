#!/usr/bin/env python3
"""Check the closed-form reference against the program's public functions.

    python3 perfbench/selftest.py        (from the repository root)

The workload checks trust ``reference``; this compares it with
garnetspin at a few points (several sites, branches and directions, with
jittered parameters passed through a generated config file), so that a
difference of convention shows up here and is not hidden.  Exit code 0
when every comparison agrees.
"""

from __future__ import annotations

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np

import reference as ref
from garnetspin.config import parse_config
from garnetspin.fitting import predicted_splitting
from garnetspin.geometry import RotationScan, field_at_angle
from garnetspin.search import (
    GridSpec,
    SiteModel,
    angular_gradient,
    branching_ratio,
    curvature,
    field_extremum,
)
from garnetspin.spectra import predict_hole_offsets

DIRECTIONS = ((37.0, 11.0), (90.0, -45.0), (121.5, 150.25), (64.0, -120.0), (12.0, 77.0))


def main() -> int:
    rng = np.random.default_rng(7)
    params = {k: dict(v) for k, v in ref.BUNDLED.items()}
    for level in params:
        params[level]["g"] = tuple(np.asarray(params[level]["g"]) * (1 + rng.uniform(-0.01, 0.01, 3)))
    config = parse_config(ref.config_text(params))
    grid = GridSpec(b_max=1.0, b_step=1e-3)
    results = []

    def compare(what, got, want, rtol, atol=0.0):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        ok = bool(np.all(np.abs(got - want) <= rtol * np.abs(want) + atol))
        results.append(ok)
        if not ok:
            print(f"MISMATCH {what}: program {got} reference {want}")

    for site in ref.SITE_AXES:
        model = SiteModel(site, config.ground, config.excited, "si-table", "sqrt")
        r = ref.Site(site, params)
        for theta, phi in DIRECTIONS:
            u = ref.unit(theta, phi)
            where = f"site {site} ({theta}, {phi})"
            compare(f"{where} splitting slopes", model.splittings_per_tesla(u), r.slopes(u), 1e-12)
            compare(f"{where} quadratic coefficient", model.quad_coeff(u), r.sigma_q(u, ref.BRANCHES[0])[1], 1e-12)
            compare(f"{where} branching ratio", branching_ratio(model, u), r.branching_ratio(u), 1e-9, 1e-15)
            for branch in ref.BRANCHES:
                s_ref, q_ref = r.sigma_q(u, branch)
                compare(f"{where} {branch} sigma", model.sigma(u, branch), s_ref, 1e-12)
                b_star = float(r.b_star(u, branch))
                b_prog = field_extremum(model, theta, phi, branch, grid)
                if 0.0 < b_star <= grid.b_max:
                    compare(f"{where} {branch} B*", b_prog, b_star, 0.0, 1e-6 / abs(2.0 * q_ref) + 1e-12)
                    compare(f"{where} {branch} curvature", curvature(model, b_star, theta, phi, branch),
                            r.curvature(u), 1e-6)
                    compare(f"{where} {branch} angular gradient",
                            angular_gradient(model, b_star, theta, phi, branch),
                            r.shift_gradient(b_star, u, branch), 1e-5, 1e-9)
                else:
                    results.append(b_prog is None)
                    if b_prog is not None:
                        print(f"MISMATCH {where} {branch}: program B* {b_prog}, reference {b_star}")
        for u, _ in r.axes():
            compare(f"site {site} axis gradient", r.shift_gradient(0.05, u, ref.BRANCHES[0]), 0.0, 0.0, 1e-12)

    for theta, phi in DIRECTIONS:
        b = 0.09 * ref.unit(theta, phi)
        got = [(f.offset, f.amplitude, f.label) for f in predict_hole_offsets(config.ground.g, config.excited.g, b)]
        want = ref.hole_features(params, b)
        results.append(len(got) == len(want) and all(g[2] == w[2] for g, w in zip(got, want)))
        if not results[-1]:
            print(f"MISMATCH SHB feature labels at ({theta}, {phi}): {len(got)} vs {len(want)}")
            continue
        compare(f"SHB offsets at ({theta}, {phi})", [g[:2] for g in got], [w[:2] for w in want], 1e-12, 1e-12)

    axis = rng.normal(size=3)
    scan = RotationScan(tuple(axis), 0.1, 0.0, 180.0, 0.5)
    for angle in (0.0, 33.5, 90.0, 179.5):
        compare(f"scan field at {angle}", field_at_angle(scan, angle), ref.scan_field(axis, 0.1, angle), 1e-12, 1e-15)
        for site in ref.SITE_AXES:
            compare(f"scan splitting site {site} at {angle}",
                    predicted_splitting(config.ground.g, scan, angle, site, "si-table"),
                    ref.scan_splitting(params["ground"]["g"], site, ref.scan_field(axis, 0.1, angle)), 1e-12)

    print(f"selftest: {sum(results)}/{len(results)} comparisons agree")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
