"""Command-line front end.

Subcommands: predict, fit, scan-clock, broadening-map, branching-map,
synth, find-peaks, verify.  Exit codes: 0 success, 2 input error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    load_config,
    read_resonance_file,
    write_table,
    write_trace,
)
from .fitting import (
    DIFFERENCE_SPLITTING,
    FitError,
    FitProblem,
    GROUND_SPLITTING,
    assign_sites,
    fit_diagnostics,
    fit_difference_tensor,
    fit_ground_tensor,
)
from .geometry import (
    GeometryError,
    LabField,
    lab_to_cartesian,
    project_onto_site,
    site_frame,
    symmetry_classes,
)
from .hamiltonian import hyperfine_splitting, quadratic_shift
from .search import (
    DegenerateError,
    SearchError,
    SiteModel,
    branching_map,
    broadening_map,
    find_clock_transitions,
)
from .spectra import SpectrumTrace, find_peaks, predict_hole_offsets, synth_odnmr, synth_shb
from .verify import run_all

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOCONV = 3


def _parse_sites(spec: str) -> list[int]:
    try:
        sites = [int(s) for s in spec.split(",")]
    except ValueError:
        raise ConfigError(f"bad site list {spec!r}")
    for s in sites:
        if not 1 <= s <= 6:
            raise ConfigError(f"site {s} out of range 1..6")
    return sites


def _field_vector(args) -> np.ndarray:
    for flag, value in (("--b-mag", args.b_mag), ("--theta", args.theta), ("--phi", args.phi)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    if args.b_mag < 0:
        raise ConfigError(f"--b-mag must be >= 0, got {args.b_mag}")
    if args.axis is not None:
        try:
            parts = [float(p) for p in args.axis.split(",")]
        except ValueError:
            raise ConfigError(f"bad --axis {args.axis!r}")
        if len(parts) != 3 or not any(parts):
            raise ConfigError("--axis needs 3 comma-separated components, not all zero")
        v = np.array(parts)
        return args.b_mag * v / np.linalg.norm(v)
    return lab_to_cartesian(LabField(args.b_mag, args.theta, args.phi))


def _positive(flag: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{flag} must be finite and > 0, got {value}")
    return value


def _resolved(config: RunConfig, args) -> RunConfig:
    convention = getattr(args, "convention", None) or config.convention
    grid = config.grid
    b_step = getattr(args, "b_step", None)
    angle_step = getattr(args, "angle_step", None)
    if b_step is not None:
        grid = replace(grid, b_step=_positive("--b-step", b_step))
    if angle_step is not None:
        angle_step = _positive("--angle-step", angle_step)
        grid = replace(grid, theta_step=angle_step, phi_step=angle_step)
    return RunConfig(config.ground, config.excited, convention, grid, config.scan, config.seed)


def cmd_predict(config: RunConfig, args) -> int:
    b = _field_vector(args)
    rows = []
    if np.linalg.norm(b) == 0:
        classes = [[1, 2, 3, 4, 5, 6]]
    else:
        classes = symmetry_classes(b)
    for members in classes:
        local = project_onto_site(b, site_frame(members[0]), config.convention)
        dg = hyperfine_splitting(config.ground.g, local)
        de = hyperfine_splitting(config.excited.g, local)
        quad_g = quadratic_shift(config.ground.constants_, config.ground.tensor, local)
        quad_e = quadratic_shift(config.excited.constants_, config.excited.tensor, local)
        rows.append(
            (
                "+".join(str(m) for m in members),
                dg,
                de,
                (quad_e - quad_g) / 1000.0,
            )
        )
    header = ["sites", "ground_splitting_MHz", "excited_splitting_MHz", "quad_coeff_GHz_per_T2"]
    print(",".join(header))
    for row in rows:
        print(f"{row[0]},{row[1]:.6g},{row[2]:.6g},{row[3]:.6g}")
    features = predict_hole_offsets(config.ground.g, config.excited.g, b, config.convention)
    print("offset_MHz,amplitude,label,sites")
    for f in features:
        print(f"{f.offset:.6g},{f.amplitude:.4g},{f.label},{'+'.join(map(str, f.sites))}")
    if args.out:
        write_table(args.out, header, rows, comments=[f"convention: {config.convention}"])
    return EXIT_OK


def cmd_fit(config: RunConfig, args) -> int:
    if config.scan is None:
        raise ConfigError("fit requires scan.* keys in the configuration")
    resonances = read_resonance_file(args.data)
    kind = resonances[0].kind
    if args.mode == "ground" and kind != GROUND_SPLITTING:
        raise ConfigError(f"--mode ground expects {GROUND_SPLITTING} data, got {kind}")
    if args.mode == "difference" and kind != DIFFERENCE_SPLITTING:
        raise ConfigError(f"--mode difference expects {DIFFERENCE_SPLITTING} data, got {kind}")
    if any(r.site_assignment is None for r in resonances):
        resonances, report = assign_sites(
            resonances,
            config.scan,
            config.ground.g,
            config.convention,
            excited=config.excited.g if args.mode == "difference" else None,
        )
        excluded = sum(1 for r in report if not r["accepted"])
        print(f"# assigned {len(resonances)} points, excluded {excluded}")
    problem = FitProblem(
        tuple(resonances),
        config.scan,
        config.convention,
        fixed_ground=config.ground.g if args.mode == "difference" else None,
    )
    result = (
        fit_ground_tensor(problem) if args.mode == "ground" else fit_difference_tensor(problem)
    )
    diag = fit_diagnostics(result, problem)
    for key, value in diag.items():
        print(f"{key} = {value}")
    if args.out:
        write_table(
            args.out,
            ["angle_deg", "frequency_MHz", "site", "residual_MHz"],
            [
                (r.scan_angle, r.frequency, r.site_assignment, res)
                for r, res in zip(problem.resonances, result.residuals)
            ],
            comments=[f"r_squared: {result.r_squared:.6f}"],
        )
    return EXIT_OK if result.converged else EXIT_NOCONV


def cmd_scan_clock(config: RunConfig, args) -> int:
    sites = _parse_sites(args.site) if args.site else list(range(1, 7))
    transitions = []
    try:
        for sid in sites:
            model = SiteModel(
                sid, config.ground, config.excited, config.convention, args.splitting_model
            )
            transitions.extend(find_clock_transitions(model, config.grid))
    except DegenerateError as exc:
        print(exc)
        return EXIT_OK
    transitions.sort(key=lambda ct: (ct.site, ct.branch[0], ct.branch[1], ct.theta))
    header = ["site", "B_mT", "theta_deg", "phi_deg", "m_ground", "m_excited", "curvature_Hz_per_G2"]
    print(",".join(header))
    if not transitions:
        print("# no isolated solutions")
    rows, notes = [], []
    for ct in transitions:
        r = (ct.site, ct.b_star * 1e3, ct.theta, ct.phi, ct.branch[0], ct.branch[1], ct.curvature)
        rows.append(r)
        print(f"{r[0]},{r[1]:.3f},{r[2]:.2f},{r[3]:.2f},{r[4]:+.1f},{r[5]:+.1f},{r[6]:.2f}")
        if ct.degenerate:
            ux = float(site_frame(ct.site).x_axis @ lab_to_cartesian(LabField(1.0, ct.theta, ct.phi)))
            notes.append(
                f"degenerate: site {r[0]} branch ({r[4]:+.1f},{r[5]:+.1f}) at ({r[2]:.2f}, {r[3]:.2f}) "
                f"stands for its whole circle u.x = {round(ux, 4) + 0.0:.4f} about local x"
            )
            print(f"# {notes[-1]}")
    if args.out:
        write_table(args.out, header, rows, comments=[f"convention: {config.convention}", *notes])
    return EXIT_OK


def cmd_broadening_map(config: RunConfig, args) -> int:
    sites = _parse_sites(args.site) if args.site else [1]
    for sid in sites:
        model = SiteModel(sid, config.ground, config.excited, config.convention)
        m = broadening_map(model, args.b_mag, config.grid)
        print(f"# site {sid}: {len(m.extrema)} stationary points")
        for e in m.extrema:
            ring = "; degenerate: stands for the circle u.x = 0" if e["degenerate"] else ""
            print(
                f"#   {e['kind']} at ({e['theta_deg']:.1f}, {e['phi_deg']:.1f}) deg, "
                f"splitting {e['splitting_MHz']:.4f} MHz{ring}"
            )
        if args.out:
            path = args.out if len(sites) == 1 else f"{args.out}.site{sid}"
            tg, pg = np.meshgrid(m.thetas, m.phis, indexing="ij")
            write_table(
                path,
                ["theta_deg", "phi_deg", "splitting_MHz"],
                zip(tg.ravel(), pg.ravel(), m.values.ravel()),
                comments=[f"site: {sid}", f"B: {args.b_mag} T"],
            )
    return EXIT_OK


def cmd_branching_map(config: RunConfig, args) -> int:
    sites = _parse_sites(args.site) if args.site else [1]
    for sid in sites:
        model = SiteModel(sid, config.ground, config.excited, config.convention)
        m = branching_map(model, config.grid)
        e = m.extrema[0]
        print(
            f"site {sid}: max ratio {e['ratio']:.4f} at ({e['theta_deg']:.1f}, "
            f"{e['phi_deg']:.1f}) deg, {e['angle_to_local_x_deg']:.1f} deg from local x"
        )
        if args.out:
            path = args.out if len(sites) == 1 else f"{args.out}.site{sid}"
            tg, pg = np.meshgrid(m.thetas, m.phis, indexing="ij")
            write_table(
                path,
                ["theta_deg", "phi_deg", "branching_ratio"],
                zip(tg.ravel(), pg.ravel(), m.values.ravel()),
                comments=[f"site: {sid}"],
            )
    return EXIT_OK


def cmd_synth(config: RunConfig, args) -> int:
    _positive("--linewidth", args.linewidth)
    _positive("--step", args.step)
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise ConfigError(f"--noise must be finite and >= 0, got {args.noise}")
    b = _field_vector(args)
    seed = args.seed if args.seed is not None else config.seed
    if args.kind == "shb":
        features = predict_hole_offsets(config.ground.g, config.excited.g, b, config.convention)
        span = max(abs(f.offset) for f in features) + 5.0 * args.linewidth
        trace = synth_shb(
            features,
            -span,
            span,
            args.step,
            args.linewidth,
            noise_level=args.noise,
            seed=seed,
        )
    else:
        trace = synth_odnmr(
            config.ground.g,
            b,
            config.convention,
            rf_linewidth=args.linewidth,
            step=args.step,
            noise_level=args.noise,
            seed=seed,
        )
    if args.out:
        write_trace(args.out, trace, comments=[f"seed: {seed}"])
        print(f"wrote {len(trace.offsets)} samples to {args.out}")
    else:
        print("offset_MHz,amplitude")
        for off, amp in zip(trace.offsets, trace.amplitude):
            print(f"{off:.6g},{amp:.6g}")
    return EXIT_OK


def cmd_find_peaks(config: RunConfig, args) -> int:
    if args.window < 1 or args.window % 2 == 0:
        raise ConfigError(f"--window must be odd and >= 1, got {args.window}")
    if not (math.isfinite(args.prominence) and args.prominence >= 0):
        raise ConfigError(f"--prominence must be finite and >= 0, got {args.prominence}")
    try:
        with open(args.data, "r", encoding="utf-8") as fh:
            lines = [
                l
                for l in fh.read().splitlines()
                if l.strip() and not l.lstrip().startswith("#")
            ]
        if len(lines) < 2:
            raise ValueError("no samples after the header line")
        data = np.loadtxt(lines[1:], delimiter=",", usecols=(0, 1), ndmin=2)
        if not np.isfinite(data).all():
            raise ValueError("offsets and amplitudes must be finite")
        trace = SpectrumTrace(data[:, 0], data[:, 1], "shb")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read trace {args.data!r}: {exc}")
    peaks = find_peaks(trace, window=args.window, prominence=args.prominence)
    print("offset_MHz,amplitude")
    for off, amp in peaks:
        print(f"{off:.6g},{amp:.6g}")
    return EXIT_OK


def cmd_verify(config: RunConfig, args) -> int:
    checks = run_all(include_clock=not args.fast)
    all_ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: measured {c.measured}; expected {c.expected}; tol {c.tolerance}")
        for line in c.details:
            print(f"    {line}")
        all_ok &= c.passed
    print("verify:", "all checks passed" if all_ok else "some checks FAILED")
    return EXIT_OK if all_ok else 1


def _add_field_args(p, required=True):
    p.add_argument("--b-mag", type=float, required=required, help="field magnitude, tesla")
    p.add_argument("--theta", type=float, default=0.0, help="polar angle from <001>, degrees")
    p.add_argument("--phi", type=float, default=0.0, help="azimuth from <100>, degrees")
    p.add_argument("--axis", help="field direction as 'x,y,z' (overrides theta/phi)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="garnetspin",
        description="Spin-Hamiltonian modelling, tensor fitting and clock-transition "
        "search for six-site garnet dopants",
    )
    parser.add_argument("--config", help="key=value configuration file (bundled defaults if omitted)")
    parser.add_argument("--convention", choices=["si-table", "equal-projection"])
    parser.add_argument("--seed", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="per-class splittings, quadratic coefficients, hole offsets")
    _add_field_args(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("fit", help="fit a tensor to a resonance dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["ground", "difference"], default="ground")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("scan-clock", help="search orientation space for clock transitions")
    p.add_argument("--site", help="comma-separated site ids, default all")
    p.add_argument("--b-step", type=float)
    p.add_argument("--angle-step", type=float)
    p.add_argument("--splitting-model", choices=["sqrt", "linear"], default="sqrt")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_scan_clock)

    p = sub.add_parser("broadening-map", help="splitting surface over orientation")
    p.add_argument("--site")
    p.add_argument("--b-mag", type=float, required=True)
    p.add_argument("--angle-step", type=float)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_broadening_map)

    p = sub.add_parser("branching-map", help="branching-ratio surface over orientation")
    p.add_argument("--site")
    p.add_argument("--angle-step", type=float)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_branching_map)

    p = sub.add_parser("synth", help="synthesize a spectrum trace")
    _add_field_args(p)
    p.add_argument("--kind", choices=["shb", "odnmr"], default="shb")
    p.add_argument("--linewidth", type=float, default=0.5, help="feature FWHM, MHz")
    p.add_argument("--step", type=float, default=0.02, help="grid step, MHz")
    p.add_argument("--noise", type=float, default=0.0, help="white noise sigma")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("find-peaks", help="extract peaks from a two-column trace file")
    p.add_argument("--data", required=True)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--prominence", type=float, default=0.1)
    p.set_defaults(fn=cmd_find_peaks)

    p = sub.add_parser("verify", help="run the built-in agreement report")
    p.add_argument("--fast", action="store_true", help="skip the clock-transition comparison")
    p.set_defaults(fn=cmd_verify)

    return parser


def _attach_axis_value(argv: list[str]) -> list[str]:
    """Write ``--axis -1,0,0`` as ``--axis=-1,0,0``.

    argparse reads a separate value that starts with '-' and is not a
    plain number as the next option, so it would reject a direction
    whose first component is negative.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--axis" and re.match(r"-\.?\d", arg):
            out[-1] = f"--axis={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_axis_value(sys.argv[1:] if argv is None else argv))
    try:
        config = load_config(args.config)
        config = _resolved(config, args)
        if args.seed is not None:
            config = RunConfig(
                config.ground, config.excited, config.convention, config.grid, config.scan, args.seed
            )
        return args.fn(config, args)
    except (ConfigError, GeometryError, SearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    sys.exit(main())
