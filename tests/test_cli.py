import math

import numpy as np
import pytest

from conftest import make_scan, synth_resonances
from garnetspin.cli import main
from garnetspin.config import (
    ConfigError,
    load_config,
    parse_config,
    read_resonance_file,
    write_table,
)
from garnetspin.hamiltonian import EffectiveGTensor

THETA_111 = math.degrees(math.acos(1.0 / math.sqrt(3.0)))
GROUND = EffectiveGTensor(27.0, 146.0, 36.0)


class TestConfigParsing:
    def test_bundled_defaults(self):
        cfg = load_config(None)
        assert np.allclose(cfg.ground.g.as_array(), [27.0, 146.0, 36.0])
        assert np.allclose(cfg.excited.g.as_array(), [7.0, 92.0, 16.0])
        assert cfg.convention == "si-table"

    def test_line_anchored_errors(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("seed = 1\nnot a key value\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("bogus = 1\n")

    def test_unknown_convention(self):
        with pytest.raises(ConfigError, match="convention"):
            parse_config("convention = sideways\n")

    def test_level_override(self):
        cfg = parse_config(
            "ground.g_j = 1.16\nground.a_j = -470.3\nground.g = 30, 140, 40\n"
        )
        assert np.allclose(cfg.ground.g.as_array(), [30.0, 140.0, 40.0])
        # untouched level keeps the built-in defaults
        assert np.allclose(cfg.excited.g.as_array(), [7.0, 92.0, 16.0])

    def test_level_requires_some_tensor(self):
        with pytest.raises(ConfigError):
            parse_config("ground.g_j = 1.16\nground.a_j = -470.3\n")

    def test_scan_block(self):
        cfg = parse_config(
            "scan.optical_axis = 1, -1, 0\nscan.field_magnitude = 0.3\n"
        )
        assert cfg.scan is not None
        assert cfg.scan.field_magnitude == 0.3


class TestResonanceFile:
    def write(self, tmp_path, body, header="angle_deg,frequency_MHz,kind,site,weight"):
        path = tmp_path / "data.csv"
        path.write_text(header + "\n" + body)
        return str(path)

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path, "0,10.5,ground_splitting,1,1\n10,11.5,ground_splitting,2,1\n"
        )
        res = read_resonance_file(path)
        assert len(res) == 2
        assert res[0].site_assignment == 1

    def test_zero_site_unassigned(self, tmp_path):
        path = self.write(tmp_path, "0,10.5,ground_splitting,0,1\n")
        assert read_resonance_file(path)[0].site_assignment is None

    def test_bad_row_names_row_number(self, tmp_path):
        path = self.write(tmp_path, "0,10.5,ground_splitting,1,1\nx,nan,bad\n")
        with pytest.raises(ConfigError, match="row 3"):
            read_resonance_file(path)

    def test_mixed_kinds_rejected(self, tmp_path):
        path = self.write(
            tmp_path, "0,10.5,ground_splitting,1,1\n10,2.5,difference_splitting,1,1\n"
        )
        with pytest.raises(ConfigError, match="mixed"):
            read_resonance_file(path)

    def test_missing_header(self, tmp_path):
        path = self.write(tmp_path, "10,2.5,ground_splitting,1,1\n", header="a,b,c")
        with pytest.raises(ConfigError, match="header"):
            read_resonance_file(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_111_equal_projection(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--convention",
            "equal-projection",
            "predict",
            "--b-mag",
            "1.0",
            "--theta",
            f"{THETA_111}",
            "--phi",
            "45",
        )
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("1+3+5")][0]
        cells = line.split(",")
        assert abs(float(cells[1]) - 106.33) < 0.01
        assert abs(float(cells[2]) - 66.03) < 0.01

    def test_si_table_discrepancy_surfaced(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "predict",
            "--b-mag",
            "1.0",
            "--theta",
            f"{THETA_111}",
            "--phi",
            "45",
        )
        line = [l for l in out.splitlines() if l.startswith("1+3+5")][0]
        assert abs(float(line.split(",")[1]) - 121.0) < 0.1

    def test_zero_field(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--b-mag", "0")
        assert code == 0
        line = out.splitlines()[1]
        assert float(line.split(",")[1]) == 0.0

    def test_malformed_config_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense without equals\n")
        code, _, err = run_cli(capsys, "--config", str(bad), "predict", "--b-mag", "1")
        assert code == 2
        assert "line 1" in err


class TestFit:
    def write_dataset(self, tmp_path, angles, noise=0.0, assigned=True):
        scan = make_scan()
        res = synth_resonances(
            GROUND, scan, angles, noise=noise, rng=np.random.default_rng(0)
        )
        path = tmp_path / "res.csv"
        rows = ["angle_deg,frequency_MHz,kind,site,weight"]
        for r in res:
            site = r.site_assignment if assigned else 0
            rows.append(f"{r.scan_angle},{r.frequency},{r.kind},{site},1")
        path.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "scan.optical_axis = 1, -1, 0\nscan.field_magnitude = 0.3\n"
            "scan.angle_start = 0\nscan.angle_stop = 180\nscan.angle_step = 10\n"
        )
        return str(path), str(cfg)

    def test_recovers_tensor(self, capsys, tmp_path):
        angles = [float(a) for a in range(0, 190, 10)]
        data, cfg = self.write_dataset(tmp_path, angles, noise=0.02)
        code, out, _ = run_cli(capsys, "--config", cfg, "fit", "--data", data)
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("g_values")][0]
        values = [float(x) for x in line.split("(")[1].rstrip(")").split(",")]
        assert np.all(np.abs(np.array(values) - GROUND.as_array()) <= 0.02 * GROUND.as_array())

    def test_auto_assignment(self, capsys, tmp_path):
        angles = [float(a) for a in range(0, 190, 10)]
        data, cfg = self.write_dataset(tmp_path, angles, assigned=False)
        code, out, _ = run_cli(capsys, "--config", cfg, "fit", "--data", data)
        assert code == 0

    def test_too_few_angles_exit_3(self, capsys, tmp_path):
        data, cfg = self.write_dataset(tmp_path, [0.0, 10.0])
        code, _, err = run_cli(capsys, "--config", cfg, "fit", "--data", data)
        assert code == 3

    def test_mixed_kinds_exit_2(self, capsys, tmp_path):
        data, cfg = self.write_dataset(tmp_path, [0.0, 10.0, 20.0])
        with open(data, "a") as fh:
            fh.write("30,1.0,difference_splitting,1,1\n")
        code, _, err = run_cli(capsys, "--config", cfg, "fit", "--data", data)
        assert code == 2


class TestScanClock:
    def test_site1_rows(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("grid.b_max = 0.06\ngrid.theta_step = 4\ngrid.phi_step = 4\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "scan-clock", "--site", "1")
        assert code == 0
        rows = [l for l in out.splitlines()[1:] if l and not l.startswith("#")]
        assert rows
        assert all(r.split(",")[0] == "1" for r in rows)

    def test_isotropic_reports_no_solutions(self, capsys, tmp_path):
        cfg = tmp_path / "iso.cfg"
        cfg.write_text(
            "ground.g_j = 1.16\nground.a_j = -470.3\nground.g = 50, 50, 50\n"
            "excited.g_j = 0.8\nexcited.a_j = -678.3\nexcited.g = 30, 30, 30\n"
        )
        code, out, _ = run_cli(capsys, "--config", str(cfg), "scan-clock")
        assert code == 0
        assert "no isolated solutions" in out

    def test_bad_site_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "scan-clock", "--site", "9")
        assert code == 2

    def test_bundled_config_rows(self, capsys):
        code, out, _ = run_cli(capsys, "scan-clock")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "site,B_mT,theta_deg,phi_deg,m_ground,m_excited,curvature_Hz_per_G2"
        sites = [int(l.split(",")[0]) for l in lines[1:]]
        assert sites == sorted(sites) and [sites.count(s) for s in range(1, 7)] == [20] * 6

    def test_equal_projection_circles_flagged(self, capsys):
        code, out, _ = run_cli(capsys, "--convention", "equal-projection", "scan-clock", "--site", "1")
        assert code == 0
        lines = out.splitlines()[1:]
        notes = [l for l in lines if l.startswith("# degenerate:")]
        rows = [l for l in lines if not l.startswith("#")]
        assert notes and len(rows) == 8
        # each note follows the row it describes
        for k, line in enumerate(lines):
            if line.startswith("# degenerate:"):
                row = lines[k - 1].split(",")
                assert f"at ({row[2]}, {row[3]})" in line


class TestSynthAndPeaks:
    def test_seeded_runs_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (out1, out2):
            code, _, _ = run_cli(
                capsys,
                "--seed",
                "7",
                "synth",
                "--b-mag",
                "0.09",
                "--theta",
                "0",
                "--noise",
                "0.05",
                "--out",
                str(path),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_peaks(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys,
            "synth",
            "--b-mag",
            "0.09",
            "--theta",
            "0",
            "--linewidth",
            "0.15",
            "--step",
            "0.03",
            "--out",
            str(trace),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "find-peaks", "--data", str(trace), "--window", "3", "--prominence", "0.1"
        )
        assert code == 0
        peaks = [float(l.split(",")[0]) for l in out.splitlines()[1:]]
        # site-1/2 class ground anti-hole at 36 MHz/T * 0.09 T
        assert any(abs(p - 3.24) < 0.05 for p in peaks)

    def test_unreadable_trace_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "find-peaks", "--data", str(tmp_path / "none.csv"))
        assert code == 2


class TestAxis:
    """A direction whose first component is negative parses in both forms."""

    COMMANDS = {
        "predict": ["predict", "--b-mag", "1.0"],
        "synth": ["synth", "--b-mag", "0.09", "--step", "0.5"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("form", ["separate", "attached"])
    def test_negative_first_component(self, capsys, command, form):
        axis = ["--axis", "-0.85,-0.38,-0.35"] if form == "separate" else ["--axis=-0.85,-0.38,-0.35"]
        code, out, err = run_cli(capsys, *self.COMMANDS[command], *axis)
        assert code == 0, err
        # both outputs are even in the field direction
        _, expected, _ = run_cli(capsys, *self.COMMANDS[command], "--axis", "0.85,0.38,0.35")
        assert out == expected

    def test_non_numeric_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--b-mag", "1.0", "--axis", "x,y,z")
        assert code == 2
        assert "--axis" in err


class TestBadInput:
    """Bad numeric arguments and traces exit 2 with a one-line error."""

    def write_trace(self, tmp_path, offsets, amplitudes):
        path = tmp_path / "trace.csv"
        rows = "".join(f"{o},{a}\n" for o, a in zip(offsets, amplitudes))
        path.write_text("offset_MHz,amplitude\n" + rows)
        return str(path)

    def assert_rejected(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and name in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize(
        "flag, value",
        [("--window", "4"), ("--window", "0"), ("--prominence", "nan"), ("--prominence", "-0.1")],
    )
    def test_find_peaks_arguments(self, capsys, tmp_path, flag, value):
        data = self.write_trace(tmp_path, range(5), [0, 1, 0, 1, 0])
        self.assert_rejected(capsys, ["find-peaks", "--data", data, flag, value], flag)

    @pytest.mark.parametrize(
        "offsets, amplitudes, name",
        [
            ([0, 1, 3, 4], [0, 1, 0, 0], "uniform"),
            ([0, 1, 2, 3], [0, "nan", 1, 0], "finite"),
            ([0, 1, 2, 3], [0, "inf", 1, 0], "finite"),
            ([0, "inf", 2, 3], [0, 1, 0, 0], "finite"),
        ],
    )
    def test_find_peaks_trace(self, capsys, tmp_path, offsets, amplitudes, name):
        data = self.write_trace(tmp_path, offsets, amplitudes)
        self.assert_rejected(capsys, ["find-peaks", "--data", data], name)

    def test_header_only_trace(self, capsys, tmp_path):
        data = self.write_trace(tmp_path, [], [])
        self.assert_rejected(capsys, ["find-peaks", "--data", data], "no samples")

    @pytest.mark.parametrize(
        "flag, value",
        [("--linewidth", "0"), ("--step", "0"), ("--linewidth", "nan"), ("--step", "inf")],
    )
    @pytest.mark.parametrize("kind", ["shb", "odnmr"])
    def test_synth_grid(self, capsys, kind, flag, value):
        argv = ["synth", "--kind", kind, "--b-mag", "0.09", flag, value]
        self.assert_rejected(capsys, argv, flag)

    @pytest.mark.parametrize(
        "command",
        [["scan-clock"], ["broadening-map", "--b-mag", "0.1"], ["branching-map"]],
        ids=lambda c: c[0],
    )
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_angle_step(self, capsys, command, value):
        self.assert_rejected(capsys, [*command, "--angle-step", value], "--angle-step")

    @pytest.mark.parametrize("value", ["0", "-0.001", "nan", "inf"])
    def test_b_step(self, capsys, value):
        self.assert_rejected(capsys, ["scan-clock", "--b-step", value], "--b-step")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["predict", "--b-mag", "nan"], "--b-mag"),
            (["predict", "--b-mag", "inf", "--axis", "0,0,1"], "--b-mag"),
            (["predict", "--b-mag", "-1", "--axis", "0,0,1"], "--b-mag"),
            (["predict", "--b-mag", "0.1", "--theta", "nan"], "--theta"),
            (["predict", "--b-mag", "0.1", "--phi", "inf"], "--phi"),
            (["synth", "--b-mag", "0.09", "--noise", "nan"], "--noise"),
            (["synth", "--b-mag", "0.09", "--noise", "inf"], "--noise"),
            (["synth", "--b-mag", "0.09", "--noise", "-0.1"], "--noise"),
            (["synth", "--b-mag", "0.09", "--theta=-inf"], "--theta"),
            (["broadening-map", "--b-mag", "nan"], "finite"),
        ],
    )
    def test_non_finite_values(self, capsys, argv, flag):
        self.assert_rejected(capsys, argv, flag)

    @pytest.mark.parametrize("key", ["grid.b_max", "grid.b_step", "grid.theta_step", "grid.phi_step"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_grid(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"{key} = {value}\n")
        self.assert_rejected(capsys, ["--config", str(cfg), "branching-map"], "finite")

    def test_angle_step_is_used(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        argv = ["broadening-map", "--b-mag", "0.1", "--angle-step", "30", "--out", str(path)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        # 7 theta by 12 phi values on the 30-degree grid
        assert len(rows) == 7 * 12


class TestVerify:
    def test_fast_report_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fast")
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_full_report_counts_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        # the reference clock table is not reproduced (criterion 4)
        assert code == 1
        lines = out.splitlines()
        counts = {}
        for k, line in enumerate(lines):
            if "clock-transition table" in line:
                mode = line[line.index("(") + 1 : line.index(")")]
                counts[mode] = line.split("matched, ")[1].split(";")[0]
                details = lines[k + 1 : k + 25]
                assert all(d.startswith("    site ") and "analytic gradient" in d for d in details)
        assert counts["si-table, sqrt splitting"] == "120 exact solutions"
        assert counts["si-table, linear splitting"] == "24 exact solutions"
        assert "0/24 reference rows matched" in out and "12/24 reference rows matched" in out

    def test_write_table_helper(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(str(path), ["a", "b"], [(1, 2.5)], comments=["note"])
        text = path.read_text()
        assert text.splitlines()[0] == "# note"
        assert text.splitlines()[1] == "a,b"
