import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from entquant import (
    FULL_SETTINGS,
    KMODE_SETTINGS,
    ChannelSpec,
    SchmidtCoeffs,
    SimConfig,
    WaveplateSpec,
    apply_local_unitary,
    cli,
    concurrence,
    concurrence_from_g,
    counts,
    data_file,
    g_from_counts,
    k_from_counts,
    k_separable_bound,
    linear_inversion,
    parse_counts_csv,
    phase_damping,
    prepare_antiparallel,
    prepare_parallel,
    project_to_physical,
    pure_to_density,
    simulate_counts,
    tomo_concurrence,
    tomography,
    waveplate_unitary,
)

BLOCK1 = data_file("tableII_block1.csv")
BLOCK2 = data_file("tableII_block2.csv")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "entquant", *args],
        capture_output=True,
        text=True,
    )


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def read_csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(x) for x in ln.split(",")))) for ln in lines[1:]]
    return header, rows


class TestAnalyze:
    def test_block1_report(self):
        report = run_json("analyze", BLOCK1)
        assert 2.74 <= report["g"] <= 2.94
        assert report["delta_g"] > 0
        cov = np.array(report["covariance"])
        assert cov.shape == (3, 3)
        assert np.all(np.isfinite(cov))
        assert 0 <= report["concurrence_from_g"] <= 1
        assert report["inputs"]["file"] == BLOCK1

    def test_blocks_agree_within_tolerance(self):
        g1 = run_json("analyze", BLOCK1)["g"]
        g2 = run_json("analyze", BLOCK2)["g"]
        assert abs(g1 - g2) < 0.15

    def test_tomo_flag(self):
        report = run_json("analyze", BLOCK1, "--tomo")
        assert 0.9 < report["tomo_concurrence"] < 1.0

    def test_tomo_estimates_t_once(self, monkeypatch, capsys):
        calls = []
        original = counts._estimate

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(counts, "_estimate", counting)
        monkeypatch.setattr(tomography, "_estimate", counting)
        assert cli.main(["analyze", BLOCK1, "--tomo"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        with open(BLOCK1, encoding="utf-8") as fh:
            table = parse_counts_csv(fh.read())
        assert report["tomo_concurrence"] == tomo_concurrence(table)

    def test_non_finite_report_exits_2_and_writes_nothing(self, monkeypatch, capsys, tmp_path):
        original = cli.g_from_counts

        def nan_delta_g(table):
            return dataclasses.replace(original(table), delta_g=math.nan)

        monkeypatch.setattr(cli, "g_from_counts", nan_delta_g)
        assert cli.main(["analyze", BLOCK1]) == 2
        assert capsys.readouterr().out == ""
        out = tmp_path / "report.json"
        assert cli.main(["analyze", BLOCK1, "--out", str(out)]) == 2
        assert not out.exists()

    def test_nan_theta_exits_2(self):
        proc = run_cli("analyze", BLOCK1, "--theta", "nan")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--theta" in proc.stderr and "non-finite" not in proc.stderr

    @pytest.mark.parametrize("theta", ["180.01", "90", "-0.5"])
    def test_theta_outside_quadrant_exits_2(self, theta):
        proc = run_cli("analyze", BLOCK1, "--theta", theta)
        assert proc.returncode == 2
        assert "--theta must lie in [0, 45] degrees" in proc.stderr
        assert proc.stdout == ""

    def test_theta_flag_adds_k_section(self):
        report = run_json("analyze", BLOCK1, "--theta", "22.5")
        assert report["k"]["bound"] == pytest.approx(0.5, abs=1e-12)
        assert len(report["k"]["expectations"]) == 4

    def test_missing_setting_exits_3(self, tmp_path):
        with open(BLOCK1, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        trimmed = tmp_path / "missing_row.csv"
        trimmed.write_text("\n".join(lines[:-1]) + "\n")
        proc = run_cli("analyze", str(trimmed))
        assert proc.returncode == 3
        assert "L,L" in proc.stderr

    def test_corrupt_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("basis_a,basis_b,count\nH,W,3\n")
        proc = run_cli("analyze", str(bad))
        assert proc.returncode == 2
        assert "W" in proc.stderr

    def test_nonexistent_file_exits_2(self):
        assert run_cli("analyze", "/no/such/file.csv").returncode == 2


class TestSimulate:
    def test_exact_singlet_pipeline(self, tmp_path):
        out = tmp_path / "sim.csv"
        proc = run_cli(
            "simulate", "--family", "antiparallel", "--theta", "22.5",
            "--n", "5000", "--noise", "exact", "--out", str(out),
        )
        assert proc.returncode == 0
        report = run_json("analyze", str(out))
        assert report["g"] == pytest.approx(3.0, abs=1e-9)
        assert report["delta_g"] == 0.0

    def test_damped_bell_pipeline(self, tmp_path):
        out = tmp_path / "sim.csv"
        run_cli(
            "simulate", "--family", "parallel", "--theta", "22.5",
            "--damp", "z:0.5", "--noise", "exact", "--out", str(out),
        )
        report = run_json("analyze", str(out))
        assert report["g"] == pytest.approx(1.0, abs=1e-9)

    def test_poisson_runs_are_byte_identical(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = (
            "simulate", "--family", "antiparallel", "--theta", "22.5",
            "--noise", "poisson", "--seed", "11", "--n", "5000",
        )
        run_cli(*args, "--out", str(f1))
        run_cli(*args, "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()
        assert b"# seed: 11" in f1.read_bytes()

    def test_kmode_settings_subset(self, tmp_path):
        out = tmp_path / "k.csv"
        run_cli("simulate", "--family", "parallel", "--theta", "10", "--settings", "kmode", "--out", str(out))
        rows = [ln for ln in out.read_text().splitlines() if ln and not ln.startswith("#")]
        assert len(rows) == 1 + 12  # header + the k-mode subset

    def test_waveplates_accepted(self, tmp_path):
        out = tmp_path / "w.csv"
        proc = run_cli(
            "simulate", "--family", "antiparallel", "--theta", "22.5",
            "--hwp", "a:45", "--hwp", "b:0", "--out", str(out),
        )
        assert proc.returncode == 0
        report = run_json("analyze", str(out))
        assert report["g"] == pytest.approx(3.0, abs=1e-9)

    def test_state_spec_required(self):
        assert run_cli("simulate", "--theta", "10").returncode == 2

    @pytest.mark.parametrize(
        "flags", [("--theta", "nan"), ("--theta", "10", "--n", "nan"), ("--theta", "10", "--n", "inf")]
    )
    def test_non_finite_input_exits_2(self, flags):
        proc = run_cli("simulate", "--family", "parallel", *flags)
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_negative_poisson_seed_exits_2(self):
        proc = run_cli("simulate", "--family", "parallel", "--theta", "10", "--noise", "poisson", "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_bad_damp_flag(self):
        proc = run_cli("simulate", "--family", "parallel", "--theta", "10", "--damp", "y:0.5")
        assert proc.returncode == 2


class TestSweepG:
    def test_exact_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "sweep-g", "--family", "parallel", "--start", "0", "--stop", "45",
            "--steps", "7", "--noise", "exact", "--out", str(out),
        )
        assert proc.returncode == 0
        header, rows = read_csv_rows(out.read_text())
        assert header == ["theta_deg", "g", "delta_g", "c_from_g", "c_true", "c_tomo"]
        assert len(rows) == 7
        thetas = [r["theta_deg"] for r in rows]
        assert thetas == sorted(thetas) and len(set(thetas)) == len(thetas)
        for r in rows:
            assert all(np.isfinite(v) for v in r.values())
            c = r["c_true"]
            assert r["g"] == pytest.approx(c * c * (c * c + 2), abs=1e-9)
            assert r["c_from_g"] == pytest.approx(c, abs=1e-6)
            assert r["c_tomo"] == pytest.approx(c, abs=1e-6)
        mid = rows[3]  # theta = 22.5
        assert mid["g"] == pytest.approx(3.0, abs=1e-9)
        assert rows[0]["g"] == pytest.approx(0.0, abs=1e-12)

    def test_antiparallel_15_degrees(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(
            "sweep-g", "--family", "antiparallel", "--start", "0", "--stop", "15",
            "--steps", "2", "--noise", "exact", "--out", str(out),
        )
        _, rows = read_csv_rows(out.read_text())
        assert rows[-1]["c_true"] == pytest.approx(np.sin(np.radians(60)), abs=1e-9)
        assert rows[-1]["g"] == pytest.approx(33.0 / 16.0, abs=1e-9)

    def test_negative_poisson_seed_exits_2(self):
        proc = run_cli("sweep-g", "--noise", "poisson", "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_negative_seed_exits_2_under_exact_noise(self, capsys):
        assert cli.main(["sweep-g", "--seed", "-1"]) == 2
        assert capsys.readouterr().out == ""

    def test_bad_grid_exits_2(self):
        assert run_cli("sweep-g", "--steps", "1").returncode == 2
        assert run_cli("sweep-g", "--start", "30", "--stop", "10").returncode == 2
        assert run_cli("sweep-g", "--stop", "60").returncode == 2


class TestSweepK:
    def test_exact_sweep_shape(self, tmp_path):
        out = tmp_path / "k.csv"
        proc = run_cli(
            "sweep-k", "--start", "2.5", "--stop", "42.5", "--steps", "17",
            "--noise", "exact", "--out", str(out),
        )
        assert proc.returncode == 0
        header, rows = read_csv_rows(out.read_text())
        assert header == ["theta_deg", "k0", "k1", "k2", "bound"]
        for r in rows:
            assert abs(r["k0"]) < 1e-9
            assert r["k0"] < r["bound"]
            assert r["k1"] == pytest.approx(r["bound"], abs=1e-9)
            assert r["k2"] == pytest.approx(r["bound"], abs=1e-9)

    def test_endpoint_values(self, tmp_path):
        out = tmp_path / "k.csv"
        run_cli("sweep-k", "--start", "0", "--stop", "22.5", "--steps", "2", "--noise", "exact", "--out", str(out))
        _, rows = read_csv_rows(out.read_text())
        assert rows[0]["bound"] == pytest.approx(0.0, abs=1e-12)
        for col in ("k0", "k1", "k2"):
            assert rows[0][col] == pytest.approx(0.0, abs=1e-12)
        assert rows[1]["bound"] == pytest.approx(0.5, abs=1e-9)
        assert rows[1]["k1"] == pytest.approx(0.5, abs=1e-9)
        assert rows[1]["k2"] == pytest.approx(0.5, abs=1e-9)


class TestIlutCheck:
    def test_measured_blocks_pass_at_default_k(self):
        report = run_json("ilut-check", BLOCK1, BLOCK2)
        assert report["verdict"] == "pass"
        assert report["abs_difference"] < 0.15

    def test_exact_state_with_qwp_passes(self):
        report = run_json(
            "ilut-check", "--family", "antiparallel", "--theta", "22.5", "--qwp", "a:45"
        )
        assert report["verdict"] == "pass"
        assert report["abs_difference"] < 1e-10

    def test_different_states_fail(self, tmp_path):
        singlet_csv = tmp_path / "singlet.csv"
        hh_csv = tmp_path / "hh.csv"
        run_cli("simulate", "--family", "antiparallel", "--theta", "22.5", "--out", str(singlet_csv))
        run_cli("simulate", "--family", "parallel", "--theta", "0", "--out", str(hh_csv))
        report = run_json("ilut-check", str(singlet_csv), str(hh_csv))
        assert report["verdict"] == "fail"
        assert report["abs_difference"] == pytest.approx(3.0, abs=1e-9)

    def test_state_mode_requires_waveplate(self):
        proc = run_cli("ilut-check", "--family", "parallel", "--theta", "22.5")
        assert proc.returncode == 2

    def test_one_file_rejected(self):
        assert run_cli("ilut-check", BLOCK1).returncode == 2

    def test_simulation_flags_rejected(self):
        assert run_cli("ilut-check", BLOCK1, BLOCK2, "--noise", "poisson").returncode == 2

    @pytest.mark.parametrize(
        "flag", [("--family", "parallel"), ("--theta", "10"), ("--hwp", "a:30"), ("--qwp", "b:45"), ("--damp", "z:0.5")]
    )
    def test_state_flags_rejected_with_two_files(self, capsys, flag):
        assert cli.main(["ilut-check", BLOCK1, BLOCK2, *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag[0] in captured.err

    @pytest.mark.parametrize("k", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("mode", [(BLOCK1, BLOCK2), ("--family", "parallel", "--theta", "10", "--hwp", "a:20")])
    def test_k_must_be_finite_and_nonnegative(self, capsys, mode, k):
        assert cli.main(["ilut-check", *mode, "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--k" in captured.err


class TestTomo:
    def test_exact_singlet_reference(self, tmp_path):
        sim = tmp_path / "s.csv"
        run_cli("simulate", "--family", "antiparallel", "--theta", "22.5", "--out", str(sim))
        report = run_json("tomo", str(sim), "--reference", "singlet")
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert report["tomo_concurrence"] == pytest.approx(1.0, abs=1e-9)

    def test_block1_concurrence_range(self):
        report = run_json("tomo", BLOCK1)
        assert 0.9 < report["tomo_concurrence"] < 1.0
        assert len(report["eigenvalues"]) == 4
        assert sum(report["eigenvalues"]) == pytest.approx(1.0, abs=1e-9)

    def test_file_reference(self, tmp_path):
        report = run_json("tomo", BLOCK1, "--reference", BLOCK2)
        assert 0 <= report["fidelity"] <= 1

    def test_corrupt_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,counts\nfile,,\n")
        assert run_cli("tomo", str(bad)).returncode == 2


class TestCliContract:
    def test_unknown_command_exits_2(self):
        assert run_cli("frobnicate").returncode == 2

    def test_reports_echo_seed_for_poisson_tables(self, tmp_path):
        sim = tmp_path / "p.csv"
        run_cli(
            "simulate", "--family", "antiparallel", "--theta", "22.5",
            "--noise", "poisson", "--seed", "23", "--out", str(sim),
        )
        report = run_json("analyze", str(sim))
        assert report["inputs"]["seed"] == 23

    @pytest.mark.parametrize("verb", [("analyze", BLOCK1), ("sweep-g", "--steps", "3")])
    @pytest.mark.parametrize("target", ["no_such_dir/out.txt", ""], ids=["missing-dir", "directory"])
    def test_unwritable_out_exits_2_without_traceback(self, tmp_path, verb, target):
        out = str(tmp_path / target)
        proc = run_cli(*verb, "--out", out)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"cannot write {out}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "spec",
        [
            ("simulate", "--family", "parallel", "--theta", "10", "--noise", "exact"),
            ("sweep-k", "--noise", "exact"),
            ("sweep-k", "--noise", "poisson"),
        ],
    )
    def test_negative_seed_exits_2_in_every_noise_model(self, capsys, spec):
        assert cli.main([*spec, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be a nonnegative integer" in captured.err

    @pytest.fixture
    def overflowing_table(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("basis_a,basis_b,count\n" + "".join(f"{s.a},{s.b},1e308\n" for s in FULL_SETTINGS))
        return str(path)

    @pytest.mark.parametrize("verb", [("analyze", "--tomo"), ("tomo",), ("ilut-check",)])
    def test_overflowing_group_total_exits_2_naming_the_group(self, capsys, overflowing_table, verb):
        files = [overflowing_table] * (2 if verb[0] == "ilut-check" else 1)
        assert cli.main([verb[0], *files, *verb[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "settings group (1, 1) has non-finite total counts" in captured.err

    def test_overflowing_group_total_leaks_no_numpy_warning(self, overflowing_table):
        proc = run_cli("analyze", overflowing_table, "--tomo", "--theta", "10")
        assert proc.returncode == 2
        assert "settings group (1, 1) has non-finite total counts" in proc.stderr
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize(
        "spec",
        [
            ("simulate", "--family", "parallel", "--theta", "10", "--n", "1e300"),
            ("sweep-g", "--n", "1e300"),
            ("sweep-k", "--n", "1e19"),
        ],
    )
    def test_poisson_flux_above_numpys_limit_exits_2_naming_it(self, capsys, spec):
        assert cli.main([*spec, "--noise", "poisson"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "9.223372006484771e+18" in captured.err
        assert "lam" not in captured.err

    def test_main_does_not_rebuild_the_parser(self, monkeypatch, capsys):
        def fail():
            raise AssertionError("build_parser called by main")

        monkeypatch.setattr(cli, "build_parser", fail)
        assert cli.main(["analyze", BLOCK1]) == 0
        assert json.loads(capsys.readouterr().out)["g"] > 2

    def test_repeated_flags_do_not_leak_between_calls(self, tmp_path):
        spec = ["simulate", "--family", "parallel", "--theta", "20", "--noise", "poisson", "--seed", "5"]
        first, second, fresh = tmp_path / "first.csv", tmp_path / "second.csv", tmp_path / "fresh.csv"
        assert cli.main([*spec, "--hwp", "a:10", "--out", str(first)]) == 0
        assert cli.main([*spec, "--out", str(second)]) == 0
        assert run_cli(*spec, "--out", str(fresh)).returncode == 0
        assert second.read_bytes() == fresh.read_bytes()
        assert first.read_bytes() != fresh.read_bytes()


def _point_seed(seed, *indices):
    return int(np.random.SeedSequence([seed, *indices]).generate_state(1, dtype=np.uint64)[0])


def _row(values):
    return ",".join(f"{v:.12g}" for v in values)


def reference_sweep_g(family, grid, noise, seed, n, damp=None, arms=None):
    """sweep-g written one point at a time through the single-table API."""
    prep = prepare_parallel if family == "parallel" else prepare_antiparallel
    lines = ["theta_deg,g,delta_g,c_from_g,c_true,c_tomo"]
    for idx, theta in enumerate(grid):
        rho = pure_to_density(prep(math.radians(float(theta))))
        if damp is not None:
            rho = phase_damping(rho, damp)
        if arms is not None:
            rho = apply_local_unitary(rho, *arms)
        table = simulate_counts(rho, FULL_SETTINGS, SimConfig(n, noise, _point_seed(seed, idx)))
        res = g_from_counts(table)
        c_tomo = concurrence(project_to_physical(linear_inversion(res.t)))
        c_g = concurrence_from_g(min(3.0, max(0.0, res.g)))
        lines.append(_row((theta, res.g, res.delta_g, c_g, concurrence(rho), c_tomo)))
    return "\n".join(lines) + "\n"


def reference_sweep_k(family, grid, noise, seed, n):
    """sweep-k written one point and one state at a time."""
    prep = prepare_parallel if family == "parallel" else prepare_antiparallel
    fixed = [pure_to_density(np.eye(4, dtype=complex)[i]) for i in (0, 2)]  # HH, VH
    lines = ["theta_deg,k0,k1,k2,bound"]
    for idx, theta in enumerate(grid):
        rad = math.radians(float(theta))
        s = SchmidtCoeffs(math.cos(2 * rad), math.sin(2 * rad))
        ks = []
        for state_idx, rho in enumerate([pure_to_density(prep(rad)), *fixed]):
            cfg = SimConfig(n, noise, _point_seed(seed, idx, state_idx))
            ks.append(k_from_counts(simulate_counts(rho, KMODE_SETTINGS, cfg), s).k)
        lines.append(_row((theta, *ks, k_separable_bound(s))))
    return "\n".join(lines) + "\n"


def run_in_process(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


class TestSweepsMatchPerPointLoop:
    """The batched sweeps write the bytes that one single-table call per point writes."""

    @pytest.mark.parametrize("family", ["parallel", "antiparallel"])
    @pytest.mark.parametrize("noise,seed", [("exact", 0), ("poisson", 0), ("poisson", 977), ("poisson", 2**100 + 7)])
    def test_sweep_g(self, capsys, family, noise, seed):
        got = run_in_process(capsys, "sweep-g", "--family", family, "--steps", "23", "--noise", noise,
                             "--seed", str(seed), "--n", "500")
        assert got == reference_sweep_g(family, np.linspace(0, 45, 23), noise, seed, 500.0)

    @pytest.mark.parametrize("noise", ["exact", "poisson"])
    def test_sweep_g_with_waveplate_and_damping(self, capsys, noise):
        got = run_in_process(capsys, "sweep-g", "--family", "antiparallel", "--start", "5", "--stop", "40",
                             "--steps", "15", "--noise", noise, "--seed", "31", "--hwp", "a:10", "--qwp", "b:33",
                             "--damp", "z:0.3")
        arms = (waveplate_unitary(WaveplateSpec("HWP", math.radians(10))),
                waveplate_unitary(WaveplateSpec("QWP", math.radians(33))))
        want = reference_sweep_g("antiparallel", np.linspace(5, 40, 15), noise, 31, 5000.0,
                                 damp=ChannelSpec("z", 0.3), arms=arms)
        assert got == want

    @pytest.mark.parametrize("family", ["parallel", "antiparallel"])
    @pytest.mark.parametrize("noise,seed", [("exact", 0), ("poisson", 0), ("poisson", 2**64 + 3)])
    def test_sweep_k(self, capsys, family, noise, seed):
        got = run_in_process(capsys, "sweep-k", "--family", family, "--steps", "19", "--noise", noise,
                             "--seed", str(seed), "--n", "200")
        assert got == reference_sweep_k(family, np.linspace(0, 45, 19), noise, seed, 200.0)


def test_cli_import_leaves_numpy_random_unloaded():
    code = (
        "import sys, numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "import entquant.cli\n"
        "print(eager, 'numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.random eagerly")
    assert out == ["False", "False"]
