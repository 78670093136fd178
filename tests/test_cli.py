import json
import subprocess
import sys

import numpy as np
import pytest

from entquant import cli, counts, data_file, parse_counts_csv, tomo_concurrence, tomography

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

    def test_nan_theta_exits_2(self):
        proc = run_cli("analyze", BLOCK1, "--theta", "nan")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--theta" in proc.stderr and "non-finite" not in proc.stderr

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
