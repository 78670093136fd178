import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading

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
    fidelity,
    g_from_counts,
    k_from_counts,
    k_separable_bound,
    optics,
    parse_counts_csv,
    phase_damping,
    prepare_antiparallel,
    prepare_parallel,
    pure_to_density,
    reconstruct,
    simulate_counts,
    tomo_concurrence,
    tomography,
    waveplate_unitary,
    write_counts_csv,
)
from entquant.measures import _concurrence_of_kets

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

    def test_tomo_estimates_t_once(self, monkeypatch, capsys, tmp_path):
        """g, k and the tomographic state all read one estimate of the table,
        and each section equals its library function bit for bit."""
        rho = pure_to_density(prepare_parallel(math.radians(20.0)))
        paths = [BLOCK1, BLOCK2]
        for name, cfg in (("exact", SimConfig(5000.0)), ("poisson", SimConfig(50.0, "poisson", 3))):
            paths.append(str(tmp_path / f"{name}.csv"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(write_counts_csv(simulate_counts(rho, FULL_SETTINGS, cfg)))
        original = counts._estimate
        for path in paths:
            calls = []

            def counting(*args):
                calls.append(args)
                return original(*args)

            with monkeypatch.context() as patch:
                patch.setattr(counts, "_estimate", counting)
                patch.setattr(tomography, "_estimate", counting)
                assert cli.main(["analyze", path, "--tomo", "--theta", "22.5"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert len(calls) == 1, path
            with open(path, encoding="utf-8") as fh:
                table = parse_counts_csv(fh.read())
            res = g_from_counts(table)
            assert (report["g"], report["delta_g"]) == (res.g, res.delta_g)
            assert report["tomo_concurrence"] == tomo_concurrence(table)
            kres = k_from_counts(table, cli._schmidt_from_theta(22.5))
            assert report["k"]["value"] == kres.k, path
            assert report["k"]["expectations"] == list(kres.expectations), path
            assert report["k"]["delta_k"] == kres.delta_k, path
            assert (kres.delta_k == 0.0) == (path == paths[2])

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

    def test_inputs_record_theta_only_when_given(self, capsys):
        assert cli.main(["analyze", BLOCK1, "--theta", "22.5"]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"] == {"file": BLOCK1, "source": "file", "theta_deg": 22.5}
        assert cli.main(["analyze", BLOCK1]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"] == {"file": BLOCK1, "source": "file"}

    def test_missing_setting_exits_3(self, tmp_path):
        with open(BLOCK1, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        trimmed = tmp_path / "missing_row.csv"
        trimmed.write_text("\n".join(lines[:-1]) + "\n")
        proc = run_cli("analyze", str(trimmed))
        assert proc.returncode == 3
        assert "L,L" in proc.stderr

    @pytest.mark.parametrize("noise", [[], ["--noise", "poisson"], ["--noise", "poisson", "--seed", "7"]],
                             ids=["exact", "poisson-seed-0", "poisson-seed-7"])
    def test_kmode_table_gives_the_k_section_alone(self, capsys, tmp_path, noise):
        """k reads only the diagonal groups, and each count is drawn on the
        substream of its setting's ordinal, so the k-mode table's k is the
        full table's bit for bit."""
        reports = {}
        for settings in ("full", "kmode"):
            path = str(tmp_path / f"{settings}.csv")
            argv = ["simulate", "--family", "parallel", "--theta", "20", "--settings", settings, *noise, "--out", path]
            assert cli.main(argv) == 0
            assert cli.main(["analyze", path, "--theta", "20"]) == 0
            reports[settings] = json.loads(capsys.readouterr().out)
            assert reports[settings]["inputs"].pop("file") == path
        assert list(reports["kmode"]) == ["k", "inputs"]
        assert reports["kmode"] == {key: reports["full"][key] for key in ("k", "inputs")}

    def test_kmode_table_lacking_a_kmode_setting_exits_3(self, capsys, tmp_path):
        path = tmp_path / "k.csv"
        assert cli.main(["simulate", "--family", "parallel", "--theta", "20", "--settings", "kmode", "--out", str(path)]) == 0
        path.write_text("".join(line for line in path.read_text().splitlines(keepends=True) if not line.startswith("V,V,")))
        assert cli.main(["analyze", str(path), "--theta", "20"]) == 3
        assert capsys.readouterr().err == f"error: {path}: counts table is missing setting H,D\n"

    def test_kmode_table_with_an_empty_group_names_it(self, capsys, tmp_path):
        zero = set(counts.group_settings(2, 2))
        path = tmp_path / "k.csv"
        path.write_text("basis_a,basis_b,count\n" + "".join(f"{s.a},{s.b},{0 if s in zero else 7}\n" for s in KMODE_SETTINGS))
        assert cli.main(["analyze", str(path), "--theta", "20"]) == 2
        assert capsys.readouterr().err == f"error: {path}: settings group (2, 2) has zero total counts\n"

    def test_corrupt_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("basis_a,basis_b,count\nH,W,3\n")
        proc = run_cli("analyze", str(bad))
        assert proc.returncode == 2
        assert "W" in proc.stderr

    def test_nonexistent_file_exits_2(self):
        assert run_cli("analyze", "/no/such/file.csv").returncode == 2

    def test_utf8_bom_gives_the_block1_report(self, capsys, tmp_path):
        bom = tmp_path / "bom.csv"
        with open(BLOCK1, "rb") as fh:
            bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
        reports = []
        for path in (BLOCK1, str(bom)):
            assert cli.main(["analyze", path, "--tomo", "--theta", "22.5"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
            assert reports[-1]["inputs"].pop("file") == path
        assert reports[0] == reports[1]


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

    @pytest.mark.parametrize(
        "damp, fault",
        [
            ("z:1.5", "--damp: damping probability must be in [0, 1], got 1.5"),
            ("z:-0.1", "--damp: damping probability must be in [0, 1], got -0.1"),
            ("z:nan", "--damp: damping probability must be in [0, 1], got nan"),
            ("y:0.5", "--damp: channel basis must be 'x' or 'z', got 'y'"),
            ("z", "--damp expects x:<p> or z:<p>, got 'z'"),
            ("z:abc", "--damp expects x:<p> or z:<p>, got 'z:abc'"),
        ],
        ids=["above-1", "below-0", "nan", "basis-y", "no-colon", "not-a-number"],
    )
    def test_bad_damp_flag(self, capsys, damp, fault):
        """A malformed flag is named as such, and a well-formed one with a
        basis or probability out of range by that fault."""
        assert cli.main(["simulate", "--family", "parallel", "--theta", "10", "--damp", damp]) == 2
        assert capsys.readouterr() == ("", f"error: {fault}\n")

    @pytest.mark.parametrize("family", ["parallel", "antiparallel"])
    def test_preparer_is_looked_up_on_optics_per_call(self, monkeypatch, capsys, family):
        """A patch of optics.prepare_<family> (as a tracer makes) sees one call per simulate."""
        calls = []
        original = getattr(optics, f"prepare_{family}")

        def counting(theta):
            calls.append(theta)
            return original(theta)

        monkeypatch.setattr(optics, f"prepare_{family}", counting)
        for done in (1, 2, 3):
            run_in_process(capsys, "simulate", "--family", family, "--theta", str(10.0 * done))
            assert len(calls) == done
        assert calls == [math.radians(10.0 * done) for done in (1, 2, 3)]


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

    def test_state_mode_inputs_record_the_plates(self, capsys):
        argv = ["ilut-check", "--family", "antiparallel", "--theta", "22.5", "--qwp", "a:45", "--hwp", "b:10"]
        assert cli.main(argv) == 0
        inputs = json.loads(capsys.readouterr().out)["inputs"]
        assert inputs == {"family": "antiparallel", "theta_deg": 22.5, "damp": None, "hwp": ["b:10"], "qwp": ["a:45"]}
        assert cli.main(["ilut-check", "--family", "parallel", "--theta", "10", "--hwp", "a:20", "--hwp", "b:5"]) == 0
        inputs = json.loads(capsys.readouterr().out)["inputs"]
        assert inputs["hwp"] == ["a:20", "b:5"] and inputs["qwp"] is None

    def test_file_mode_inputs_are_the_files(self, capsys):
        assert cli.main(["ilut-check", BLOCK1, BLOCK2]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"] == {"files": [BLOCK1, BLOCK2]}

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

    @pytest.mark.parametrize("reference", ["singlet", "phi_plus", "HH", BLOCK2])
    def test_report_matches_the_reconstructed_state(self, capsys, tmp_path, reference):
        """Every field is read from the projection's eigendecomposition; each
        equals the same quantity computed from the reconstructed matrix."""
        sim = tmp_path / "p.csv"
        run_in_process(capsys, "simulate", "--family", "parallel", "--theta", "20", "--noise", "poisson",
                       "--n", "50", "--seed", "3", "--out", str(sim))
        for path in (BLOCK1, str(sim)):
            report = json.loads(run_in_process(capsys, "tomo", path, "--reference", reference))
            with open(path, encoding="utf-8") as fh:
                table = parse_counts_csv(fh.read())
            rho = reconstruct(table)
            np.testing.assert_allclose(report["eigenvalues"], np.linalg.eigvalsh(rho)[::-1], rtol=0, atol=1e-14)
            assert report["eigenvalues"] == sorted(report["eigenvalues"], reverse=True)
            assert report["purity"] == pytest.approx(np.trace(rho @ rho).real, rel=0, abs=1e-14)
            assert report["tomo_concurrence"] == tomo_concurrence(table)
            assert report["tomo_concurrence"] == pytest.approx(concurrence(rho), rel=0, abs=1e-14)
            sigma = cli._NAMED_STATES.get(reference)
            sigma = pure_to_density(sigma) if sigma is not None else reconstruct(cli._read_table(reference))
            assert report["fidelity"] == pytest.approx(fidelity(rho, sigma), rel=0, abs=1e-14)

    def test_corrupt_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,counts\nfile,,\n")
        assert run_cli("tomo", str(bad)).returncode == 2

    def test_unknown_reference_names_the_named_states(self, capsys, tmp_path):
        missing = str(tmp_path / "nosuch")
        assert cli.main(["tomo", BLOCK1, "--reference", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --reference {missing} is neither a named state (singlet, psi_plus, phi_plus, phi_minus, "
            f"HH, HV, VH, VV) nor a readable counts file: [Errno 2] No such file or directory: {missing!r}\n"
        )


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

    @pytest.mark.parametrize("verb", ["sweep-g", "sweep-k"])
    @pytest.mark.parametrize("steps", [10_001, 50_000_000, 100_000_000_000])
    def test_oversized_sweep_grid_exits_2_before_allocating(self, monkeypatch, capsys, verb, steps):
        def fail(*args, **kwargs):
            raise AssertionError("the rejected grid was allocated")

        monkeypatch.setattr(cli.np, "linspace", fail)
        assert cli.main([verb, "--steps", str(steps)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --steps must be at most 10000, got {steps}\n"

    @pytest.mark.parametrize("verb", ["sweep-g", "sweep-k"])
    def test_oversized_sweep_grid_leaves_no_traceback(self, verb):
        proc = run_cli(verb, "--steps", "100000000000")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --steps must be at most 10000, got 100000000000\n"

    def test_largest_sweep_grid_is_accepted(self):
        args = cli._PARSER.parse_args(["sweep-g", "--steps", "10000"])
        assert cli._sweep_grid(args).shape == (10_000,)

    @pytest.fixture(
        params=[
            # (bytes that precede the block1 rows, line of the bad byte, the byte, the decoder's reason)
            (b"\xff\xfe", 1, "0xff", "invalid start byte"),
            (b"\xef\xbb\xbf# run 2\r\n# \x80\r\n", 2, "0x80", "invalid start byte"),
            (b"# a\r# b\r\n\n# caf\xe9\n", 4, "0xe9", "invalid continuation byte"),
        ],
        ids=["utf16-bom", "utf8-bom-crlf", "cr-lines"],
    )
    def non_utf8_table(self, request, tmp_path):
        """A block1 file with a byte that is not UTF-8, and the error it must give."""
        head, line, byte, reason = request.param
        path = tmp_path / "latin.csv"
        with open(BLOCK1, "rb") as fh:
            path.write_bytes(head + fh.read())
        return str(path), f"error: {path}: line {line}: byte {byte} is not UTF-8 ({reason})\n"

    @pytest.mark.parametrize("verb", ["analyze", "tomo", "tomo --reference", "ilut-check"])
    def test_non_utf8_file_exits_2_naming_file_and_line(self, capsys, non_utf8_table, verb):
        path, message = non_utf8_table
        argv = {
            "analyze": ["analyze", path, "--tomo"],
            "tomo": ["tomo", path],
            "tomo --reference": ["tomo", BLOCK1, "--reference", path],
            "ilut-check": ["ilut-check", BLOCK1, path],
        }[verb]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_non_utf8_file_leaves_no_traceback(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfebasis_a,basis_b,count\n")
        proc = run_cli("analyze", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {path}: line 1: byte 0xff is not UTF-8 (invalid start byte)\n"

    @pytest.fixture(params=["kmode", "bad-label", "empty-group"])
    def faulty_table(self, request, tmp_path):
        """A counts file whose content a reading verb rejects, its exit code and the error it must give."""
        path = tmp_path / "faulty.csv"
        if request.param == "kmode":
            assert cli.main(["simulate", "--family", "parallel", "--theta", "10", "--settings", "kmode", "--out", str(path)]) == 0
            return str(path), 3, "counts table is missing setting H,D"
        if request.param == "bad-label":
            path.write_text("basis_a,basis_b,count\nX,H,3\n")
            return str(path), 2, "line 2: unknown basis label 'X'"
        zero = set(counts.group_settings(2, 3))
        path.write_text("basis_a,basis_b,count\n" + "".join(f"{s.a},{s.b},{0 if s in zero else 7}\n" for s in FULL_SETTINGS))
        return str(path), 2, "settings group (2, 3) has zero total counts"

    @pytest.mark.parametrize(
        "argv",
        [
            ["ilut-check", BLOCK1, "{}"],
            ["ilut-check", "{}", BLOCK1],
            ["tomo", BLOCK1, "--reference", "{}"],
            ["tomo", "{}"],
            ["analyze", "{}"],
            ["analyze", "{}", "--tomo", "--theta", "10"],
        ],
        ids=["ilut-second", "ilut-first", "tomo-reference", "tomo", "analyze", "analyze-tomo-theta"],
    )
    def test_content_errors_name_the_file(self, capsys, faulty_table, argv):
        path, code, message = faulty_table
        assert cli.main([a.format(path) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

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


#: One invocation of each verb, all of which take --out.
_VERBS = [
    ("analyze", BLOCK1, "--tomo", "--theta", "22.5"),
    ("simulate", "--family", "parallel", "--theta", "10", "--noise", "poisson", "--seed", "4"),
    ("sweep-g", "--steps", "5", "--noise", "poisson", "--seed", "4", "--n", "500"),
    ("sweep-k", "--steps", "5", "--noise", "exact"),
    ("ilut-check", BLOCK1, BLOCK2),
    ("tomo", BLOCK1, "--reference", "singlet"),
]
_FULL = ("simulate", "--family", "parallel", "--theta", "10")
_KMODE = (*_FULL, "--settings", "kmode")


class TestOutFile:
    """--out writes the bytes that stdout gets. An existing regular file is
    rewritten in place and cut to the new length; other targets are streams."""

    @pytest.mark.parametrize("verb", _VERBS, ids=[v[0] for v in _VERBS])
    def test_out_file_gets_the_stdout_bytes(self, capsys, tmp_path, verb):
        want = run_in_process(capsys, *verb)
        assert want.endswith("\n") and not want.endswith("\n\n")
        out = tmp_path / "out"
        assert run_in_process(capsys, *verb, "--out", str(out)) == ""
        assert out.read_bytes() == want.encode()

    def test_shorter_rewrite_leaves_exactly_the_new_bytes(self, capsys, tmp_path):
        out = tmp_path / "sim.csv"
        out.write_bytes(b"x" * 100_000)
        full, kmode = run_in_process(capsys, *_FULL).encode(), run_in_process(capsys, *_KMODE).encode()
        assert len(kmode) < len(full) < 100_000
        run_in_process(capsys, *_FULL, "--out", str(out))
        assert out.read_bytes() == full
        run_in_process(capsys, *_KMODE, "--out", str(out))
        assert out.read_bytes() == kmode

    def test_rewrite_keeps_the_inode_and_hard_links(self, capsys, tmp_path):
        out, link = tmp_path / "sim.csv", tmp_path / "link.csv"
        out.write_bytes(b"x" * 5000)
        os.link(out, link)
        inode = out.stat().st_ino
        run_in_process(capsys, *_KMODE, "--out", str(out))
        assert out.stat().st_ino == inode
        assert link.read_bytes() == out.read_bytes() == run_in_process(capsys, *_KMODE).encode()

    def test_out_through_a_symlink_rewrites_its_target(self, capsys, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"x" * 5000)
        link.symlink_to(target)
        run_in_process(capsys, *_KMODE, "--out", str(link))
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == run_in_process(capsys, *_KMODE).encode()

    def test_existing_file_keeps_its_mode_and_a_new_one_gets_the_umask(self, capsys, tmp_path):
        kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
        kept.write_bytes(b"x" * 5000)
        kept.chmod(0o640)
        old = os.umask(0o027)
        try:
            run_in_process(capsys, *_KMODE, "--out", str(kept))
            run_in_process(capsys, *_KMODE, "--out", str(fresh))
        finally:
            os.umask(old)
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~0o027

    @pytest.mark.parametrize("verb", [_KMODE, _VERBS[0]], ids=["simulate", "analyze"])
    def test_out_dev_null_exits_0(self, capsys, verb):
        assert run_in_process(capsys, *verb, "--out", os.devnull) == ""

    def test_out_dev_stdout_writes_stdout(self):
        proc = run_cli(*_KMODE, "--out", "/dev/stdout")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(*_KMODE).stdout

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_out_fifo_is_written_as_a_stream(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run_in_process(capsys, *_FULL, "--out", str(fifo)) == ""
        reader.join(timeout=60)
        assert got == [run_in_process(capsys, *_FULL).encode()]


def _point_seed(seed, *indices):
    return int(np.random.SeedSequence([seed, *indices]).generate_state(1, dtype=np.uint64)[0])


def _row(values):
    return ",".join(f"{v:.12g}" for v in values)


def reference_sweep_g(family, grid, noise, seed, n, damp=None, arms=None):
    """sweep-g written one point at a time through the single-table API."""
    prep = prepare_parallel if family == "parallel" else prepare_antiparallel
    lines = ["theta_deg,g,delta_g,c_from_g,c_true,c_tomo"]
    for idx, theta in enumerate(grid):
        ket = prep(math.radians(float(theta)))
        rho = pure_to_density(ket)
        if damp is not None:
            rho = phase_damping(rho, damp)
        if arms is not None:
            rho = apply_local_unitary(rho, *arms)
        # an undamped state is pure: its c_true is read from the ket before the plates
        c_true = concurrence(rho) if damp is not None else _concurrence_of_kets(ket)
        table = simulate_counts(rho, FULL_SETTINGS, SimConfig(n, noise, _point_seed(seed, idx)))
        try:
            res = g_from_counts(table)
        except ValueError:  # a read group's total is zero: the sweep writes nan for the estimates
            lines.append(_row((theta, math.nan, math.nan, math.nan, c_true, math.nan)))
            continue
        c_tomo = tomo_concurrence(table)
        c_g = concurrence_from_g(min(3.0, max(0.0, res.g)))
        lines.append(_row((theta, res.g, res.delta_g, c_g, c_true, c_tomo)))
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
            try:
                ks.append(k_from_counts(simulate_counts(rho, KMODE_SETTINGS, cfg), s).k)
            except ValueError:  # a read group's total is zero: the sweep writes nan
                ks.append(math.nan)
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


class TestLowFluxSweeps:
    """A point whose table has a read group with a zero total gets nan in its
    estimated fields and one stderr line; every other row is the per-point
    reference, and the sweep exits 0."""

    @staticmethod
    def check_warnings(out, err, pattern):
        nan_rows = [line.split(",") for line in out.splitlines()[1:] if "nan" in line]
        assert nan_rows
        warnings = err.splitlines()
        assert len(warnings) >= len(nan_rows)
        for line in warnings:
            assert re.fullmatch(pattern, line), line
        return nan_rows, warnings

    @pytest.mark.parametrize("family", ["parallel", "antiparallel"])
    @pytest.mark.parametrize("steps,seed", [(31, 5), (46, 7)])
    def test_sweep_g(self, capsys, family, steps, seed):
        assert cli.main(["sweep-g", "--family", family, "--steps", str(steps), "--noise", "poisson",
                         "--seed", str(seed), "--n", "3"]) == 0
        out, err = capsys.readouterr()
        assert out == reference_sweep_g(family, np.linspace(0, 45, steps), "poisson", seed, 3.0)
        pattern = r"warning: theta ([0-9.e-]+): settings group \([123], [123]\) has zero total counts; its estimates are nan"
        nan_rows, warnings = self.check_warnings(out, err, pattern)
        assert [re.fullmatch(pattern, w).group(1) for w in warnings] == [row[0] for row in nan_rows]
        for row in nan_rows:
            assert [row[i] == "nan" for i in range(6)] == [False, True, True, True, False, True]

    @pytest.mark.parametrize("family", ["parallel", "antiparallel"])
    @pytest.mark.parametrize("steps,seed", [(31, 5), (46, 7)])
    def test_sweep_k(self, capsys, family, steps, seed):
        assert cli.main(["sweep-k", "--family", family, "--steps", str(steps), "--noise", "poisson",
                         "--seed", str(seed), "--n", "3"]) == 0
        out, err = capsys.readouterr()
        assert out == reference_sweep_k(family, np.linspace(0, 45, steps), "poisson", seed, 3.0)
        pattern = r"warning: theta ([0-9.e-]+), k([012]) state: settings group \([123], [123]\) has zero total counts; its estimates are nan"
        _, warnings = self.check_warnings(out, err, pattern)
        rows = {line.split(",")[0]: line.split(",") for line in out.splitlines()[1:]}
        named = {re.fullmatch(pattern, w).groups() for w in warnings}
        assert named == {(theta, str(k)) for theta, row in rows.items() for k in range(3) if row[1 + k] == "nan"}

    @pytest.mark.parametrize("verb", ["sweep-g", "sweep-k"])
    def test_sweep_reads_its_stack_once(self, capsys, monkeypatch, verb):
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        original = cli._pauli_matrix
        monkeypatch.setattr(cli, "_pauli_matrix", counting)
        assert cli.main([verb, "--noise", "poisson", "--n", "3", "--seed", "5", "--steps", "31"]) == 0
        assert "nan" in capsys.readouterr().out  # some tables of the stack are unreadable
        assert len(calls) == 1

    def test_readable_sweep_writes_no_warning(self, capsys):
        assert cli.main(["sweep-g", "--steps", "31", "--noise", "poisson", "--seed", "5", "--n", "500"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "nan" not in out

    @pytest.fixture
    def empty_group_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        zero = set(counts.group_settings(3, 3))
        path.write_text("basis_a,basis_b,count\n" + "".join(f"{s.a},{s.b},{0 if s in zero else 7}\n" for s in FULL_SETTINGS))
        return str(path)

    @pytest.mark.parametrize("verb", [("analyze", "--tomo"), ("tomo",), ("ilut-check",)])
    def test_reading_verbs_still_exit_2_naming_the_group(self, capsys, empty_group_table, verb):
        files = [empty_group_table] * (2 if verb[0] == "ilut-check" else 1)
        assert cli.main([verb[0], *files, *verb[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "settings group (3, 3) has zero total counts" in captured.err


def test_cli_import_leaves_numpy_random_unloaded():
    """Importing the CLI, reading tables and simulating without noise, as a
    cold single-table run does, loads neither numpy.random nor the sampler."""
    runs = [["analyze", BLOCK1, "--tomo", "--theta", "22.5"], ["tomo", BLOCK1, "--reference", "singlet"],
            ["ilut-check", BLOCK1, BLOCK2], ["simulate", "--family", "parallel", "--theta", "10"],
            ["sweep-g", "--steps", "46"], ["sweep-k"]]
    code = (
        "import contextlib, io, sys, numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "import entquant.cli\n"
        "print(eager, 'numpy.random' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert all(entquant.cli.main(argv) == 0 for argv in {runs!r})\n"
        "print('numpy.random' in sys.modules, 'entquant.sampler' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.random eagerly")
    assert out == ["False", "False", "False", "False"]


@pytest.mark.parametrize("steps", [[], ["--steps", "8"], ["--steps", "2"]], ids=["default", "8-points", "2-points"])
@pytest.mark.parametrize("verb", ["sweep-g", "sweep-k"])
def test_poisson_sweep_leaves_numpy_random_unloaded(verb, steps):
    """A Poisson sweep draws its stack of tables in one array pass, so it
    loads the sampler but not numpy.random."""
    code = (
        "import contextlib, io, sys, numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from entquant import cli\n"
        "lazy = 'entquant.sampler' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({[verb, '--noise', 'poisson', *steps]!r}) == 0\n"
        "print(eager, 'numpy.random' in sys.modules, lazy, 'entquant.sampler' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.random eagerly")
    assert out == ["False", "False", "True", "True"]
