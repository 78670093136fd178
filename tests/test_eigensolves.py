"""Guard: each reconstructed state is eigendecomposed once.

The projection onto physical states diagonalizes the raw estimate, and every
quantity of the reconstructed state (its eigenvalues, purity, concurrence
and square root) reads that one projected spectrum and eigenbasis. These tests count the numpy.linalg eigensolves and
SVDs that the tomography verbs run, matrix by matrix, and check that no
eigensolve takes an already projected state.
"""

import json
import math

import numpy as np
import pytest

from entquant import (
    FULL_SETTINGS,
    SimConfig,
    cli,
    data_file,
    linear_inversion,
    parse_counts_csv,
    pauli_vector_from_counts,
    prepare_parallel,
    project_to_physical,
    pure_to_density,
    simulate_counts,
    write_counts_csv,
)

BLOCK1 = data_file("tableII_block1.csv")
BLOCK2 = data_file("tableII_block2.csv")
SOLVERS = ("eigh", "eigvalsh", "svd")


@pytest.fixture
def solves(monkeypatch):
    """name -> list of the matrices (..., 4, 4) passed to np.linalg.<name>."""
    seen = {name: [] for name in SOLVERS}
    for name in SOLVERS:
        original = getattr(np.linalg, name)

        def counting(a, *args, _seen=seen[name], _original=original, **kwargs):
            _seen.append(np.array(a, copy=True))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return seen


def matrices(calls):
    return sum(math.prod(a.shape[:-2]) for a in calls)


def projected_states(paths):
    """The reconstructed states of the counts files whose raw estimate is
    not physical, so that the projection moved it."""
    out = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            raw = linear_inversion(pauli_vector_from_counts(parse_counts_csv(fh.read())))
        rho = project_to_physical(raw)
        if np.abs(rho - raw).max() > 1e-6:
            out.append(rho)
    return out


def assert_no_projected_input(solves, projected):
    for name in ("eigh", "eigvalsh"):
        for a in solves[name]:
            for m in a.reshape(-1, 4, 4):
                assert all(np.abs(m - rho).max() > 1e-9 for rho in projected), name


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """The two fixtures and a low-flux Poisson table whose raw estimate is not physical."""
    path = tmp_path_factory.mktemp("tables") / "poisson.csv"
    rho = pure_to_density(prepare_parallel(math.radians(20.0)))
    path.write_text(write_counts_csv(simulate_counts(rho, FULL_SETTINGS, SimConfig(50.0, "poisson", 3))))
    return [BLOCK1, BLOCK2, str(path)]


def run(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_analyze_tomo(solves, capsys, tables):
    for path in tables:
        for name in SOLVERS:
            solves[name].clear()
        report = json.loads(run(capsys, "analyze", path, "--tomo", "--theta", "22.5"))
        assert 0.0 <= report["tomo_concurrence"] <= 1.0
        # one eigh of the raw estimate; one SVD for the concurrence
        assert [matrices(solves[name]) for name in SOLVERS] == [1, 0, 1], path
        assert_no_projected_input(solves, projected_states([path]))


@pytest.mark.parametrize("reference", ["singlet", "file"])
def test_tomo(solves, capsys, tables, reference):
    assert projected_states(tables)  # the check below has states to look for
    for path in tables:
        ref = BLOCK2 if reference == "file" else reference
        for name in SOLVERS:
            solves[name].clear()
        report = json.loads(run(capsys, "tomo", path, "--reference", ref))
        assert set(report) == {"eigenvalues", "purity", "tomo_concurrence", "fidelity", "inputs"}
        # one eigh of the raw estimate, and one of the reference file's raw
        # estimate (a named state's projector is its own square root); SVDs
        # for the concurrence and the fidelity
        want = [2, 0, 2] if reference == "file" else [1, 0, 2]
        assert [matrices(solves[name]) for name in SOLVERS] == want, path
        assert_no_projected_input(solves, projected_states([path] + ([ref] if reference == "file" else [])))


@pytest.mark.parametrize("noise", ["exact", "poisson"])
@pytest.mark.parametrize("damp", [(), ("--damp", "z:0.3")])
def test_sweep_g(solves, capsys, noise, damp):
    steps = 12
    out = run(capsys, "sweep-g", "--steps", str(steps), "--noise", noise, "--n", "50", "--seed", "3", *damp)
    assert len(out.splitlines()) == steps + 1
    # _simulate's eigvalsh checks the prepared states; the projection's eigh
    # takes the raw estimates, and one SVD, for c_tomo. An undamped sweep
    # reads c_true from its kets; a damped one's states are mixed, and
    # concurrence runs an eigh and an SVD on them
    calls = [2, 1, 2] if damp else [1, 1, 1]
    assert [len(solves[name]) for name in SOLVERS] == calls
    assert [matrices(solves[name]) for name in SOLVERS] == [n * steps for n in calls]
