"""The four benchmark workloads: inputs made from a seed, one op, its check.

Every op is one invocation of a public CLI verb; the program sees only the
generated argv and the files written here. A check raises CheckFailed with
the reason when an output is wrong. Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# A 1-degree grid. 181 points (0.25 degrees) made 1.1 s ops, within which the
# host's speed jitters unseen by the probes around each op (speed.py); 46
# points give 0.3 s ops, four times as many per run, and a quarter the spread.
SWEEP_STEPS = 46
CORPUS_PAIRS = 31  # generated table pairs; the two fixtures make pair 32
ANALYZE_THETA = 22.5  # Schmidt amplitudes a = b = 1/sqrt(2)
FIXTURE_G = (2.74, 2.94)  # published range of g on both measured blocks
FIXTURE_C = (0.9, 1.0)  # and of their tomographic concurrence


class CheckFailed(Exception):
    """An op's output is wrong; the message says how."""


@dataclass
class Op:
    argv: list[str]
    tables: int  # coincidence tables the op processes
    check: Callable[[str], None]  # called with the op's stdout


@dataclass
class Context:
    workdir: Path  # scratch space for generated inputs and outputs
    seed: int
    src: Path  # the program's source tree
    call: Callable[[list[str]], tuple[int, str]]  # CLI verb in-process -> (exit code, stdout)


@dataclass
class Plan:
    warmup: list[Op]  # run once at set-up, untimed, still checked
    op: Callable[[int], Op]  # the i-th op of the closed loop
    cold: bool = False  # ops run as fresh processes


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


def _close(x: float, y: float, tol: float, what: str) -> None:
    _require(abs(x - y) <= tol, f"{what}: {x!r} vs expected {y!r} (tol {tol:g})")


def _within_error(x: float, truth: float, sigma: float, what: str) -> None:
    """Poisson estimate within 5 sigma (plus 0.01) of the exact value."""
    _require(sigma >= 0.0, f"{what}: negative error bar {sigma!r}")
    _close(x, truth, 5.0 * sigma + 0.01, what)


def _all_finite(node, what: str) -> None:
    if isinstance(node, dict):
        for v in node.values():
            _all_finite(v, what)
    elif isinstance(node, list):
        for v in node:
            _all_finite(v, what)
    elif isinstance(node, float):
        _require(math.isfinite(node), f"{what}: non-finite value")


def _report(out: str, keys: tuple[str, ...], what: str) -> dict:
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{what}: stdout is not JSON ({exc})") from None
    missing = [k for k in keys if k not in report]
    _require(not missing, f"{what}: report lacks {missing}")
    _all_finite(report, what)
    return report


# ---------------------------------------------------------------------------
# sweep_g_poisson
# ---------------------------------------------------------------------------


def _check_sweep(steps: int) -> Callable[[str], None]:
    grid = np.linspace(0.0, 45.0, steps)

    def check(out: str) -> None:
        lines = out.splitlines()
        _require(len(lines) == steps + 1, f"sweep: {len(lines)} lines, expected {steps + 1}")
        _require(lines[0] == "theta_deg,g,delta_g,c_from_g,c_true,c_tomo", "sweep: bad header")
        for theta_exp, line in zip(grid, lines[1:]):
            theta, g, dg, c_g, c_true, c_tomo = (float(v) for v in line.split(","))
            _require(all(map(math.isfinite, (theta, g, dg, c_g, c_true, c_tomo))), f"sweep: {line!r}")
            _close(theta, theta_exp, 1e-9, "sweep theta")
            c = abs(math.sin(4.0 * math.radians(theta)))
            _close(c_true, c, 1e-9, f"sweep c_true at {theta}")
            _within_error(g, c * c * (c * c + 2.0), dg, f"sweep g at {theta}")
            _require(0.0 <= c_g <= 1.0 and 0.0 <= c_tomo <= 1.0, f"sweep: concurrence out of [0, 1] at {theta}")

    return check


def sweep_g_poisson(ctx: Context) -> Plan:
    def sweep(steps: int, op_seed: int) -> Op:
        argv = ["sweep-g", "--steps", str(steps), "--noise", "poisson", "--seed", str(op_seed)]
        return Op(argv, steps, _check_sweep(steps))

    def op(i: int) -> Op:
        op_seed = int(np.random.SeedSequence([ctx.seed, i]).generate_state(1)[0] >> 1)
        return sweep(SWEEP_STEPS, op_seed)

    return Plan(warmup=[sweep(2, ctx.seed)], op=op)


# ---------------------------------------------------------------------------
# simulate_write
# ---------------------------------------------------------------------------


def _balanced(rng: np.random.Generator, values: list, size: int) -> list:
    """values repeated to size in equal shares, in seeded order, so that every
    seed gives the same mix of op kinds and only the order differs."""
    out = [values[i % len(values)] for i in range(size)]
    return [out[i] for i in rng.permutation(size)]


def _sim_state(spec: dict) -> np.ndarray:
    rho = ref.prepared(spec["family"], spec["theta"])
    if spec["damp"] is not None:
        basis, p = spec["damp"]
        rho = ref.dephase(rho, basis, p)
    units = {"a": np.eye(2, dtype=complex), "b": np.eye(2, dtype=complex)}
    for kind, arm, deg in spec["plates"]:  # the CLI applies HWPs before QWPs
        units[arm] = ref.waveplate(kind, deg) @ units[arm]
    return ref.local(rho, units["a"], units["b"])


def _check_simulate(path: Path, spec: dict) -> Callable[[str], None]:
    settings = ref.FULL if spec["settings"] == "full" else ref.KMODE
    n = spec["n"]

    def check(out: str) -> None:
        meta, got_settings, counts = ref.parse_csv(path.read_text(encoding="utf-8"))
        _require(got_settings == settings, f"simulate: wrong setting set ({len(got_settings)} settings)")
        mean = n * ref.probabilities(_sim_state(spec), settings)
        _require(meta.get("source") == spec["noise"], f"simulate: source {meta.get('source')!r}")
        if spec["noise"] == "exact":
            for s, x, y in zip(settings, counts, mean):
                _close(x, y, 1e-9 * max(abs(y), 1.0), f"simulate exact count {s}")
            return
        _require(meta.get("seed") == str(spec["seed"]), f"simulate: seed comment {meta.get('seed')!r}")
        for s, x, y in zip(settings, counts, mean):
            _require(x >= 0 and x == int(x), f"simulate poisson count {s} = {x!r}")
            # gross-error guard only: 8 sigma + 8 never trips on a right table
            _close(x, y, 8.0 * math.sqrt(y) + 8.0, f"simulate poisson count {s}")

    return check


def simulate_write(ctx: Context) -> Plan:
    size = 64
    rng = np.random.default_rng([ctx.seed, 2])
    fam = _balanced(rng, ["parallel", "antiparallel"], size)
    noise = _balanced(rng, ["exact", "poisson"], size)
    settings = _balanced(rng, ["full", "full", "full", "kmode"], size)
    damp = _balanced(rng, [None, None, "z", "x"], size)
    plates = _balanced(rng, [(), ("hwp",), ("qwp",), ("hwp", "qwp")], size)
    flux = _balanced(rng, [50, 500, 5000, 50000], size)
    specs = []
    for i in range(size):
        specs.append(
            {
                "family": fam[i],
                "theta": float(rng.uniform(0.0, 45.0)),
                "damp": None if damp[i] is None else (damp[i], float(rng.uniform(0.0, 1.0))),
                "plates": [(k, str(rng.choice(["a", "b"])), float(rng.uniform(0.0, 180.0))) for k in plates[i]],
                "noise": noise[i],
                "settings": settings[i],
                "n": flux[i],
                "seed": int(rng.integers(0, 2**31)),
            }
        )

    def op(i: int) -> Op:
        spec = specs[i % size]
        path = ctx.workdir / f"sim{i % 8}.csv"
        argv = ["simulate", "--family", spec["family"], "--theta", repr(spec["theta"])]
        if spec["damp"] is not None:
            argv += ["--damp", f"{spec['damp'][0]}:{spec['damp'][1]!r}"]
        for kind, arm, deg in spec["plates"]:
            argv += [f"--{kind}", f"{arm}:{deg!r}"]
        argv += ["--n", str(spec["n"]), "--noise", spec["noise"], "--seed", str(spec["seed"])]
        argv += ["--settings", spec["settings"], "--out", str(path)]
        return Op(argv, 1, _check_simulate(path, spec))

    return Plan(warmup=[op(i) for i in range(4)], op=op)


# ---------------------------------------------------------------------------
# analyze_corpus
# ---------------------------------------------------------------------------


@dataclass
class _Table:
    path: str
    truth: np.ndarray | None  # None for the measured fixtures
    exact: bool
    n: int = 0  # mean pairs per setting


def _corpus_state(kind: str, rng: np.random.Generator) -> np.ndarray:
    if kind == "bell":
        rho = ref.density(ref.SINGLET)
    elif kind == "werner":
        p = rng.uniform(0.0, 1.0)
        rho = p * ref.density(ref.SINGLET) + (1.0 - p) * np.eye(4) / 4.0
    elif kind == "separable":
        rho = np.kron(ref.random_mixed(rng, 2), ref.random_mixed(rng, 2))
    else:
        return ref.random_mixed(rng)
    return ref.local(rho, ref.haar_unitary(rng), ref.haar_unitary(rng))


def _write_table(path: Path, rho: np.ndarray, n: int, exact: bool, rng: np.random.Generator) -> None:
    mean = n * ref.probabilities(rho, ref.FULL)
    counts = mean if exact else rng.poisson(mean)
    path.write_text(ref.counts_csv(ref.FULL, counts, "exact" if exact else "poisson"), encoding="utf-8")


def _check_g(report: dict, key_g: str, key_dg: str, table: _Table, what: str) -> None:
    g, dg = report[key_g], report[key_dg]
    if table.truth is None:
        _require(FIXTURE_G[0] <= g <= FIXTURE_G[1], f"{what}: fixture g = {g!r} outside {FIXTURE_G}")
        return
    if table.exact:
        _require(dg == 0.0, f"{what}: exact table has delta_g {dg!r}")
        _close(g, ref.g_value(table.truth), 1e-9, f"{what} exact g")
    else:
        _within_error(g, ref.g_value(table.truth), dg, f"{what} g")


def _check_analyze(table: _Table) -> Callable[[str], None]:
    def check(out: str) -> None:
        keys = ("g", "delta_g", "covariance", "concurrence_from_g", "tomo_concurrence", "k", "inputs")
        r = _report(out, keys, "analyze")
        cov = np.array(r["covariance"], dtype=float)
        _require(cov.shape == (3, 3), "analyze: covariance is not 3x3")
        _close(r["g"], float(np.sum(cov * cov)), 1e-9 * max(1.0, r["g"]), "analyze g vs covariance")
        c_g = math.sqrt(math.sqrt(min(3.0, max(0.0, r["g"])) + 1.0) - 1.0)
        _close(r["concurrence_from_g"], c_g, 1e-12, "analyze concurrence_from_g")
        _require(r["inputs"].get("file") == table.path, "analyze: inputs.file")
        _check_g(r, "g", "delta_g", table, "analyze")
        c_tomo, k = r["tomo_concurrence"], r["k"]
        _close(k["bound"], 0.5, 1e-12, "analyze k bound")
        _require(len(k["expectations"]) == 4, "analyze: k needs four expectations")
        _close(sum(k["expectations"]), 1.0, 1e-9, "analyze k expectations sum")
        _require(k["value"] >= 0.0, "analyze: k < 0")
        if table.truth is None:
            _require(FIXTURE_C[0] < c_tomo < FIXTURE_C[1], f"analyze: fixture concurrence {c_tomo!r}")
            return
        k_true = ref.k_value(table.truth, math.sqrt(0.5), math.sqrt(0.5))
        if table.exact:
            _close(k["value"], k_true, 1e-9, "analyze exact k")
            _close(c_tomo, ref.concurrence(table.truth), 1e-6, "analyze exact tomo_concurrence")
        else:
            # a gross-error guard, not 5 delta_k: the delta-method delta_k
            # understates the spread on sparse tables with empty settings
            _close(k["value"], k_true, 10.0 / math.sqrt(table.n) + 0.01, "analyze k")
        _require(0.0 <= c_tomo <= 1.0, "analyze: tomo_concurrence out of [0, 1]")

    return check


def _check_tomo(table: _Table) -> Callable[[str], None]:
    def check(out: str) -> None:
        r = _report(out, ("eigenvalues", "purity", "tomo_concurrence", "fidelity", "inputs"), "tomo")
        eigs = r["eigenvalues"]
        _require(len(eigs) == 4 and min(eigs) >= -1e-9, f"tomo: eigenvalues {eigs}")
        _require(all(x >= y - 1e-12 for x, y in zip(eigs, eigs[1:])), "tomo: eigenvalues not descending")
        _close(sum(eigs), 1.0, 1e-9, "tomo trace")
        _close(r["purity"], sum(x * x for x in eigs), 1e-9, "tomo purity")
        _require(0.0 <= r["tomo_concurrence"] <= 1.0, "tomo: concurrence out of [0, 1]")
        _require(-1e-9 <= r["fidelity"] <= 1.0 + 1e-9, "tomo: fidelity out of [0, 1]")
        _require(r["inputs"].get("reference") == "singlet", "tomo: inputs.reference")
        if table.truth is None:
            _require(FIXTURE_C[0] < r["tomo_concurrence"] < FIXTURE_C[1], "tomo: fixture concurrence")
        elif table.exact:
            _close(r["fidelity"], ref.singlet_fidelity(table.truth), 1e-6, "tomo exact fidelity")
            _close(r["tomo_concurrence"], ref.concurrence(table.truth), 1e-6, "tomo exact concurrence")

    return check


def _check_ilut(first: _Table, second: _Table) -> Callable[[str], None]:
    def check(out: str) -> None:
        keys = ("g", "delta_g", "g_prime", "delta_g_prime", "abs_difference", "threshold", "verdict")
        r = _report(out, keys, "ilut-check")
        _check_g(r, "g", "delta_g", first, "ilut-check")
        _check_g(r, "g_prime", "delta_g_prime", second, "ilut-check prime")
        _close(r["abs_difference"], abs(r["g"] - r["g_prime"]), 1e-12, "ilut-check difference")
        threshold = max(3.0 * math.hypot(r["delta_g"], r["delta_g_prime"]), 1e-9)
        _close(r["threshold"], threshold, 1e-12 * threshold, "ilut-check threshold")
        verdict = "pass" if r["abs_difference"] <= r["threshold"] else "fail"
        _require(r["verdict"] == verdict, f"ilut-check: verdict {r['verdict']!r}")

    return check


def analyze_corpus(ctx: Context) -> Plan:
    """Pairs (rho, U_a (x) U_b rho U^dag) with independent noise, plus the fixtures."""
    rng = np.random.default_rng([ctx.seed, 3])
    kinds = _balanced(rng, ["bell", "werner", "separable", "random"], CORPUS_PAIRS)
    flux = _balanced(rng, [50, 500, 5000, 50000], CORPUS_PAIRS)
    exact = _balanced(rng, [True] + [False] * 7, CORPUS_PAIRS)
    pairs: list[tuple[_Table, _Table]] = []
    for k in range(CORPUS_PAIRS):
        rho = _corpus_state(kinds[k], rng)
        rho2 = ref.local(rho, ref.haar_unitary(rng), ref.haar_unitary(rng))
        pair = []
        for j, state in enumerate((rho, rho2)):
            path = ctx.workdir / f"t{k:02d}{'ab'[j]}.csv"
            _write_table(path, state, flux[k], exact[k], rng)
            pair.append(_Table(str(path), state, exact[k], flux[k]))
        pairs.append((pair[0], pair[1]))
    fixtures = []
    for name in ("tableII_block1.csv", "tableII_block2.csv"):
        path = ctx.workdir / name
        shutil.copyfile(ctx.src / "entquant" / "data" / name, path)
        fixtures.append(_Table(str(path), None, False))
    pairs.append((fixtures[0], fixtures[1]))
    tables = [t for pair in pairs for t in pair]

    size = 256
    verbs = _balanced(rng, ["analyze"] * 14 + ["tomo"] * 3 + ["ilut"] * 3, size)
    table_order = rng.permutation(len(tables))
    pair_order = rng.permutation(len(pairs))
    ops: list[Op] = []
    n_tab = n_pair = 0
    for verb in verbs:
        if verb == "ilut":
            first, second = pairs[pair_order[n_pair % len(pairs)]]
            n_pair += 1
            ops.append(Op(["ilut-check", first.path, second.path], 2, _check_ilut(first, second)))
            continue
        table = tables[table_order[n_tab % len(tables)]]
        n_tab += 1
        if verb == "analyze":
            argv = ["analyze", table.path, "--tomo", "--theta", str(ANALYZE_THETA)]
            ops.append(Op(argv, 1, _check_analyze(table)))
        else:
            ops.append(Op(["tomo", table.path, "--reference", "singlet"], 1, _check_tomo(table)))
    warmup = [next(o for o in ops if o.argv[0] == v) for v in ("analyze", "tomo", "ilut-check")]
    return Plan(warmup=warmup, op=lambda i: ops[i % size])


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def cli_cold(ctx: Context) -> Plan:
    path = ctx.workdir / "tableII_block1.csv"
    shutil.copyfile(ctx.src / "entquant" / "data" / "tableII_block1.csv", path)
    argv = ["analyze", str(path), "--tomo"]
    code, out = ctx.call(argv)
    _require(code == 0, f"cli_cold: in-process analyze exited {code}")
    expected = _report(out, ("g", "tomo_concurrence"), "cli_cold in-process")

    def check(out: str) -> None:
        r = _report(out, ("g", "delta_g", "tomo_concurrence"), "cli_cold")
        _close(r["g"], expected["g"], 1e-12, "cli_cold g vs in-process")
        _close(r["tomo_concurrence"], expected["tomo_concurrence"], 1e-12, "cli_cold tomo vs in-process")
        _require(FIXTURE_G[0] <= r["g"] <= FIXTURE_G[1], f"cli_cold: fixture g = {r['g']!r}")

    cold_op = Op(argv, 1, check)
    return Plan(warmup=[cold_op], op=lambda i: cold_op, cold=True)


WORKLOADS = {
    "sweep_g_poisson": sweep_g_poisson,
    "simulate_write": simulate_write,
    "analyze_corpus": analyze_corpus,
    "cli_cold": cli_cold,
}
