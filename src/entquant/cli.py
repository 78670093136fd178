"""Command-line front end: analysis reports and sweep tables.

Verbs: analyze, simulate, sweep-g, sweep-k, ilut-check, tomo. Single
analyses emit JSON reports; sweeps emit CSV. Exit codes: 0 success,
2 bad input or flags, 3 incomplete counts data. An error about a counts
file's content names the file first: "error: <path>: ...".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys

import numpy as np

from . import optics
from .algebra import _matmul, apply_local_unitary, pure_to_density
from .counts import (
    FULL_SETTINGS,
    KMODE_SETTINGS,
    CountsTable,
    SimConfig,
    _delta,
    _pauli_matrix,
    _simulate,
    _unreadable,
    g_from_counts,
    k_from_counts,
    parse_counts_csv,
    simulate_counts,
    write_counts_csv,
)
from .errors import MissingSetting, ParseError
from .measures import (
    SchmidtCoeffs,
    _concurrence_from_eigh,
    _concurrence_of_kets,
    _g_terms,
    _k_terms,
    concurrence,
    concurrence_from_g,
    g_measure,
    k_separable_bound,
)
from .optics import ChannelSpec, WaveplateSpec, phase_damping, waveplate_unitary
from .tomography import _fidelity_from_sqrts, _reconstruction, _sqrt_from_eigh, _tomo_concurrence

_SQ2 = 1.0 / math.sqrt(2.0)
_NAMED_STATES = {
    "singlet": np.array([0, _SQ2, -_SQ2, 0], dtype=complex),
    "psi_plus": np.array([0, _SQ2, _SQ2, 0], dtype=complex),
    "phi_plus": np.array([_SQ2, 0, 0, _SQ2], dtype=complex),
    "phi_minus": np.array([_SQ2, 0, 0, -_SQ2], dtype=complex),
    "HH": np.array([1, 0, 0, 0], dtype=complex),
    "HV": np.array([0, 1, 0, 0], dtype=complex),
    "VH": np.array([0, 0, 1, 0], dtype=complex),
    "VV": np.array([0, 0, 0, 1], dtype=complex),
}
_FAMILIES = ("parallel", "antiparallel")
_EYE2 = np.eye(2, dtype=complex)  # an arm without plates; never written to
#: The largest sweep grid. At 10,000 points an in-process sweep-g peaks near
#: 57 MiB of memory under exact noise and 116 MiB under Poisson noise, and a
#: sweep-k near 106 and 122 MiB (ru_maxrss, --out /dev/null).
_MAX_STEPS = 10_000


def _read_table(path: str, unreadable: str | None = None) -> CountsTable:
    """The table in the file path; an unreadable file is reported as
    unreadable says, or as "cannot read <path>", and a parse error starts
    "<path>: "."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(f"{unreadable or f'cannot read {path}'}: {exc}") from None
    try:
        text = data.decode("utf-8-sig")  # skips the BOM of Excel's "CSV UTF-8"
    except UnicodeDecodeError as exc:
        # the line of the bad byte, counted as parse_counts_csv counts lines
        line = len((exc.object[: exc.start].decode("utf-8-sig") + "x").splitlines())
        raise ParseError(f"{path}: line {line}: byte {exc.object[exc.start]:#04x} is not UTF-8 ({exc.reason})") from None
    try:
        return parse_counts_csv(text)
    except ValueError as exc:
        raise _naming(path, exc) from None


def _read_estimate(path: str, estimator, unreadable: str | None = None) -> tuple:
    """The table in the file path, read by _read_table, and estimator(table),
    whose errors name the file as a parse error does."""
    table = _read_table(path, unreadable)
    return table, _named(path, estimator, table)


def _named(path: str, estimator, *args):
    """estimator(*args), an estimate from the table in the file path, whose
    errors name the file as a parse error does."""
    try:
        return estimator(*args)
    except (MissingSetting, ValueError) as exc:
        raise _naming(path, exc) from None


def _naming(where: str, exc: Exception) -> Exception:
    """exc, an error about the content of the counts file or the value of
    the flag named where, with its message after "<where>: "; its type, and
    so the exit code, stays."""
    return type(exc)(f"{where}: {exc}")


def _write_output(text: str, out: str | None) -> None:
    """text, ending in a newline, on stdout or in the file out. An existing
    regular file is rewritten in place and cut to the new length, so it keeps
    its inode, links, owner and mode (truncating it to zero first, as O_TRUNC
    does, makes ext4 start its writeback at close); any other target, such as
    /dev/null or a FIFO, is written as a stream."""
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not seekable(): /dev/null is, and cannot be truncated
                fh.truncate()
    except OSError as exc:
        raise ParseError(f"cannot write {out}: {exc}") from None


def _emit_report(report: dict, out: str | None) -> None:
    # json raises ValueError on a NaN or infinite field before anything is written
    _write_output(json.dumps(report, indent=2, allow_nan=False), out)


def _clamped_c_from_g(g):
    # noisy tables can push g marginally outside [0, 3]; the inverse map is
    # only defined there
    return concurrence_from_g(np.minimum(np.maximum(g, 0.0), 3.0))


def _parse_damp(text: str) -> ChannelSpec:
    """The --damp channel. A malformed flag is reported as such; a basis or
    probability out of range, as ChannelSpec words it, after "--damp: "."""
    basis, _, p_text = text.partition(":")
    try:
        p = float(p_text)  # without a colon p_text is "", which float rejects too
    except ValueError:
        raise ValueError(f"--damp expects x:<p> or z:<p>, got {text!r}") from None
    try:
        return ChannelSpec(basis=basis, p=p)
    except ValueError as exc:
        raise _naming("--damp", exc) from None


def _parse_waveplate(text: str, kind: str) -> tuple[str, WaveplateSpec]:
    try:
        arm, deg_text = text.split(":", 1)
        arm = arm.strip().lower()
        deg = float(deg_text)
        if arm not in ("a", "b") or not math.isfinite(deg):
            raise ValueError
        return arm, WaveplateSpec(kind=kind, angle=math.radians(deg))
    except (ValueError, TypeError):
        raise ValueError(f"--{kind.lower()} expects <arm>:<deg> with arm a|b and a finite angle, got {text!r}") from None


def _arm_unitaries(args) -> tuple[np.ndarray, np.ndarray] | None:
    """Compose per-arm waveplate unitaries; HWPs apply first, then QWPs."""
    plates = [_parse_waveplate(t, "HWP") for t in args.hwp or []]
    plates += [_parse_waveplate(t, "QWP") for t in args.qwp or []]
    units = {}
    for arm, spec in plates:  # an arm's first plate is its unitary; each later plate multiplies it from the left
        units[arm] = _matmul(waveplate_unitary(spec), units[arm]) if arm in units else waveplate_unitary(spec)
    return (units.get("a", _EYE2), units.get("b", _EYE2)) if units else None


def _prepared_kets(args, theta) -> np.ndarray:
    """--family ket at theta (a stack for an array of angles), from
    optics.prepare_<family>, looked up on optics at each call."""
    if args.family is None or theta is None:
        raise ValueError("a state spec requires --family and --theta")
    if isinstance(theta, float) and not math.isfinite(theta):  # a --theta flag; the sweep grids are checked
        raise ValueError(f"--theta must be finite, got {theta!r}")
    return getattr(optics, f"prepare_{args.family}")(np.radians(theta))


def _prepared_density(args, theta, arms=None, kets=None) -> np.ndarray:
    """--family state at theta (a stack for an array of angles), through
    --damp when given, then through the arm unitaries when given. kets, when
    given, are the _prepared_kets(args, theta) that the caller prepared."""
    rho = pure_to_density(_prepared_kets(args, theta) if kets is None else kets)
    if args.damp:
        rho = phase_damping(rho, _parse_damp(args.damp))
    return rho if arms is None else apply_local_unitary(rho, *arms)


def _schmidt_from_theta(theta_deg: float) -> SchmidtCoeffs:
    if not 0.0 <= theta_deg <= 45.0:  # written so that NaN fails too
        raise ValueError(f"--theta must lie in [0, 45] degrees, got {theta_deg!r}")
    rad = math.radians(theta_deg)
    return SchmidtCoeffs(a=math.cos(2 * rad), b=math.sin(2 * rad))


def _inputs(path: str, table: CountsTable, flag: str, value) -> dict:
    """The inputs of an analyze or tomo report on the table in the file
    path: the file, the table's source, the verb's flag as flag when its
    value is given, then the table's seed when it records one."""
    inputs = {"file": path, "source": table.source}
    if value is not None:
        inputs[flag] = value
    if table.seed is not None:
        inputs["seed"] = table.seed
    return inputs


def _cmd_analyze(args) -> int:
    table = _read_table(args.counts_file)
    # g needs all 36 settings and k the 12 of KMODE_SETTINGS. With --theta
    # and without --tomo, a table that lacks one of the 36 but holds the 12
    # gets the k section alone. Any other table that lacks a setting exits 3,
    # and g_from_counts names the first setting it lacks. A table's keys are
    # distinct settings, so it lacks one of the 36 when it holds fewer.
    k_alone = args.theta is not None and not args.tomo and len(table.counts) < len(FULL_SETTINGS) and table.counts.keys() >= set(KMODE_SETTINGS)
    res = None if k_alone else _named(args.counts_file, g_from_counts, table)
    report = {} if k_alone else {
        "g": res.g,
        "delta_g": res.delta_g,
        "covariance": res.covariance.tolist(),
        "concurrence_from_g": _clamped_c_from_g(res.g),
    }
    if args.tomo:
        report["tomo_concurrence"] = _tomo_concurrence(res.estimate[0])
    if args.theta is not None:
        kres = _named(args.counts_file, k_from_counts, table, _schmidt_from_theta(args.theta), res)
        report["k"] = {
            "value": kres.k,
            "bound": kres.bound,
            "expectations": list(kres.expectations),
            "delta_k": kres.delta_k,
        }
    report["inputs"] = _inputs(args.counts_file, table, "theta_deg", args.theta)
    _emit_report(report, args.out)
    return 0


def _cmd_simulate(args) -> int:
    rho = _prepared_density(args, args.theta, _arm_unitaries(args))
    settings = FULL_SETTINGS if args.settings == "full" else KMODE_SETTINGS
    table = simulate_counts(rho, settings, SimConfig(args.n, args.noise, args.seed))
    _write_output(write_counts_csv(table), args.out)
    return 0


def _sweep_grid(args) -> np.ndarray:
    if args.steps < 2:
        raise ValueError(f"--steps must be >= 2, got {args.steps!r}")
    if args.steps > _MAX_STEPS:  # checked before anything is allocated
        raise ValueError(f"--steps must be at most {_MAX_STEPS}, got {args.steps!r}")
    if not (0.0 <= args.start <= 45.0 and 0.0 <= args.stop <= 45.0 and args.start < args.stop):
        raise ValueError("sweep grid must satisfy 0 <= start < stop <= 45 degrees")
    return np.linspace(args.start, args.stop, args.steps)


def _csv(header: str, rows: np.ndarray) -> str:
    """The header, then a line a row, each value written as f"{v:.12g}" writes it."""
    line = "\n" + ",".join(["%.12g"] * rows.shape[1])
    return header + line * len(rows) % tuple(rows.ravel().tolist()) + "\n"


def _read_sweep(rhos: np.ndarray, settings, cfg: SimConfig, where) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_pauli_matrix of the counts simulated for the stack of states rhos,
    with a mask of the tables in place of its group mask: those with a read
    group of zero, subnormal or non-finite total. Each such table is named on
    stderr, as where(*index) names it, with its first such group; the caller
    writes nan for its estimates."""
    t, groups, inv, bad = _pauli_matrix(_simulate(rhos, settings, cfg), settings)
    tables = bad.any(axis=(-2, -1))
    for index in map(tuple, np.argwhere(tables)):  # np.ndindex order
        print(f"warning: {where(*index)}: {_unreadable(groups[index], bad[index])}; its estimates are nan", file=sys.stderr)
    return t, groups, inv, tables


def _cmd_sweep_g(args) -> int:
    grid = _sweep_grid(args)
    cfg = SimConfig(args.n, args.noise, args.seed)
    arms = _arm_unitaries(args)
    kets = _prepared_kets(args, grid)
    rhos = _prepared_density(args, grid, arms, kets)
    # undamped states are pure: the kets before the plates give their concurrence
    c_true = concurrence(rhos) if args.damp else _concurrence_of_kets(kets)
    t, groups, inv, bad = _read_sweep(rhos, FULL_SETTINGS, cfg, lambda b: f"theta {grid[b]:.12g}")
    g, _, grad = _g_terms(t)
    delta_g = _delta(groups, inv, grad, cfg.noise == "exact")
    rows = np.column_stack([grid, g, delta_g, _clamped_c_from_g(g), c_true, _tomo_concurrence(t)])
    rows[bad, 1:4] = rows[bad, 5] = np.nan
    _write_output(_csv("theta_deg,g,delta_g,c_from_g,c_true,c_tomo", rows), args.out)
    return 0


def _cmd_sweep_k(args) -> int:
    grid = _sweep_grid(args)
    cfg = SimConfig(args.n, args.noise, args.seed)
    coeffs = [_schmidt_from_theta(theta) for theta in grid.tolist()]
    fixed = np.broadcast_to([_NAMED_STATES["HH"], _NAMED_STATES["VH"]], (len(grid), 2, 4))
    kets = np.concatenate([_prepared_kets(args, grid)[:, None], fixed], axis=1)  # (B, 3, 4): family state, HH, VH
    t, _, _, bad = _read_sweep(pure_to_density(kets), KMODE_SETTINGS, cfg, lambda b, s: f"theta {grid[b]:.12g}, k{s} state")
    ks = _k_terms(t, np.array([[s.a] for s in coeffs]), np.array([[s.b] for s in coeffs]))[0]
    ks[bad] = np.nan
    rows = np.column_stack([grid, ks, [k_separable_bound(s) for s in coeffs]])
    _write_output(_csv("theta_deg,k0,k1,k2,bound", rows), args.out)
    return 0


def _cmd_ilut_check(args) -> int:
    if not 0.0 <= args.k < math.inf:  # written so that NaN fails too
        raise ValueError(f"--k must be finite and >= 0, got {args.k!r}")
    state_flags = [f"--{name}" for name in ("family", "theta", "hwp", "qwp", "damp") if getattr(args, name) is not None]
    if len(args.counts_files) == 2 and not state_flags:
        r1, r2 = (_read_estimate(p, g_from_counts)[1] for p in args.counts_files)
        g1, d1 = r1.g, r1.delta_g
        g2, d2 = r2.g, r2.delta_g
        inputs = {"files": list(args.counts_files)}
    elif not args.counts_files:
        rho = _prepared_density(args, args.theta)
        arms = _arm_unitaries(args)
        if arms is None:
            raise ValueError("state mode needs at least one --hwp or --qwp flag to compare against")
        g1, d1 = g_measure(rho).g, 0.0
        g2, d2 = g_measure(apply_local_unitary(rho, *arms)).g, 0.0
        inputs = {"family": args.family, "theta_deg": args.theta, "damp": args.damp, "hwp": args.hwp, "qwp": args.qwp}
    else:
        raise ValueError(f"ilut-check takes two counts files or a state spec, got {args.counts_files + state_flags}")
    diff = abs(g1 - g2)
    combined = math.sqrt(d1 * d1 + d2 * d2)
    # exact inputs have zero sigma; give the comparison an absolute floor
    threshold = max(args.k * combined, 1e-9)
    report = {
        "g": g1,
        "delta_g": d1,
        "g_prime": g2,
        "delta_g_prime": d2,
        "abs_difference": diff,
        "threshold": threshold,
        "k": args.k,
        "verdict": "pass" if diff <= threshold else "fail",
        "inputs": inputs,
    }
    _emit_report(report, args.out)
    return 0


def _reference_sqrt(text: str) -> np.ndarray:
    """sqrt of the --reference state: a named state, whose projector is its
    own square root, or the state that a counts file reconstructs to, from
    its projection's eigendecomposition."""
    if text in _NAMED_STATES:
        return pure_to_density(_NAMED_STATES[text])
    named = ", ".join(_NAMED_STATES)
    _, (w, v) = _read_estimate(text, _reconstruction, f"--reference {text} is neither a named state ({named}) nor a readable counts file")
    return _sqrt_from_eigh(w, v)


def _cmd_tomo(args) -> int:
    """The report reads every field from the one eigendecomposition that
    reconstructs the state."""
    table, (w, v) = _read_estimate(args.counts_file, _reconstruction)
    report = {
        "eigenvalues": w[::-1].tolist(),
        "purity": float(np.sum(w * w)),
        "tomo_concurrence": _concurrence_from_eigh(w, v),
        "inputs": _inputs(args.counts_file, table, "reference", args.reference),
    }
    if args.reference is not None:
        report["fidelity"] = _fidelity_from_sqrts(_sqrt_from_eigh(w, v), _reference_sqrt(args.reference))
    _emit_report(report, args.out)
    return 0


def _add_family_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=_FAMILIES, help="prepared state family")


def _add_optics_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--damp", metavar="BASIS:P", help="phase-damping channel on both arms, e.g. z:0.5")
    p.add_argument("--hwp", action="append", metavar="ARM:DEG", help="half-wave plate on arm a or b (repeatable)")
    p.add_argument("--qwp", action="append", metavar="ARM:DEG", help="quarter-wave plate on arm a or b (repeatable)")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=float, default=5000.0, help="mean pair flux per setting (default 5000)")
    p.add_argument("--noise", choices=("exact", "poisson"), default="exact", help="count noise model")
    p.add_argument("--seed", type=int, default=0, help="random seed for poisson noise")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--start", type=float, default=0.0, help="grid start in degrees")
    p.add_argument("--stop", type=float, default=45.0, help="grid stop in degrees")
    p.add_argument("--steps", type=int, default=19, help="number of grid points (>= 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entquant",
        description="Quantify and verify two-qubit entanglement from coincidence counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="covariance-sum report from a 36-setting counts file")
    p.add_argument("counts_file")
    p.add_argument("--tomo", action="store_true", help="include the tomography concurrence")
    p.add_argument("--theta", type=float, help="degrees; adds the nonlocal variance section")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="write a simulated counts CSV for a prepared state")
    _add_family_flag(p)
    p.add_argument("--theta", type=float, help="pump waveplate angle in degrees")
    _add_optics_flags(p)
    _add_sim_flags(p)
    p.add_argument("--settings", choices=("full", "kmode"), default="full", help="which setting list to measure")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep-g", help="CSV sweep of g and concurrence over preparation angle")
    _add_family_flag(p)
    _add_sweep_flags(p)
    _add_optics_flags(p)
    _add_sim_flags(p)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_sweep_g, family="parallel")

    p = sub.add_parser("sweep-k", help="CSV sweep of the nonlocal variance sum over angle")
    _add_family_flag(p)
    _add_sweep_flags(p)
    _add_sim_flags(p)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_sweep_k, family="parallel")

    p = sub.add_parser("ilut-check", help="compare g before/after a local unitary transformation")
    p.add_argument("counts_files", nargs="*", help="two counts files, or none with a state spec")
    _add_family_flag(p)
    p.add_argument("--theta", type=float, help="pump waveplate angle in degrees")
    _add_optics_flags(p)
    p.add_argument("--k", type=float, default=3.0, help="verdict threshold in combined sigmas")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_ilut_check)

    p = sub.add_parser("tomo", help="reconstruct the state from a counts file")
    p.add_argument("counts_file")
    p.add_argument("--reference", help="named state (singlet, phi_plus, HH, ...) or counts file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_tomo)

    return parser


_PARSER = build_parser()  # parse_args does not change a parser, so every main call can share it


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (MissingSetting, ValueError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, MissingSetting) else 2


if __name__ == "__main__":
    raise SystemExit(main())
