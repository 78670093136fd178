"""Command-line front end: analysis reports and sweep tables.

Verbs: analyze, simulate, sweep-g, sweep-k, ilut-check, tomo. Single
analyses emit JSON reports; sweeps emit CSV. Exit codes: 0 success,
2 bad input or flags, 3 incomplete counts data.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .algebra import apply_local_unitary, pure_to_density
from .counts import (
    FULL_SETTINGS,
    KMODE_SETTINGS,
    CountsTable,
    SimConfig,
    _delta,
    _pauli_matrix,
    _simulate,
    g_from_counts,
    k_from_counts,
    parse_counts_csv,
    simulate_counts,
    write_counts_csv,
)
from .errors import MissingSetting, ParseError
from .measures import (
    SchmidtCoeffs,
    _g_terms,
    _k_terms,
    concurrence,
    concurrence_from_g,
    g_measure,
    k_separable_bound,
)
from .optics import (
    ChannelSpec,
    WaveplateSpec,
    phase_damping,
    prepare_antiparallel,
    prepare_parallel,
    waveplate_unitary,
)
from .tomography import fidelity, linear_inversion, project_to_physical, reconstruct

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
_PREPARE = {"parallel": prepare_parallel, "antiparallel": prepare_antiparallel}


def _read_table(path: str) -> CountsTable:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_counts_csv(text)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
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
    try:
        basis, p_text = text.split(":", 1)
        return ChannelSpec(basis=basis, p=float(p_text))
    except (ValueError, TypeError):
        raise ValueError(f"--damp expects x:<p> or z:<p>, got {text!r}") from None


def _parse_waveplate(text: str, kind: str) -> tuple[str, WaveplateSpec]:
    try:
        arm, deg_text = text.split(":", 1)
        arm = arm.strip().lower()
        if arm not in ("a", "b"):
            raise ValueError
        return arm, WaveplateSpec(kind=kind, angle=math.radians(float(deg_text)))
    except (ValueError, TypeError):
        raise ValueError(f"--{kind.lower()} expects <arm>:<deg> with arm a|b, got {text!r}") from None


def _arm_unitaries(args) -> tuple[np.ndarray, np.ndarray] | None:
    """Compose per-arm waveplate unitaries; HWPs apply first, then QWPs."""
    plates = [_parse_waveplate(t, "HWP") for t in args.hwp or []]
    plates += [_parse_waveplate(t, "QWP") for t in args.qwp or []]
    if not plates:
        return None
    units = {"a": np.eye(2, dtype=complex), "b": np.eye(2, dtype=complex)}
    for arm, spec in plates:
        units[arm] = waveplate_unitary(spec) @ units[arm]
    return units["a"], units["b"]


def _prepared_density(args, theta, arms=None) -> np.ndarray:
    """--family state at theta (a stack for an array of angles), through
    --damp when given, then through the arm unitaries when given."""
    if args.family is None or theta is None:
        raise ValueError("a state spec requires --family and --theta")
    rho = pure_to_density(_PREPARE[args.family](np.radians(theta)))
    if args.damp:
        rho = phase_damping(rho, _parse_damp(args.damp))
    return rho if arms is None else apply_local_unitary(rho, *arms)


def _schmidt_from_theta(theta_deg: float) -> SchmidtCoeffs:
    if not 0.0 <= theta_deg <= 45.0:  # written so that NaN fails too
        raise ValueError(f"--theta must lie in [0, 45] degrees, got {theta_deg!r}")
    rad = math.radians(theta_deg)
    return SchmidtCoeffs(a=math.cos(2 * rad), b=math.sin(2 * rad))


def _cmd_analyze(args) -> int:
    table = _read_table(args.counts_file)
    res = g_from_counts(table)
    report = {
        "g": res.g,
        "delta_g": res.delta_g,
        "covariance": res.covariance.tolist(),
        "concurrence_from_g": _clamped_c_from_g(res.g),
    }
    if args.tomo:
        report["tomo_concurrence"] = concurrence(project_to_physical(linear_inversion(res.t)))
    if args.theta is not None:
        s = _schmidt_from_theta(args.theta)
        kres = k_from_counts(table, s)
        report["k"] = {
            "value": kres.k,
            "bound": kres.bound,
            "expectations": list(kres.expectations),
            "delta_k": kres.delta_k,
        }
    report["inputs"] = {"file": args.counts_file, "source": table.source}
    if table.seed is not None:
        report["inputs"]["seed"] = table.seed
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
    if not (0.0 <= args.start <= 45.0 and 0.0 <= args.stop <= 45.0 and args.start < args.stop):
        raise ValueError("sweep grid must satisfy 0 <= start < stop <= 45 degrees")
    return np.linspace(args.start, args.stop, args.steps)


def _format_row(values) -> str:
    return ",".join(f"{v:.12g}" for v in values)


def _cmd_sweep_g(args) -> int:
    grid = _sweep_grid(args)
    cfg = SimConfig(args.n, args.noise, args.seed)
    rhos = _prepared_density(args, grid, _arm_unitaries(args))
    t, groups, inv = _pauli_matrix(_simulate(rhos, FULL_SETTINGS, cfg), FULL_SETTINGS)
    g, _, grad = _g_terms(t)
    delta_g = _delta(groups, inv, grad, cfg.noise == "exact")
    c_tomo = concurrence(project_to_physical(linear_inversion(t)))
    rows = np.column_stack([grid, g, delta_g, _clamped_c_from_g(g), concurrence(rhos), c_tomo])
    lines = ["theta_deg,g,delta_g,c_from_g,c_true,c_tomo", *map(_format_row, rows.tolist())]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep_k(args) -> int:
    grid = _sweep_grid(args)
    cfg = SimConfig(args.n, args.noise, args.seed)
    coeffs = [_schmidt_from_theta(theta) for theta in grid.tolist()]
    fixed = np.broadcast_to([_NAMED_STATES["HH"], _NAMED_STATES["VH"]], (len(grid), 2, 4))
    kets = np.concatenate([_PREPARE[args.family](np.radians(grid))[:, None], fixed], axis=1)  # (B, 3, 4): family state, HH, VH
    t = _pauli_matrix(_simulate(pure_to_density(kets), KMODE_SETTINGS, cfg), KMODE_SETTINGS)[0]
    ks = _k_terms(t, np.array([[s.a] for s in coeffs]), np.array([[s.b] for s in coeffs]))[0]
    bounds = [k_separable_bound(s) for s in coeffs]
    rows = np.column_stack([grid, ks, bounds])
    lines = ["theta_deg,k0,k1,k2,bound", *map(_format_row, rows.tolist())]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_ilut_check(args) -> int:
    if not 0.0 <= args.k < math.inf:  # written so that NaN fails too
        raise ValueError(f"--k must be finite and >= 0, got {args.k!r}")
    state_flags = [f"--{name}" for name in ("family", "theta", "hwp", "qwp", "damp") if getattr(args, name) is not None]
    if len(args.counts_files) == 2 and not state_flags:
        r1, r2 = (g_from_counts(_read_table(p)) for p in args.counts_files)
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
        inputs = {"family": args.family, "theta_deg": args.theta, "damp": args.damp}
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


def _resolve_reference(text: str) -> np.ndarray:
    if text in _NAMED_STATES:
        return pure_to_density(_NAMED_STATES[text])
    return reconstruct(_read_table(text))


def _cmd_tomo(args) -> int:
    table = _read_table(args.counts_file)
    rho = reconstruct(table)
    eigs = np.linalg.eigvalsh(rho)[::-1]
    report = {
        "eigenvalues": [float(w) for w in eigs],
        "purity": float(np.trace(rho @ rho).real),
        "tomo_concurrence": concurrence(rho),
        "inputs": {"file": args.counts_file, "source": table.source},
    }
    if args.reference is not None:
        report["fidelity"] = fidelity(rho, _resolve_reference(args.reference))
        report["inputs"]["reference"] = args.reference
    if table.seed is not None:
        report["inputs"]["seed"] = table.seed
    _emit_report(report, args.out)
    return 0


def _add_family_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=tuple(_PREPARE), help="prepared state family")


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
    except MissingSetting as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
