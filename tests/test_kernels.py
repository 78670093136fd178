"""The CLI writes the same bytes under every OpenBLAS kernel, apart from the
fields read from a LAPACK eigensolve or SVD.

Below LAPACK no BLAS call touches table or state data: every contraction is
an elementwise product reduced by np.add.reduce, whose order numpy fixes in
its source. One subprocess per OPENBLAS_CORETYPE runs cli.main in-process on
each command, and the SHA-256 of each stdout, with the LAPACK fields removed,
must be the same under every kernel. LAPACK itself is not kernel-proof: the
tomography fields (tomo_concurrence, eigenvalues, purity, fidelity), sweep-g's
c_tomo and, under --damp, its c_true are removed before hashing.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entquant
from entquant import data_file

pytestmark = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OPENBLAS_CORETYPE names x86-64 kernels"
)

_FEATURES = np._core._multiarray_umath.__cpu_features__ if hasattr(np, "_core") else np.core._multiarray_umath.__cpu_features__
#: numpy's own choice for this CPU (unset), the SSE3 kernel and, where the CPU can run it, the AVX2 kernel.
CORETYPES = [None, "Prescott"] + (["Haswell"] if _FEATURES.get("AVX2") and _FEATURES.get("FMA3") else [])

COMMANDS = {
    "analyze block1": ["analyze", data_file("tableII_block1.csv"), "--theta", "22.5"],
    "analyze block2": ["analyze", data_file("tableII_block2.csv"), "--theta", "22.5"],
    "sweep-k exact": ["sweep-k", "--steps", "19"],
    "sweep-k poisson": ["sweep-k", "--steps", "19", "--noise", "poisson", "--seed", "7"],
    "sweep-g poisson": ["sweep-g", "--steps", "19", "--noise", "poisson", "--seed", "7"],
    "sweep-g plated": ["sweep-g", "--steps", "19", "--hwp", "a:13"],
    "sweep-g damped": ["sweep-g", "--steps", "19", "--damp", "x:0.7", "--hwp", "b:22.5"],
    "simulate": ["simulate", "--family", "parallel", "--theta", "20", "--damp", "x:0.85", "--hwp", "b:10", "--qwp", "a:45"],
}

#: Runs each command of the JSON object argv[1] through cli.main and prints {name: stdout} as JSON.
_CHILD = """
import contextlib, io, json, sys
from entquant import cli
outs = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        assert cli.main(argv) == 0, name
    outs[name] = buf.getvalue()
print(json.dumps(outs))
"""

LAPACK_KEYS = {"tomo_concurrence", "eigenvalues", "purity", "fidelity"}


def without_lapack_fields(argv, out):
    """out, the stdout of argv, without the fields read from an eigensolve or SVD."""
    if argv[0] in ("analyze", "tomo", "ilut-check"):
        return json.dumps({k: v for k, v in json.loads(out).items() if k not in LAPACK_KEYS})
    if argv[0] != "sweep-g":
        return out
    lapack = {"c_tomo"} | ({"c_true"} if "--damp" in argv else set())
    rows = [line.split(",") for line in out.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in lapack]
    return "\n".join(",".join(row[i] for i in keep) for row in rows)


def digests(coretype):
    """{name: SHA-256 of its stdout without the LAPACK fields} under the kernel coretype."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    paths = [str(Path(entquant.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    run = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(COMMANDS)], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    outs = json.loads(run.stdout)
    return {name: hashlib.sha256(without_lapack_fields(COMMANDS[name], out).encode()).hexdigest() for name, out in outs.items()}


def test_without_lapack_fields():
    sweep = "theta_deg,g,delta_g,c_from_g,c_true,c_tomo\n0,1,2,3,4,5\n"
    assert without_lapack_fields(["sweep-g"], sweep) == "theta_deg,g,delta_g,c_from_g,c_true\n0,1,2,3,4"
    assert without_lapack_fields(["sweep-g", "--damp", "z:0.3"], sweep) == "theta_deg,g,delta_g,c_from_g\n0,1,2,3"
    report = json.dumps({"g": 1.0, "tomo_concurrence": 0.5, "k": {"value": 0.0}})
    assert json.loads(without_lapack_fields(["analyze", "x.csv", "--tomo"], report)) == {"g": 1.0, "k": {"value": 0.0}}
    assert without_lapack_fields(["simulate"], "a,b\n") == "a,b\n"


def test_outputs_are_the_same_on_every_kernel():
    default = digests(CORETYPES[0])
    assert sorted(default) == sorted(COMMANDS)
    for coretype in CORETYPES[1:]:
        other = digests(coretype)
        assert [name for name in COMMANDS if other[name] != default[name]] == [], f"OPENBLAS_CORETYPE={coretype}"
