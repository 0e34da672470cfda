"""Golden outputs: sha256 digests of what the field commands write and print.

Twelve ``toda solve`` runs (field, manifest, stdout and exit code), a
``toda verify`` of every field they write, one ``export-plot`` CSV,
``conn check`` for A2, E7 and E8 at 32^2 (one row block) and for E8 at
64^2 and G2 at 100^2 (two and five row blocks; G2's 50^2 half grid has
two, the second short), and
``lie info`` and ``lie restrict`` of all 33 types (stdout and exit code)
are compared with the digests in ``tests/data/golden_digests.json``.  The digests hold for the numpy version
recorded there: under any other version the test fails and names both.

A change that moves an output on purpose regenerates the file, from the
root of the checkout, and names each moved output and its cause:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import sys
import tempfile

import numpy as np

from affinetoda.cli import main
from conftest import ALL_TYPES

DATA = pathlib.Path(__file__).parent / "data" / "golden_digests.json"

TOL = ("--tol", "1e-10")
SOLVES = {
    "A2-128-torus": ("--type", "A2", "--grid", "128x128", "--init", "perturbed:1:0.2"),
    "A2-96-poly": ("--type", "A2", "--grid", "96x96", "--q", "poly:1,0.5+0.2j,0.3"),
    "A2-64-rect": (
        "--type", "A2", "--grid", "64x64", "--init", "perturbed:1:0.2", "--topology", "rectangle",
    ),
    "A2-32-torus": ("--type", "A2", "--grid", "32x32", "--init", "perturbed:1:0.2"),
    "B8-32-torus": ("--type", "B8", "--grid", "32x32", "--init", "perturbed:1:0.1"),
    "E7-32-torus": ("--type", "E7", "--grid", "32x32", "--init", "perturbed:1:0.1"),
    "E8-32-torus": ("--type", "E8", "--grid", "32x32", "--init", "perturbed:1:0.1"),
    "G2-48-rect": (
        "--type", "G2", "--grid", "48x48", "--init", "perturbed:1:0.5", "--topology", "rectangle",
    ),
    "E8-32-amp1.0": ("--type", "E8", "--grid", "32x32", "--init", "perturbed:1:1.0"),
    "E8-32-amp1.5": ("--type", "E8", "--grid", "32x32", "--init", "perturbed:1:1.5"),
    "A2-32-maxiter0": (
        "--type", "A2", "--grid", "32x32", "--init", "perturbed:1:0.2", "--max-iter", "0",
    ),
    "A2-32-maxiter2": (
        "--type", "A2", "--grid", "32x32", "--init", "perturbed:1:0.2", "--max-iter", "2",
    ),
}
PLOTTED = "A2-64-rect"
CONN_RUNS = (("A2", "32"), ("E7", "32"), ("E8", "32"), ("E8", "64"), ("G2", "100"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(*argv):
    """(exit code, stdout digest) of one command run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"exit": code, "stdout": _sha(out.getvalue().encode())}


def golden_outputs(workdir: str):
    """Every pinned output of the commands above, run in ``workdir``."""
    got = {}
    for name, flags in SOLVES.items():
        path = os.path.join(workdir, f"{name}.bin")
        entry = _run("toda", "solve", *flags, *TOL, "--out", path)
        if os.path.exists(path):
            for key, file in (("field", path), ("manifest", path + ".manifest.json")):
                entry[key] = _sha(pathlib.Path(file).read_bytes())
            got[f"verify {name}"] = _run("toda", "verify", path)
        got[f"solve {name}"] = entry
    csv = os.path.join(workdir, "plot.csv")
    entry = _run("export-plot", os.path.join(workdir, f"{PLOTTED}.bin"), "--out", csv)
    got[f"export-plot {PLOTTED}"] = {"exit": entry["exit"], "csv": _sha(pathlib.Path(csv).read_bytes())}
    for t, n in CONN_RUNS:
        got[f"conn check {t} {n}"] = _run("conn", "check", "--type", t, "--grid", n)
    for t in ALL_TYPES:
        for command in ("info", "restrict"):
            got[f"lie {command} {t}"] = _run("lie", command, t)
    return got


def test_field_outputs_match_their_digests(tmp_path):
    golden = json.loads(DATA.read_text())
    assert np.__version__ == golden["numpy"], (
        f"the digests were made with numpy {golden['numpy']}; this is numpy {np.__version__}: "
        f"regenerate them as the module docstring says, and check every output that moves"
    )
    got = golden_outputs(str(tmp_path))
    moved = sorted(k for k in golden["outputs"].keys() | got.keys()
                   if golden["outputs"].get(k) != got.get(k))
    assert moved == [], moved


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        outputs = golden_outputs(workdir)
    record = {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "regenerate": "PYTHONPATH=src python tests/test_golden.py",
        "outputs": outputs,
    }
    DATA.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} entries to {DATA}", file=sys.stderr)
