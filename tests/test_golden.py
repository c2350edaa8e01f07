"""Pinned bytes of every CLI subcommand.

Each case runs ``jpegkit.cli.main`` in-process, in a directory of its own,
on inputs built from frozen `natural_image` fixtures: a block-aligned 64²
color image, a ragged 37×21 color image, a 32×24 gray image, and JFIF
streams of them at standard tables and at a custom table that matches no
quality factor. It pins one sha256 over the exit code, stdout, stderr and
every file the command writes (name and bytes), so any change to what a
command prints or writes fails here, naming the case; the failure message
shows the per-part digests of the run.

Like the float digests of `tests/test_parity.py`, these pins are those of
OpenBLAS's SkylakeX kernel, and three cases, `KERNEL_BOUND`, print other
bytes under another kernel (ROADMAP item 1):
- `theorem-check` and `theorem-check-fixture` under Haswell, Sandybridge
  and Prescott: they print the toy oracle's fm deviation, which comes out
  of BLAS products (`block @ signals`, `means @ basis.T`);
- `roundtrip-64-round-chroma` under Sandybridge and Prescott: its rounded
  chroma planes are integers, and one chroma DC level over its step lands
  on an exact k + 1/2, which the kernels' DCT sums round apart (-15 on
  SkylakeX, -14 on Prescott).
The other 27 hold on all four kernels, although the restore, sweep,
project and metrics outputs are floats computed through BLAS products; a
test reruns them under OpenBLAS's Prescott kernel, which needs only SSE3,
so that one that came to depend on the kernel fails on any x86-64 host.
"""

import contextlib
import hashlib
import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jpegkit.cli import main
from jpegkit.codec import compress, compress_with_table
from jpegkit.jfif import write_jfif
from jpegkit.pnm import write_pnm
from jpegkit.quant import QuantTable, table_for_qf
from jpegkit.toy import random_model, save_model
from tests.conftest import natural_image

DESCENT = ["--steps", "4", "--step-size", "2.0", "--seeds", "2", "--seed", "1"]

# each case's argv, with "IN/" standing for the inputs directory
CASES = {
    "encode-64-q50": ["encode", "IN/c64.ppm", "-q", "50", "-o", "out.jpg"],
    "encode-37x21-q30": ["encode", "IN/c37x21.ppm", "-q", "30", "-o", "out.jpg"],
    "encode-gray-q75": ["encode", "IN/g.pgm", "-q", "75", "-o", "out.jpg"],
    "encode-q0": ["encode", "IN/c64.ppm", "-q", "0", "-o", "out.jpg"],
    "decode-64": ["decode", "IN/c64.jpg", "-o", "out.ppm", "--dump-tables"],
    "decode-37x21": ["decode", "IN/c37x21.jpg", "-o", "out.ppm", "--dump-tables"],
    "decode-custom": ["decode", "IN/custom.jpg", "-o", "out.ppm", "--dump-tables"],
    "roundtrip-64": ["roundtrip", "IN/c64.ppm", "-q", "50"],
    "roundtrip-64-passthrough": ["roundtrip", "IN/c64.ppm", "-q", "50", "--passthrough"],
    "roundtrip-64-round-chroma": ["roundtrip", "IN/c64.ppm", "-q", "50", "--round-chroma"],
    "roundtrip-37x21": ["roundtrip", "IN/c37x21.ppm", "-q", "30"],
    "roundtrip-37x21-passthrough": ["roundtrip", "IN/c37x21.ppm", "-q", "30", "--passthrough"],
    "roundtrip-37x21-round-chroma": ["roundtrip", "IN/c37x21.ppm", "-q", "30", "--round-chroma"],
    "roundtrip-gray": ["roundtrip", "IN/g.pgm", "-q", "75"],
    "project-64": ["project", "IN/x64.ppm", "IN/c64.jpg", "-o", "out.ppm"],
    "project-37x21": ["project", "IN/x37x21.ppm", "IN/c37x21.jpg", "-o", "out.ppm"],
    "project-custom": ["project", "IN/x64.ppm", "IN/custom.jpg", "-o", "out.ppm"],
    "project-gray": ["project", "IN/g.pgm", "IN/c64.jpg", "-o", "out.ppm"],
    "metrics-64": ["metrics", "IN/x64.ppm", "IN/c64.ppm", "IN/c64.jpg"],
    "metrics-37x21": ["metrics", "IN/x37x21.ppm", "IN/c37x21.ppm", "IN/c37x21.jpg"],
    "metrics-custom": ["metrics", "IN/x64.ppm", "IN/c64.ppm", "IN/custom.jpg"],
    "restore-64": ["restore", "IN/c64.jpg", *DESCENT, "-o", "out"],
    "restore-64-project": ["restore", "IN/c64.jpg", *DESCENT, "--project", "-o", "out"],
    "restore-37x21-project": ["restore", "IN/c37x21.jpg", *DESCENT, "--project", "-o", "out"],
    "restore-custom-project": ["restore", "IN/custom.jpg", *DESCENT, "--project", "-o", "out"],
    "restore-missing": ["restore", "missing.jpg", "-o", "out"],
    "sweep": ["sweep", "IN/pairs", "--lambdas", "0,10", *DESCENT[:4], "-o", "sweep.csv"],
    "numerics-study": ["numerics-study", "IN/study", "-o", "study.csv"],
    "theorem-check": ["theorem-check", "--models", "40", "--seed", "7"],
    "theorem-check-fixture": ["theorem-check", "--models", "2", "--seed", "3", "--fixture", "IN/model.txt"],
}

# the cases whose bytes depend on the BLAS kernel (see the module docstring)
KERNEL_BOUND = ("roundtrip-64-round-chroma", "theorem-check", "theorem-check-fixture")

# each case's record digest (see record_digest)
PINS = {
    "encode-64-q50": "92bf6b9ea26957e6",
    "encode-37x21-q30": "c7677cf4ccd9a517",
    "encode-gray-q75": "88e02272b5a66831",
    "encode-q0": "4da41bfece24b119",
    "decode-64": "049bc13e3ee3ffd4",
    "decode-37x21": "9145a155e5662005",
    "decode-custom": "3f45bb861df80bc7",
    "roundtrip-64": "540e53dd146b61c4",
    "roundtrip-64-passthrough": "708a9b112f4453cb",
    "roundtrip-64-round-chroma": "535446e2255808fd",
    "roundtrip-37x21": "e80d7d599b964f9f",
    "roundtrip-37x21-passthrough": "3e907bdb7773b9de",
    "roundtrip-37x21-round-chroma": "c7837cea04cc5be9",
    "roundtrip-gray": "2a18c6c40bcd2a9c",
    "project-64": "b85c081124b32dd6",
    "project-37x21": "f738ddef2e691495",
    "project-custom": "ccd1e32f9489bdba",
    "project-gray": "111a3ebb0b7f18b2",
    "metrics-64": "99f3da2ca44e3ea1",
    "metrics-37x21": "6cefa272d416d3d0",
    "metrics-custom": "35406307c003ad45",
    "restore-64": "dfc72de91ab166d7",
    "restore-64-project": "812c8d5c4830cbf3",
    "restore-37x21-project": "d638c6fc19e05489",
    "restore-custom-project": "ee394645f84cf55a",
    "restore-missing": "c1d2934233f108ac",
    "sweep": "6466f6fa34e628bd",
    "numerics-study": "b86de2168e430888",
    "theorem-check": "57c010a444e42d0b",
    "theorem-check-fixture": "fb54c4fe68f70f8a",
}


def _custom_table() -> QuantTable:
    standard = table_for_qf(40)
    luma = standard.luma.copy()
    luma[0, 1] += 1
    return QuantTable(luma, standard.chroma)


def write_inputs(d: Path) -> Path:
    """Write every input file of the cases into ``d``."""
    c64 = natural_image(np.random.default_rng(64), 64, 64)
    c37x21 = natural_image(np.random.default_rng(37), 21, 37)
    gray = natural_image(np.random.default_rng(24), 24, 32, channels=1)
    files = {
        "c64.ppm": write_pnm(c64),
        "c37x21.ppm": write_pnm(c37x21),
        "g.pgm": write_pnm(gray),
        "x64.ppm": write_pnm(natural_image(np.random.default_rng(65), 64, 64)),
        "x37x21.ppm": write_pnm(natural_image(np.random.default_rng(38), 21, 37)),
        "c64.jpg": write_jfif(compress(c64, 50)),
        "c37x21.jpg": write_jfif(compress(c37x21, 30)),
        "custom.jpg": write_jfif(compress_with_table(c64, _custom_table())),
        "model.txt": save_model(random_model(np.random.default_rng(5))).encode(),
        "study/c37x21.ppm": write_pnm(c37x21),
        "study/g.pgm": write_pnm(gray),
    }
    rng = np.random.default_rng(32)
    for i in range(2):
        x = natural_image(rng, 32, 32)
        files[f"pairs/p{i}.ppm"] = write_pnm(x)
        files[f"pairs/p{i}.jpg"] = write_jfif(compress(x, 10))
    for name, data in files.items():
        (d / name).parent.mkdir(exist_ok=True)
        (d / name).write_bytes(data)
    return d


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden-inputs"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, inputs: Path, cwd: Path) -> dict:
    """The exit code, the sha256 of stdout and stderr, and of every file
    written under ``cwd``, of ``main(argv)`` run there."""
    argv = [a.replace("IN/", f"{inputs}/") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(cwd), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {str(p.relative_to(cwd)): _sha(p.read_bytes()) for p in sorted(cwd.rglob("*")) if p.is_file()}
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().replace(str(inputs), "IN").encode()),
        "stderr": _sha(err.getvalue().replace(str(inputs), "IN").encode()),
        "files": files,
    }


def record_digest(record: dict) -> str:
    lines = [f"exit {record['exit']}", f"stdout {record['stdout']}", f"stderr {record['stderr']}"]
    lines += [f"file {name} {sha}" for name, sha in record["files"].items()]
    return _sha("\n".join(lines).encode())[:16]


@pytest.mark.parametrize("case", CASES)
def test_cli_output_bytes(case, inputs, tmp_path):
    record = run_case(CASES[case], inputs, tmp_path)
    assert record_digest(record) == PINS[case], record


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="Prescott is an x86-64 OpenBLAS kernel"
)
def test_kernel_free_pins_hold_under_the_prescott_kernel():
    assert set(KERNEL_BOUND) <= set(CASES)
    ids = [f"{__file__}::test_cli_output_bytes[{case}]" for case in CASES if case not in KERNEL_BOUND]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *ids],
        cwd=Path(__file__).resolve().parent.parent,
        env=dict(os.environ, OPENBLAS_CORETYPE="Prescott"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0 and f"{len(ids)} passed" in run.stdout, run.stdout[-3000:]
