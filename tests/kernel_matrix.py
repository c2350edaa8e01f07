"""The failing test ids of the pinned-digest tests under each OpenBLAS kernel.

    python tests/kernel_matrix.py [KERNEL ...]

Runs `tests/test_parity.py`, `tests/test_bench.py` and `tests/test_golden.py`
in one pytest subprocess per kernel, with OPENBLAS_CORETYPE set to it
(Haswell, Sandybridge and Prescott unless kernels are named), and prints
each kernel's failure count per file and its failing ids, one a line.

The pins in those files are those of the SkylakeX kernel, so other kernels
fail some of them (ROADMAP item 1). A change that keeps every output bit
fails exactly the ids its parent fails: run this on both and compare.
Pytest does not collect this file; it is a script.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # conftest imports jpegkit

from conftest import run_pytest_under_kernel  # noqa: E402

FILES = ("tests/test_parity.py", "tests/test_bench.py", "tests/test_golden.py")
KERNELS = ("Haswell", "Sandybridge", "Prescott")


def failing_ids(kernel: str) -> list:
    """The ids of the tests in FILES that fail under ``kernel``."""
    run = run_pytest_under_kernel(kernel, "-rf", *FILES)
    if run.returncode not in (0, 1):  # 1 is "some tests failed"; anything else ran nothing to compare
        sys.exit(f"{kernel}: pytest exited {run.returncode}\n{run.stdout[-3000:]}{run.stderr[-3000:]}")
    return re.findall(r"^FAILED (\S+)", run.stdout, flags=re.MULTILINE)


def main(kernels) -> int:
    for kernel in kernels or KERNELS:
        ids = failing_ids(kernel)
        per_file = ", ".join(f"{sum(i.startswith(f + '::') for i in ids)} {Path(f).stem}" for f in FILES)
        print(f"{kernel}: {len(ids)} failed ({per_file})")
        for test_id in ids:
            print(f"  {test_id}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
