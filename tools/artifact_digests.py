"""Print the SHA-256 of every artifact the qnn commands write at default flags.

Runs the six commands in process, from the ``src/`` of the checkout this
script sits in, each into a temporary directory that is removed afterwards,
and prints one ``command artifact sha256`` line per artifact.  report.json
is left out: it holds the wall time and the run directory.  ``poly`` runs
with ``--coeffs -1 1 -1 1``, as in the README, since it has no default
polynomial.

Every artifact is meant to stay byte-identical across a refactor.  To check
that, run the script in two checkouts and compare the outputs:

    python tools/artifact_digests.py > after.txt
    python ../parent/tools/artifact_digests.py > before.txt
    diff before.txt after.txt

The digests hold on one machine.  OpenBLAS picks its kernels by CPU and
numpy its SIMD loops, and another choice can move the last bits of a
trained net.  So the script first writes one stamp line to stderr, which
the ``diff`` above leaves out: numpy's version, the SIMD targets it
dispatches to here, the OpenBLAS core and the BLAS thread count, each
``unknown`` where the library does not answer.  Compare the stamps before
reading a digest diff between two machines as a change.

A checkout that predates the script runs a copy put in its ``tools/``.
Only the standard library and numpy are used.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ["rings"],
    ["radial-deep"],
    ["poly", "--coeffs", "-1", "1", "-1", "1"],
    ["factor-train"],
    ["bernstein"],
    ["width-sweep"],
)


def digests(main, argv: list[str]) -> list[tuple[str, str]]:
    """(artifact name, sha256) of each file one run writes, report.json left out."""
    with tempfile.TemporaryDirectory(prefix="qnn-digests-") as out_dir:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv + ["--out-dir", out_dir])
        if rc != 0:
            raise SystemExit(f"qnn {' '.join(argv)} exited with {rc}")
        (run_dir,) = Path(out_dir).iterdir()
        return [(path.relative_to(run_dir).as_posix(),
                 hashlib.sha256(path.read_bytes()).hexdigest())
                for path in sorted(run_dir.rglob("*"))
                if path.is_file() and path.name != "report.json"]


def environment_stamp() -> str:
    """numpy's version and enabled SIMD dispatch targets, the OpenBLAS core
    and the BLAS thread count, on one line.  The core and the thread count
    come from the OpenBLAS bundled with numpy, through ctypes."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    simd = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    core = threads = "unknown"
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        blas = ctypes.CDLL(str(path))
        if hasattr(blas, "scipy_openblas_get_corename64_"):
            corename = blas.scipy_openblas_get_corename64_
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
        if hasattr(blas, "scipy_openblas_get_num_threads64_"):
            num_threads = blas.scipy_openblas_get_num_threads64_
            num_threads.argtypes, num_threads.restype = [], ctypes.c_int
            threads = str(num_threads())
    return (f"numpy {np.__version__} simd {','.join(simd) or 'none'} "
            f"openblas_core {core} blas_threads {threads}")


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from qnn.cli import main as qnn_main

    print(environment_stamp(), file=sys.stderr)

    for argv in COMMANDS:
        for name, digest in digests(qnn_main, argv):
            print(argv[0], name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
