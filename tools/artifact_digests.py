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

A checkout that predates the script runs a copy put in its ``tools/``.
Only the standard library is used here; qnn itself needs numpy.
"""

from __future__ import annotations

import contextlib
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


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from qnn.cli import main as qnn_main

    for argv in COMMANDS:
        for name, digest in digests(qnn_main, argv):
            print(argv[0], name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
