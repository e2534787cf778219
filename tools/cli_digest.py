"""Print one SHA-256 over everything the ``fraclag`` subcommands write at a
fixed set of inputs, to show that a change keeps the CLI's output bytes.

    python tools/cli_digest.py

Every subcommand runs in-process through ``fraclag.cli.main``, from the
``src`` directory of this checkout, in a temporary working directory that
holds its input files.  The digest covers each run's arguments, exit code,
stdout, stderr and the bytes of the file it writes.  Run it on two commits
and compare the lines.  The bits of the outputs depend on numpy and the C
math library, so compare digests taken on one machine only.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fraclag.cli import main as cli_main  # noqa: E402
from fraclag.planner import MODES  # noqa: E402

# (alpha, h): the paper's point, a small alpha and h, a large alpha at h = 1,
# and an h so small that every kept node is a constant
POINTS = (("0.5", "0.01"), ("0.3", "1e-3"), ("0.9", "1"), ("0.5", "1e-100"))

# +inf entries first, in the middle and last
INPUTS = {
    "diag.txt": "inf\n1\n10\ninf\n1e8\n100\ninf\n",
    "diag_vector.txt": "1\n-2\n3\n0.5\n4\n-1\n2\n",
    "matrix.csv": "3,-1,0,0\n-1,3,-1,0\n0,-1,3,-1\n0,0,-1,3\n",
    "matrix_vector.txt": "1\n2\n-3\n0.25\n",
}


def commands(alpha: str, h: str) -> list[list[str]]:
    """The argument lists run at one point; each writes ``out.csv`` or
    stdout."""
    common = ["--alpha", alpha, "--h", h]
    runs = [
        ["plan", *common, "--n", "1,5,10,50"],
        ["plan", *common, "--tol", "1e-6"],
        ["sequences", *common, "--n-max", "12"],
        ["operator-error", *common, "--n-list", "5,20", "--out", "out.csv"],
    ]
    for mode in (*MODES, "all"):
        runs.append(["operator-error", *common, "--n-list", "5,20", "--mode", mode,
                     "--diag-file", "diag.txt", "--out", "out.csv"])
    for mode in MODES:
        runs.append(["scalar-sweep", *common, "--n", "10", "--points", "12", "--mode", mode,
                     "--out", "out.csv"])
        runs.append(["apply", *common, "--n", "10", "--mode", mode, "--diag-file", "diag.txt",
                     "--vector-file", "diag_vector.txt", "--out", "out.csv"])
        runs.append(["apply", *common, "--n", "10", "--mode", mode, "--matrix-file", "matrix.csv",
                     "--vector-file", "matrix_vector.txt", "--out", "out.csv"])
    return runs


def run_once(argv: list[str]) -> tuple[int, str, str, bytes]:
    """Exit code, stdout, stderr and output file bytes (empty when none
    was written) of one in-process run in the current directory."""
    out = pathlib.Path("out.csv")
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    return code, stdout.getvalue(), stderr.getvalue(), out.read_bytes() if out.exists() else b""


def _update(sha, data: bytes) -> None:
    # length-prefixed, so no two sequences of parts hash alike
    sha.update(len(data).to_bytes(8, "little") + data)


def digest() -> str:
    """The SHA-256 of every run at every point, in order."""
    sha = hashlib.sha256()
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, text in INPUTS.items():
                pathlib.Path(name).write_text(text, encoding="utf-8")
            for alpha, h in POINTS:
                for argv in commands(alpha, h):
                    code, stdout, stderr, written = run_once(argv)
                    for part in (" ".join(argv), str(code), stdout, stderr):
                        _update(sha, part.encode("utf-8"))
                    _update(sha, written)
        finally:
            os.chdir(start)
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
