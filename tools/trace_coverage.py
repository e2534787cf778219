"""Run pytest under the standard library's ``trace`` and fail if any line of
``src/fraclag`` is never executed, apart from the lines in ``ALLOWED``.

    PYTHONPATH=src python tools/trace_coverage.py [pytest arguments]

The arguments go to ``pytest.main`` unchanged (``python -m trace -m pytest``
cannot find pytest, hence this runner).  Exit status: pytest's when it is
not 0, else 1 if a line is never executed, else 0.
"""

import os
import pathlib
import sys
import tempfile
import threading
import trace

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "fraclag"

# (file, stripped line) of the lines the tests cannot execute
ALLOWED = {
    # the body of the __main__ guard; the tests call run() in-process
    ("cli.py", "run()"),
}

# trace marks an executable line that never ran with this prefix
_MISSING = ">>>>>> "


class _OutsidePackage:
    """Stands in for trace's ignore list, which caches its verdict by module
    basename: once it ignores the standard library's io.py or any
    __init__.py, it ignores the package's too.  This one goes by path."""

    @staticmethod
    def names(filename: str, modulename: str) -> bool:
        return not filename.startswith(f"{PACKAGE}{os.sep}")


def main(argv: list[str]) -> int:
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _OutsidePackage()
    # runfunc traces only the calling thread; the kernel's pool runs others
    threading.settrace(tracer.globaltrace)
    try:
        status = tracer.runfunc(pytest.main, argv)
    finally:
        threading.settrace(None)
    if status != 0:
        return int(status)
    missing = []
    with tempfile.TemporaryDirectory() as coverdir:
        tracer.results().write_results(show_missing=True, summary=False, coverdir=coverdir)
        for source in sorted(PACKAGE.glob("*.py")):
            cover = pathlib.Path(coverdir, f"fraclag.{source.stem}.cover")
            if not cover.exists():
                missing.append(f"{source.name}: never imported")
                continue
            for number, line in enumerate(cover.read_text().splitlines(), 1):
                if line.startswith(_MISSING) and (source.name, line[len(_MISSING):].strip()) not in ALLOWED:
                    missing.append(f"{source.name}:{number}: {line[len(_MISSING):].strip()}")
    for entry in missing:
        print(f"never executed: {entry}", file=sys.stderr)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
