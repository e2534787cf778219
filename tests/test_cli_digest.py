"""Tests for tools/cli_digest.py, the digest of the CLI's outputs."""

import importlib.util
import os
import pathlib
import re

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
_spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def test_the_digest_covers_every_run_and_each_succeeds(monkeypatch):
    # a run that failed would hash its error message, so a stable digest
    # alone would not show that the outputs were compared
    seen = []
    run_once = cli_digest.run_once

    def record(argv):
        seen.append((argv, run_once(argv)))
        return seen[-1][1]

    monkeypatch.setattr(cli_digest, "run_once", record)
    start = os.getcwd()
    assert re.fullmatch("[0-9a-f]{64}", cli_digest.digest())
    assert os.getcwd() == start
    assert [argv for argv, _ in seen] == [
        argv for point in cli_digest.POINTS for argv in cli_digest.commands(*point)
    ]
    for argv, (code, stdout, stderr, written) in seen:
        assert code == 0, argv
        assert bool(stdout) != bool(written), argv
        # apply reports its plan on stderr; nothing else writes there
        if argv[0] == "apply":
            assert stderr.startswith("plan: "), argv
        else:
            assert stderr == "", argv
