import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# every property test runs the same examples on every run, with no example
# database on disk and no per-example deadline
settings.register_profile("sshchain", derandomize=True, database=None, deadline=None)
settings.load_profile("sshchain")


@pytest.fixture
def refused(capsys, tmp_path):
    """``refused(command, *args)`` runs the CLI twice, as given and with
    ``--dry-run``, each into the new output directory ``tmp_path / "out"``
    unless ``args`` name another. Both runs must exit 1 with the same one
    ``error:`` line on stderr and nothing on stdout, and leave no file and no
    directory under ``tmp_path``; returns that line."""
    from sshchain.cli import main

    def check(command, *args):
        before = sorted(tmp_path.rglob("*"))
        results = []
        for extra in ([], ["--dry-run"]):
            code = main([command, "--out-dir", str(tmp_path / "out"), *args, *extra])
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
            assert sorted(tmp_path.rglob("*")) == before
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
        return err

    return check
