"""Frozen outputs of the shipped configs.

Every ``configs/*.json`` is run through ``cli.main`` with the label
``golden``; the sha256 of each file it writes and its stdout line must
match ``golden/shipped_configs.json``. Each is first dry-run, which must
exit 0, write nothing and print the resolved config, so that the read
step never refuses a shipped config. A change that alters one of these
outputs on purpose rewrites the digests with

    PYTHONPATH=src python tests/test_shipped_configs.py

which first prints every file digest and stdout line that differs from
the committed record, for CHANGES.md.
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import tempfile

from sshchain.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, os.pardir, "configs")
DIGESTS = os.path.join(HERE, "golden", "shipped_configs.json")


def _main(argv):
    """``main(argv)``'s exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_shipped_configs(out_dir):
    """Dry-run, then run every shipped config into ``out_dir``; return digests and stdout."""
    stdout = {}
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        argv = [name.split("_")[0], "--config", path, "--out-dir", out_dir, "--label", "golden"]
        with open(path) as fh:
            resolved = {"threads": 1, **json.load(fh), "out_dir": out_dir, "label": "golden"}
        written = os.listdir(out_dir)
        code, dry = _main([*argv, "--dry-run"])
        assert code == 0 and json.loads(dry) == resolved and os.listdir(out_dir) == written, name
        code, stdout[name] = _main(argv)
        assert code == 0, name
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    return {"files": files, "stdout": stdout}


def test_shipped_config_outputs_are_frozen(tmp_path):
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    assert run_shipped_configs(str(tmp_path)) == expected


def changed_entries(old, new):
    """``files/<name>`` and ``stdout/<config>`` for every entry that differs."""
    return [f"{kind}/{name}" for kind in ("files", "stdout")
            for name in sorted(set(old.get(kind, {})) | set(new[kind]))
            if old.get(kind, {}).get(name) != new[kind].get(name)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = run_shipped_configs(tmp)
    with open(DIGESTS) as fh:
        committed = json.load(fh)
    for entry in changed_entries(committed, record):
        print(f"changed: {entry}")
    with open(DIGESTS, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(record['files'])} files, {len(record['stdout'])} configs")
