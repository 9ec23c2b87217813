"""A golden manifest of the reachability matrix's outputs.

``test_reachability._matrix`` runs in-process on one CPU. Every file it
writes, except the ``*.ini`` configs (they hold the temporary directory),
and each command's exit code, stdout and stderr, with the temporary
directory replaced by ``<tmp>``, are hashed with SHA-256 and compared with
``golden_manifest.json`` beside this file. It adds to the digest tables of
the other modules; it replaces none of them.

A change that moves any output on purpose regenerates the manifest with
``PYTHONPATH=src python tests/test_golden.py`` and names every changed
record in ``CHANGES.md``.
"""
import hashlib
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from drtricks.cli import main
from test_reachability import _matrix

MANIFEST = Path(__file__).with_name("golden_manifest.json")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(tmp: Path) -> dict[str, str]:
    """Record name -> SHA-256 of every command's outcome and every output file."""
    digests = {}
    for i, (argv, _expected) in enumerate(_matrix(tmp)):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        text = f"{code}\n{out.getvalue()}\n{err.getvalue()}".replace(str(tmp), "<tmp>")
        name = Path(argv[argv.index("--out") + 1]).name
        digests[f"command/{i:02d}-{argv[0]}-{name}"] = _sha(text.encode())
    for path in sorted(tmp.rglob("*")):
        if path.is_file() and path.suffix != ".ini":
            digests[f"file/{path.relative_to(tmp).as_posix()}"] = _sha(path.read_bytes())
    return digests


def test_matrix_outputs_match_the_golden_manifest(tmp_path, cpus):
    cpus(1)  # every member and mask file in this process, as on any machine
    expected = json.loads(MANIFEST.read_text())
    got = _digests(tmp_path)
    changed = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not changed, f"records that differ from {MANIFEST.name}: {changed}"


if __name__ == "__main__":
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    with tempfile.TemporaryDirectory() as tmp:
        MANIFEST.write_text(json.dumps(_digests(Path(tmp)), indent=1, sort_keys=True) + "\n")
