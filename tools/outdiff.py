"""Name every output row that differs between a git revision and the working tree.

Usage::

    python tools/outdiff.py REV

``REV`` is exported with ``git archive`` into a temporary directory outside
the repository.  Each tree then runs, in a subprocess of its own, the
commands pinned by ``_PINNED_STDOUT`` in the working tree's
``tests/test_cli.py`` (read with ``ast.literal_eval``) and the default
``figures``.  For each row that changed, the tool prints the old and the
new row, and for each number in it that changed, the two values and their
distance in units in the last place (ulps).  It exits 0 when no row
changed and 1 when some did.

The sha256 pins in ``tests/test_cli.py`` stay the gate: this tool names
the rows behind a pin change, it does not replace the pin.  It writes
nothing inside the repository: the export, the figures and the byte code
of both trees stay in the temporary directory or unwritten.
"""

from __future__ import annotations

import ast
import difflib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs in a fresh interpreter on one tree: reads ``[commands, figures dir]`` as JSON on stdin
# and writes ``{"package": path, "outputs": {name: text}}`` as JSON on stdout.
_RUNNER = r"""
import contextlib, io, json, os, sys
from dilaton_gme import cli
commands, figures_dir = json.load(sys.stdin)
outputs = {}
for name, argv in commands.items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    outputs[name] = out.getvalue() if code == 0 else f"exit {code}\n{err.getvalue()}{out.getvalue()}"
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["figures", "--output-dir", figures_dir])
for name in sorted(os.listdir(figures_dir)):
    with open(os.path.join(figures_dir, name)) as handle:
        outputs[f"figures/{name}"] = handle.read()
json.dump({"package": cli.__file__, "outputs": outputs}, sys.stdout)
"""

# A number as the outputs print it: an int, a float in any notation, or an IEEE special.
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")


def pinned_commands(test_cli_path: str) -> dict[str, list[str]]:
    """``{name: argv}`` of ``_PINNED_STDOUT`` in ``test_cli_path``, read without importing it."""
    with open(test_cli_path) as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_PINNED_STDOUT" for t in node.targets):
            return {name: list(argv) for name, (argv, _) in ast.literal_eval(node.value).items()}
    raise SystemExit(f"no _PINNED_STDOUT in {test_cli_path}")


def ulps(old: float, new: float) -> int:
    """How many floats lie between ``old`` and ``new``, counting one end: 0 for equal floats."""

    def ordered(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordered(new) - ordered(old))


def _value_changes(old_row: str, new_row: str) -> list[str]:
    """One line per number that differs between two rows of the same shape, else the rows differ in text."""
    old_numbers, new_numbers = _NUMBER.findall(old_row), _NUMBER.findall(new_row)
    if len(old_numbers) != len(new_numbers) or _NUMBER.sub("#", old_row) != _NUMBER.sub("#", new_row):
        return ["    text differs"]
    lines = []
    for old, new in zip(old_numbers, new_numbers):
        if old == new:
            continue
        if old.lstrip("+-").isdigit() and new.lstrip("+-").isdigit():
            distance = "integers"  # a basis label may have thousands of digits: no float holds it
        else:
            a, b = float(old), float(new)
            distance = f"{ulps(a, b)} ulp" if math.isfinite(a) and math.isfinite(b) else "not finite"
        lines.append(f"    {old} -> {new}: {distance}")
    return lines


def diff_outputs(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """The report lines for every row that differs between two ``{name: text}`` output sets.

    An output present on one side only is named as such.  Within an
    output, rows are aligned with :class:`difflib.SequenceMatcher`; a
    replaced run of rows is compared row by row, and each row it adds or
    drops is listed as it is.
    """
    report = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            report.append(f"{name}: only in the {'old' if name in old else 'new'} tree")
            continue
        a, b = old[name].splitlines(), new[name].splitlines()
        matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "equal":
                continue
            if tag == "replace" and i2 - i1 == j2 - j1:
                for k in range(i2 - i1):
                    report += [f"{name}:{j1 + k + 1}", f"  - {a[i1 + k]}", f"  + {b[j1 + k]}"]
                    report += _value_changes(a[i1 + k], b[j1 + k])
                continue
            spans = [f"{side} rows {lo + 1}-{hi}" if hi > lo else f"no {side} row" for side, lo, hi in
                     (("old", i1, i2), ("new", j1, j2))]
            report.append(f"{name}: {', '.join(spans)}")
            report += [f"  - {row}" for row in a[i1:i2]] + [f"  + {row}" for row in b[j1:j2]]
    return report


def run_outputs(tree: str, commands: dict[str, list[str]], scratch: str) -> dict[str, str]:
    """The outputs of ``commands`` and the default figures, run on ``tree`` in a fresh interpreter."""
    figures_dir = tempfile.mkdtemp(dir=scratch)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", _RUNNER],
        input=json.dumps([commands, figures_dir]),
        capture_output=True,
        text=True,
        cwd=scratch,
        env=env,
        check=True,
    )
    run = json.loads(result.stdout)
    if not os.path.realpath(run["package"]).startswith(os.path.realpath(tree) + os.sep):
        raise SystemExit(f"{tree} ran the package at {run['package']}")
    return run["outputs"]


def export(rev: str, target: str) -> None:
    """``git archive rev`` unpacked into ``target``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:
            tar.extractall(target)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], "\n\nusage: python tools/outdiff.py REV", file=sys.stderr)
        return 2
    commands = pinned_commands(os.path.join(ROOT, "tests", "test_cli.py"))
    with tempfile.TemporaryDirectory(prefix="outdiff-") as scratch:
        old_tree = os.path.join(scratch, "old")
        export(argv[0], old_tree)
        report = diff_outputs(run_outputs(old_tree, commands, scratch), run_outputs(ROOT, commands, scratch))
    names = ", ".join([*commands, "figures"])
    print(f"outdiff {argv[0]} -> working tree over {names}")
    print("\n".join(report) if report else "no changed rows")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
