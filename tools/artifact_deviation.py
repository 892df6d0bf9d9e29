#!/usr/bin/env python3
"""Print how far each bundled JSON artifact moved between two checkouts.

    python3 tools/artifact_deviation.py --old <checkout>/src --new <checkout>/src

Runs ``gqm.cli.main`` in-process from each source tree in turn, on that
tree's bundled specs, for every verb with ``--format json``, and prints one
line per artifact:

- ``<max |Δ|>  spec/verb/file``, the largest absolute difference over all
  numbers of the JSON tree (0 when the two are equal);
- ``shape  spec/verb/file`` where the trees differ in keys, lengths,
  types or any non-number leaf;
- ``missing  spec/verb/file`` where only one checkout wrote the file;
- ``exit <code> <diagnostic>  spec/verb`` where the verb fails alike in
  both, and ``<old> -> <new>  spec/verb`` where only one fails or the two
  fail differently (``ok`` standing for success).

Use it beside ``artifact_digests.py``: the digests say which artifacts
changed, this says by how much. One BLAS thread is forced before numpy is
imported, as there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from artifact_digests import VERBS, failure, run_verb


def write_artifacts(src: Path, root: Path) -> dict[str, str | Path]:
    """Run every bundled spec x verb from ``src``; map each key to its
    artifact path, or to the verb's failure string."""
    sys.path.insert(0, str(src))
    try:
        from gqm.cli import main

        out: dict[str, str | Path] = {}
        for spec in sorted((src / "gqm" / "specs").glob("*.json")):
            for verb in VERBS:
                key = f"{spec.name}/{verb}"
                code, stderr = run_verb(main, verb, spec, root / key, "json")
                if code:
                    out[key] = failure(code, stderr)
                    continue
                for path in sorted((root / key).iterdir()):
                    out[f"{key}/{path.name}"] = path
        return out
    finally:
        sys.path.remove(str(src))
        for name in [m for m in sys.modules if m == "gqm" or m.startswith("gqm.")]:
            del sys.modules[name]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def deviation(a, b) -> float | None:
    """Max |a - b| over the numbers of two JSON trees; None if their shapes differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        parts = [deviation(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        parts = [deviation(x, y) for x, y in zip(a, b)]
    elif _is_number(a) and _is_number(b):
        return 0.0 if a == b else abs(a - b)
    else:
        return 0.0 if type(a) is type(b) and a == b else None
    return None if None in parts else max(parts, default=0.0)


def compare(old: dict, new: dict):
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if isinstance(a, str) or isinstance(b, str):
            status = a if a == b else f"{a or 'ok'} -> {b or 'ok'}"
            yield f"{status}  {key}"
        elif a is None or b is None:
            yield f"missing  {key}"
        else:
            d = deviation(json.loads(a.read_text(encoding="utf-8")),
                          json.loads(b.read_text(encoding="utf-8")))
            yield f"{'shape' if d is None else f'{d:.3g}'}  {key}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--old", required=True, type=Path, help="src/ of the old checkout")
    parser.add_argument("--new", required=True, type=Path, help="src/ of the new checkout")
    args = parser.parse_args()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before gqm imports numpy
    with tempfile.TemporaryDirectory() as tmp:
        old = write_artifacts(args.old.resolve(), Path(tmp) / "old")
        new = write_artifacts(args.new.resolve(), Path(tmp) / "new")
        for line in compare(old, new):
            print(line)


if __name__ == "__main__":
    main()
