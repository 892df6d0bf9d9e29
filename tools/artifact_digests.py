#!/usr/bin/env python3
"""Print the sha256 of every artifact the bundled specs produce.

    python3 tools/artifact_digests.py --src <checkout>/src > digests.txt

Runs ``gqm.cli.main`` in-process from the given source tree:

- every bundled spec x verb x format (the verb's default, json, csv),
  printing ``sha256  spec/verb/format/file`` for each file written, or
  ``exit <code> <first stderr token>  spec/verb/format`` for a verb that
  fails;
- every malformed spec under ``check``, printing its exit code and first
  stderr token.

Float artifacts can change in the last digits with the BLAS thread count,
so one thread is forced before numpy is imported. Two checkouts produce
the same artifacts when one ``diff`` of their outputs is empty.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

VERBS = ("check", "cayley", "state", "evolve", "measure", "gns")
FORMATS = ("default", "json", "csv")


def run_verb(main, verb: str, spec: Path, out: Path, fmt: str) -> tuple[int, str]:
    """Exit code and stderr of one in-process ``gqm`` call."""
    argv = [verb, "--spec", str(spec), "--out", str(out)]
    if fmt != "default":
        argv += ["--format", fmt]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def failure(code: int, stderr: str) -> str:
    token = stderr.split(":", 1)[0] if stderr else "-"
    return f"exit {code} {token}"


def digests(src: Path):
    sys.path.insert(0, str(src))
    from gqm.cli import main

    specs = src / "gqm" / "specs"
    with tempfile.TemporaryDirectory() as tmp:
        for spec in sorted(specs.glob("*.json")):
            for verb in VERBS:
                for fmt in FORMATS:
                    key = f"{spec.name}/{verb}/{fmt}"
                    out = Path(tmp) / key
                    code, stderr = run_verb(main, verb, spec, out, fmt)
                    if code:
                        yield f"{failure(code, stderr)}  {key}"
                        continue
                    for path in sorted(out.iterdir()):
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        yield f"{digest}  {key}/{path.name}"
        for spec in sorted((specs / "malformed").glob("*.json")):
            if spec.name == "manifest.json":
                continue
            code, stderr = run_verb(main, "check", spec, Path(tmp) / "malformed", "default")
            yield f"{failure(code, stderr)}  malformed/{spec.name}/check"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="the src/ directory of the checkout to run")
    args = parser.parse_args()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before gqm imports numpy
    for line in digests(args.src.resolve()):
        print(line)


if __name__ == "__main__":
    main()
