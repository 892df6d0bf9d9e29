"""Correctness gate for benchmark ops, run outside the timer.

Every check uses only quantities that do not depend on the GNS basis: the
Gram spectrum of these states is degenerate, so GNS coordinates themselves
depend on the LAPACK build. ``check_op`` returns a list of failure messages;
an empty list means the op's artifacts are correct.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

TOL = 1e-9

ARTIFACTS = {
    "check": ("axioms.json",),
    "cayley": ("cayley.csv",),
    "state": ("state.json",),
    "evolve": ("amplitudes.csv", "evolve.csv"),
    "measure": ("measure.json",),
    "gns": ("gns.json",),
}


def _close(a, b, tol=TOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_amplitudes(outdir: Path) -> tuple[list[tuple[str, str]], np.ndarray]:
    """(y, x) label pairs and the complex amplitude table, one row per time."""
    header, data = _read_csv(outdir / "amplitudes.csv")
    pairs = [tuple(h[3:-1].split("<-")) for h in header[1::2]]
    return pairs, data[:, 1::2] + 1j * data[:, 2::2]


def read_psi(outdir: Path) -> tuple[np.ndarray, np.ndarray]:
    """GNS trajectory psi_t (rows) and the written norm column."""
    _, data = _read_csv(outdir / "evolve.csv")
    return data[:, 1:-1:2] + 1j * data[:, 2:-1:2], data[:, -1]


def check_op(op, calls, expect, results, outdir: Path) -> list[str]:
    """Exit codes of every call and the artifacts of every verb of ``op``.

    ``expect[i]`` is None when call i must succeed, else the diagnostic code
    a malformed spec must exit with (exit code 2, code first on stderr).
    """
    bad = []
    for argv, code_want, (code, out, err) in zip(calls, expect, results):
        if code_want is not None:
            if code != 2 or not err.startswith(code_want + ":"):
                bad.append(f"{argv[2]}: exit {code}, stderr {err.strip()[:120]!r}, want {code_want}")
        elif code != 0:
            bad.append(f"{argv[0]}: exit {code}: {err.strip()[-300:]}")
    if bad:
        return bad
    for verb in op.verbs:
        for name in ARTIFACTS[verb]:
            if not (outdir / name).is_file():
                bad.append(f"{verb}: {name} missing")
    if bad:
        return bad
    n, n_out = op.n_transitions, op.n_outcomes
    w = op.weight
    if "check" in op.verbs and _json(outdir / "axioms.json")["ok"] is not True:
        bad.append("axioms.ok is not true")
    if "cayley" in op.verbs:
        lines = (outdir / "cayley.csv").read_bytes().splitlines()
        stars = sum(line.count(b"*") for line in lines)
        if len(lines) != n + 1 or any(line.count(b",") != n for line in lines):
            bad.append(f"cayley.csv is not {n + 1} x {n + 1}")
        elif stars != n * n - op.composable_pairs:
            bad.append(f"cayley.csv has {stars} '*' cells, want {n * n - op.composable_pairs}")
    if "state" in op.verbs:
        st = _json(outdir / "state.json")
        flags = [st["positive_definite"], st["unitary"], st["factorizable"]]
        if flags != [True, True, True] or not _close(st["weight"], w):
            bad.append(f"state flags {flags}, weight {st['weight']} (want {w})")
    if "evolve" in op.verbs:
        pairs, amp = read_amplitudes(outdir)
        # t = 0: rho(1_y 1_x) = delta_xy * w * phi(1_x), and phi(1_x) = 1 here
        want0 = [w if y == x else 0.0 for y, x in pairs]
        if amp.shape != (op.grid_steps, n_out * n_out):
            bad.append(f"amplitudes shape {amp.shape}")
        elif not (_close(amp[0].real, want0) and _close(amp[0].imag, np.zeros(len(pairs)))):
            bad.append("amplitudes at t=0 differ from delta_xy * w * phi(1_x)")
        _, norms = read_psi(outdir)
        if len(norms) != op.grid_steps or not _close(norms, np.ones(len(norms))):
            bad.append(f"evolve norm column deviates from 1 by {np.max(np.abs(norms - 1)):.3g}")
    if "measure" in op.verbs:
        fibers = _json(outdir / "measure.json")["fiber_measures"]
        if len(fibers) != n_out * n_out:
            bad.append(f"{len(fibers)} fiber measures, want {n_out * n_out}")
        for key, entry in fibers.items():
            if not _close(entry["mu"], entry["amplitude_sq"]):
                bad.append(f"fiber {key}: mu {entry['mu']} != amplitude_sq {entry['amplitude_sq']}")
                break
    if "gns" in op.verbs:
        gns = _json(outdir / "gns.json")
        # factorizable unitary states: dim = |Omega|, every Gram eigenvalue w |G| / |Omega|
        if gns["dim"] != n_out or not _close(gns["gram_eigenvalues"], [w * n / n_out] * n_out):
            bad.append(f"gns dim {gns['dim']}, eigenvalues {gns['gram_eigenvalues'][:3]}...")
    return bad


def invariants(op, outdir: Path) -> dict[str, list]:
    """Basis-independent values recorded in, and compared against, the reference."""
    inv: dict[str, list] = {}
    if "evolve" in op.verbs:
        _, amp = read_amplitudes(outdir)
        inv["amplitudes"] = np.stack([amp.real, amp.imag], axis=-1).tolist()
        psi, _ = read_psi(outdir)
        inv["overlap_abs"] = np.abs(psi @ psi[0].conj()).tolist()  # |<psi_0|psi_t>|
    if "gns" in op.verbs:
        gns = _json(outdir / "gns.json")
        inv["gram_eigenvalues"] = gns["gram_eigenvalues"]
        if "hamiltonian_matrix" in gns:
            h = np.array(gns["hamiltonian_matrix"])
            h = h[..., 0] + 1j * h[..., 1]
            inv["hamiltonian_spectrum"] = np.linalg.eigvalsh(0.5 * (h + h.conj().T)).tolist()
    if "measure" in op.verbs:
        fibers = _json(outdir / "measure.json")["fiber_measures"]
        inv["fiber_mu"] = [fibers[k]["mu"] for k in sorted(fibers)]
    return inv


def compare(actual: dict, expected: dict, tol: float) -> list[str]:
    bad = []
    for key, want in expected.items():
        if key not in actual or not _close(actual[key], want, tol):
            got = np.asarray(actual.get(key, []), dtype=float)
            ref = np.asarray(want, dtype=float)
            diff = np.max(np.abs(got - ref)) if got.shape == ref.shape else f"shape {got.shape}"
            bad.append(f"reference {key}: max difference {diff}")
    return bad
