"""Events, decoherence functional, and the Sorkin quantum measure.

Events are subsets of the transitions (the sigma-algebra is the full
power set, G being finite). The decoherence functional sums
phi(a^-1 ∘ b) over composable pairs drawn from two events; its
diagonal is the quantum measure, a grade-2 (non-additive) measure
whose zeros mark physically precluded event sets. Raw phi is used
throughout (no weight), so mu of a one-fiber event equals |phi_yx|^2
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gns import fundamental_representation
from .groupoid import FiniteGroupoid
from .states import State


@dataclass(frozen=True)
class Event:
    """A subset of the transitions of one groupoid."""

    members: frozenset[int]

    def __or__(self, other: "Event") -> "Event":
        return Event(self.members | other.members)

    def __and__(self, other: "Event") -> "Event":
        return Event(self.members & other.members)

    def disjoint(self, other: "Event") -> bool:
        return not (self.members & other.members)

    def __len__(self) -> int:
        return len(self.members)


def event(ids) -> Event:
    return Event(frozenset(int(i) for i in ids))


def fiber_event(g: FiniteGroupoid, source: str | int, target: str | int) -> Event:
    """A_{y,x}: every transition from outcome x to outcome y."""
    return event(g.arrows(source, target))


def _check_event(g: FiniteGroupoid, *events: Event) -> None:
    for ev in events:
        for i in ev.members:
            if not 0 <= i < g.n_transitions:
                raise ValueError(f"event member {i} is not a transition id")


def decoherence(s: State, a: Event, b: Event) -> complex:
    """D(A,B) = sum over composable pairs of phi(alpha^-1 ∘ beta).

    Hermitian (D(A,B) = conj(D(B,A))) and additive in each slot over
    disjoint unions.
    """
    g = s.groupoid
    _check_event(g, a, b)
    ia = np.fromiter(sorted(a.members), dtype=int)
    ib = np.fromiter(sorted(b.members), dtype=int)
    idx = g.inverse_products(ia, ib)
    mask = idx >= 0
    return complex(np.sum(s.phi.values[idx[mask]]))


def quantum_measure(s: State, a: Event) -> float:
    """mu(A) = D(A,A); real, and non-negative for positive states.

    Returned raw (without clamping); tiny negative values are floating
    error and callers compare against tolerances. Not additive: see
    ``interference`` for the grade-2 defect.
    """
    return decoherence(s, a, a).real


def interference(s: State, a: Event, b: Event) -> float:
    """I(A,B) = mu(A ∪ B) - mu(A) - mu(B) for disjoint A, B."""
    if not a.disjoint(b):
        raise ValueError("interference term is defined for disjoint events")
    return quantum_measure(s, a | b) - quantum_measure(s, a) - quantum_measure(s, b)


def amplitude_matrix(s: State) -> np.ndarray:
    """Phi[y, x] = sum of phi over the arrows x -> y (factorizable states)."""
    if not s.is_factorizable:
        raise ValueError("amplitude matrix requires a factorizable state")
    return fundamental_representation(s.groupoid, s.phi.as_element())


@dataclass(frozen=True)
class ReproducibilityDefect:
    """Max-norm defects of Phi = Phi·Phi (raw) and Phi = Phi·(Phi/|Omega|)."""

    normalized: float
    raw: float


def reproducibility_defect(s: State) -> ReproducibilityDefect:
    amp = amplitude_matrix(s)
    n_out = s.groupoid.n_outcomes
    raw = float(np.max(np.abs(amp @ amp - amp)))
    normalized = float(np.max(np.abs(amp @ (amp / n_out) - amp)))
    return ReproducibilityDefect(normalized=normalized, raw=raw)
