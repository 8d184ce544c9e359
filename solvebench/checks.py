"""Output checks of the solve benchmark.

Every check takes the program's outputs plus what it needs to recompute the
expected value apart from the solve, and raises `CheckFailed` with a message
naming the first disagreement. None of them is timed.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent computation."""


def check_gbest_trace(series: list[float], iterations: int):
    """Check 1: exactly one row per iteration, never increasing."""
    if len(series) != iterations:
        raise CheckFailed(f"trace has {len(series)} rows, expected {iterations}")
    for t in range(1, len(series)):
        if not series[t] <= series[t - 1]:
            raise CheckFailed(
                f"gbest rises at iteration {t + 1}: {series[t - 1]!r} -> {series[t]!r}"
            )


def first_divergence(series: list[float], reference: list[float]) -> int | None:
    """First iteration (1-based) at which the gbest leaves REL_TOL of the
    reference, or None if it never does."""
    if len(series) != len(reference):
        raise CheckFailed(f"trace has {len(series)} rows, reference {len(reference)}")
    for t, (got, want) in enumerate(zip(series, reference), start=1):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return t
    return None


def check_matches_reference(series: list[float], reference: list[float]):
    """Check 2: per-iteration gbest within REL_TOL of the centralized reference."""
    t = first_divergence(series, reference)
    if t is not None:
        raise CheckFailed(f"iteration {t}: gbest {series[t - 1]!r} vs reference {reference[t - 1]!r}")


def check_assignment(cost: float, final_gbest: float):
    """Check 3: the cost of the reported best assignment is the final gbest."""
    if not math.isclose(cost, final_gbest, rel_tol=REL_TOL, abs_tol=0.0):
        raise CheckFailed(f"best assignment costs {cost!r}, final gbest is {final_gbest!r}")


def expected_envelopes(iterations: int, n_constraints: int, n_aggregators: int) -> int:
    """(2T+1)*E + T*A: one VALUE per edge, then per iteration one edge cost and
    one UPDATE per edge plus one aggregate per non-root agent with L != {}."""
    return (2 * iterations + 1) * n_constraints + iterations * n_aggregators


def check_envelope_count(envelopes: int, iterations: int, n_constraints: int,
                         n_aggregators: int):
    """Check 4: the envelope count matches the accounting formula exactly."""
    want = expected_envelopes(iterations, n_constraints, n_aggregators)
    if envelopes != want:
        raise CheckFailed(
            f"{envelopes} envelopes, expected (2T+1)E + TA = {want} "
            f"(T={iterations}, E={n_constraints}, A={n_aggregators})"
        )


def check_scalar_volume(scalars: int, envelopes: int, K: int):
    """Check 5: every envelope carries between K and 3K+3 scalars."""
    if not K * envelopes <= scalars <= (3 * K + 3) * envelopes:
        raise CheckFailed(
            f"{scalars} scalars outside [{K * envelopes}, {(3 * K + 3) * envelopes}] "
            f"for {envelopes} envelopes at K={K}"
        )


def check_identical_csv(traced: str, untraced: str):
    """Check 6: tracing does not change a single byte of the trace CSV."""
    if traced != untraced:
        at = next((i for i, (a, b) in enumerate(zip(traced, untraced)) if a != b),
                  min(len(traced), len(untraced)))
        raise CheckFailed(
            f"traced CSV differs from untraced CSV at byte {at} "
            f"(lengths {len(traced)} and {len(untraced)})"
        )
