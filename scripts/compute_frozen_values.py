#!/usr/bin/env python3
"""Regenerate every oracle-derived constant frozen into the test suite.

Run from the repository root:

    python3 scripts/compute_frozen_values.py

Output is a plain listing; the numbers are pasted into tests as literals.
This script touches only the oracle module, tests/oracle.py (plus closed
forms rebuilt locally from oracle primitives), never the main evaluators,
so the frozen values stay independent of the code they later judge.
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import oracle  # noqa: E402
from oracle import OracleConfig  # noqa: E402


def stamp(label: str, value: float, t0: float) -> None:
    print(f"{label:34s} = {value!r}   [{time.time() - t0:6.1f}s]", flush=True)


def oracle_j_const(r: float) -> float:
    """Closed form of the first-kind integral of the constant 1, rebuilt
    from oracle primitives: r E1(r) - exp(-r) + 1."""
    if r <= 0.0:
        return 0.0
    return r * oracle.oracle_e1(r) - math.exp(-r) + 1.0


def main() -> None:
    t_start = time.time()
    cfg12 = OracleConfig(28, 1e-12)

    t0 = time.time()
    stamp("oracle_e1(1)", oracle.oracle_e1(1.0, cfg12), t0)
    t0 = time.time()
    stamp("oracle_e1(10)", oracle.oracle_e1(10.0, cfg12), t0)

    t0 = time.time()
    v1 = oracle.oracle_s(1.0, cfg12)
    stamp("v1 = oracle_s(1)", v1, t0)

    t0 = time.time()
    stamp("oracle_s(0.5)", oracle.oracle_s(0.5, cfg12), t0)
    t0 = time.time()
    stamp("oracle_s(2)", oracle.oracle_s(2.0, cfg12), t0)

    # cumulative cross-route segments (eps keeps the unreachable mass out)
    for X in (0.5, 1.0, 2.0):
        t0 = time.time()
        stamp(f"oracle_seg(1e-3, {X})",
              oracle.oracle_s_cumulative_segment(1e-3, X), t0)

    # independent cumulative route for the boundedness ladder and the
    # contraction-constant example
    for X in (1.0, 2.0, 4.0, 10.0, 50.0, 200.0):
        t0 = time.time()
        stamp(f"oracle_q({X})", oracle.oracle_q(X), t0)

    # convolution identity (should be 1)
    for x in (0.1, 1.0):
        t0 = time.time()
        stamp(f"oracle_convolution({x})", oracle.oracle_convolution(x), t0)

    # first-kind operator spot values
    t0 = time.time()
    stamp("oracle_operator(const1, a=1, x-a=1)",
          oracle.oracle_operator(lambda t: 1.0, "left", 1.0, 0.0, 2.0, 1.0), t0)
    t0 = time.time()
    stamp("oracle_operator(t, alpha=1, x=1)",
          oracle.oracle_operator(lambda t: t, "left", 1.0, 0.0, 1.0, 1.0), t0)

    # semigroup failure gap for the constant function on [0, 1]:
    # sup_x | J^0.3 (J^0.3 1)(x) - J^0.6 1(x) |, outer J by graded Simpson
    # over the closed form of the inner J (closed form rebuilt above).
    t0 = time.time()
    gap = 0.0
    for x in (0.2, 0.4, 0.6, 0.8, 1.0):
        nested = oracle.oracle_operator(
            lambda t: oracle_j_const(t / 0.3), "left", 0.3, 0.0, 1.0, x,
            OracleConfig(24, 1e-10),
        )
        direct = oracle_j_const(x / 0.6)
        gap = max(gap, abs(nested - direct))
    stamp("semigroup_gap(alpha=beta=0.3)", gap, t0)

    print(f"total {time.time() - t_start:.1f}s", flush=True)


if __name__ == "__main__":
    main()
