#!/usr/bin/env python3
"""Regenerate the octave table of E1 frozen into fracalc.special.

Run from the repository root:

    python3 scripts/compute_e1_table.py

On each octave [2^k, 2^(k+1)), k = 0..5, the scaled function
h(x) = x e^x E1(x) is interpolated at the 20 Chebyshev points of the
first kind in t = x 2^(1-k) - 3 in [-1, 1), with mpmath at 40 digits.
The interpolant is converted to monomials in t (still at 40 digits) and
only then rounded to doubles, highest degree first, ready for Horner's
rule.  The printed literal replaces _E1_OCTAVES in special.py; the test
suite regenerates it and compares.
"""

import mpmath

OCTAVES = 6
POINTS = 20
DIGITS = 40


def octave_coefficients(k: int) -> list[float]:
    """Monomial coefficients in t, highest degree first, of the degree-19
    Chebyshev interpolant of h on octave k."""
    mp = mpmath.mp
    with mpmath.workdps(DIGITS):
        nodes = [mp.cos(mp.pi * (2 * j + 1) / (2 * POINTS)) for j in range(POINTS)]
        values = []
        for t in nodes:
            x = (t + 3) * mp.mpf(2) ** (k - 1)
            values.append(x * mp.exp(x) * mp.e1(x))
        # Chebyshev coefficients c_m = (2/N) sum_j h(t_j) T_m(t_j), c_0 halved
        cheb = [2 * mp.fsum(v * mp.cos(m * mp.pi * (2 * j + 1) / (2 * POINTS))
                            for j, v in enumerate(values)) / POINTS
                for m in range(POINTS)]
        cheb[0] /= 2
        # monomial coefficients (lowest degree first) of T_0 .. T_19, by
        # T_{m+1} = 2 t T_m - T_{m-1}
        basis = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]
        while len(basis) < POINTS:
            nxt = [mp.mpf(0)] + [2 * b for b in basis[-1]]
            for i, b in enumerate(basis[-2]):
                nxt[i] -= b
            basis.append(nxt)
        mono = [mp.fsum(c * row[i] for c, row in zip(cheb, basis) if i < len(row))
                for i in range(POINTS)]
        return [float(c) for c in reversed(mono)]


def octave_table() -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(octave_coefficients(k)) for k in range(OCTAVES))


def main() -> None:
    print("_E1_OCTAVES = (")
    for k, row in enumerate(octave_table()):
        print(f"    # [{2 ** k}, {2 ** (k + 1)})")
        print("    (")
        for i in range(0, len(row), 3):
            print("        " + " ".join(f"{c!r}," for c in row[i:i + 3]))
        print("    ),")
    print(")")


if __name__ == "__main__":
    main()
