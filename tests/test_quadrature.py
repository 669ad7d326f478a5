"""Adaptive engine: reference integrals, singular grading, the
semi-infinite transform, and error-estimate honesty."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracalc import quadrature
from fracalc.quadrature import (
    Singularity,
    integrate,
    integrate_batch,
    integrate_semi_infinite,
    laplace,
)
from fracalc.special import Accuracy, e1_array


def e1_positive(t):
    # the clip keeps every node inside e1_array's domain x > 0
    return e1_array(np.maximum(t, 1e-300))


class TestFinite:
    def test_constant(self):
        r = integrate(np.ones_like, 0.0, 1.0)
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-14)

    def test_sine(self):
        r = integrate(np.sin, 0.0, math.pi)
        assert r.value == pytest.approx(2.0, abs=1e-12)

    def test_log_singularity(self):
        r = integrate(lambda x: np.log(1.0 / x), 0.0, 1.0,
                      Singularity.LOG_LEFT)
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_log_right(self):
        r = integrate(lambda x: np.log(1.0 / (1.0 - x)), 0.0, 1.0,
                      Singularity.LOG_RIGHT)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 1.0)

    def test_non_convergence_flagged(self):
        # budget too small for a sharp unflagged kink cluster
        f = lambda x: np.abs(np.sin(50.0 / (x + 0.02)))
        r = integrate(f, 0.0, 1.0, acc=Accuracy(1e-12, 1e-12, 16))
        assert not r.converged
        assert r.panels_used <= 16

    def test_converged_meets_tolerance(self):
        acc = Accuracy(1e-9, 1e-9)
        r = integrate(np.exp, 0.0, 2.0, acc=acc)
        assert r.converged
        assert r.err_estimate <= acc.tolerance(r.value)

    @given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4,
                    max_size=4),
           st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4,
                    max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, c1, c2):
        p1 = np.polynomial.Polynomial(c1)
        p2 = np.polynomial.Polynomial(c2)
        both = np.polynomial.Polynomial(np.asarray(c1) + np.asarray(c2))
        r1 = integrate(p1, 0.0, 1.0)
        r2 = integrate(p2, 0.0, 1.0)
        r12 = integrate(both, 0.0, 1.0)
        tol = r1.err_estimate + r2.err_estimate + r12.err_estimate + 1e-12
        assert abs(r12.value - (r1.value + r2.value)) <= tol

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=30, deadline=None)
    def test_interval_additivity(self, split):
        f = lambda x: np.sin(3.0 * x) + x * x
        whole = integrate(f, 0.0, 1.0)
        left = integrate(f, 0.0, split)
        right = integrate(f, split, 1.0)
        tol = (whole.err_estimate + left.err_estimate + right.err_estimate
               + 1e-12)
        assert abs(whole.value - left.value - right.value) <= tol


class TestSemiInfinite:
    def test_exponential(self):
        r = integrate_semi_infinite(lambda t: np.exp(-t), 0.0)
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_e1_normalization(self):
        r = integrate_semi_infinite(e1_positive, 0.0, Singularity.LOG_LEFT)
        assert r.value == pytest.approx(1.0, abs=1e-8)

    def test_lorentzian(self):
        r = integrate_semi_infinite(lambda t: 1.0 / (1.0 + t * t), 0.0)
        assert r.value == pytest.approx(math.pi / 2.0, abs=1e-10)

    def test_shifted_start(self):
        r = integrate_semi_infinite(lambda t: np.exp(-t), 2.0)
        assert r.value == pytest.approx(math.exp(-2.0), abs=1e-10)


class TestLaplace:
    def test_constant(self):
        r = laplace(np.ones_like, 2.0)
        assert r.value == pytest.approx(0.5, abs=1e-10)

    def test_e1(self):
        assert laplace(e1_positive, 1.0, Singularity.LOG_LEFT).value == \
            pytest.approx(math.log(2.0), abs=1e-6)

    def test_e1_reports_convergence(self):
        acc = Accuracy()
        r = laplace(e1_positive, 1.0, Singularity.LOG_LEFT, acc)
        assert r.converged
        assert r.err_estimate <= acc.tolerance(r.value)

    def test_volterra_kernel(self):
        # no marker reaches the mass of S near 0: its transform is the
        # S-weighted batch of exp(-lam z) on [0, 40], where S saturates,
        # plus the closed tail
        from fracalc.special import s_weighted_batch
        lam = math.e - 1.0
        r = s_weighted_batch(lambda z, i: np.exp(-lam * z), 1e-6, 40.0,
                             Singularity.LOG_LEFT)
        assert r.value[0] + math.exp(-40.0 * lam) / lam == pytest.approx(
            1.0, abs=1e-5)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            laplace(np.ones_like, 0.0)


class TestKronrodRule:
    @pytest.mark.parametrize("k", range(23))
    def test_kronrod_exact_to_degree_22(self, k):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        got = quadrature._K15_NODES ** k @ quadrature._K15_WEIGHTS
        assert got == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("k", range(14))
    def test_embedded_gauss_exact_to_degree_13(self, k):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        got = quadrature._K15_NODES ** k @ quadrature._G7_WEIGHTS
        assert got == pytest.approx(exact, abs=1e-14)

    def test_embedded_gauss_is_leggauss7(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert np.max(np.abs(quadrature._K15_NODES[1::2] - nodes)) <= 1e-15
        assert np.max(np.abs(quadrature._G7_WEIGHTS[1::2] - weights)) <= 1e-15
        assert not np.any(quadrature._G7_WEIGHTS[0::2])

    def test_one_call_of_15_nodes_per_panel(self):
        sizes = []

        def counting(x):
            sizes.append(x.size)
            return np.log(1.0 / x)

        r = integrate(counting, 0.0, 1.0, Singularity.LOG_LEFT)
        assert r.converged
        # one call per round, 15 nodes per panel evaluated
        assert all(s % 15 == 0 for s in sizes)
        # the 13 graded seed panels plus two per split, and each split
        # adds one panel to the final count
        assert sum(sizes) == 15 * (13 + 2 * (r.panels_used - 13))


class TestBatch:
    # three integrands of different difficulty, one per integral
    SCALES = np.array([1.0, 7.0, 40.0])

    @classmethod
    def integrand(cls, x, owner):
        return np.log(1.0 / x) * np.cos(cls.SCALES[owner] * x)

    def test_members_match_alone(self):
        b = np.array([1.0, 0.6, 2.0])
        batch = integrate_batch(self.integrand, 0.0, b,
                                Singularity.LOG_LEFT)
        for i in range(b.size):
            alone = integrate_batch(
                lambda x, owner: self.integrand(x, np.full_like(owner, i)),
                0.0, b[i], Singularity.LOG_LEFT)
            assert batch.value[i] == pytest.approx(alone.value[0],
                                                   rel=1e-14, abs=0.0)
            assert batch.panels_used[i] == alone.panels_used[0]
            assert batch.converged[i] and alone.converged[0]

    def test_one_call_per_round(self):
        def counting(calls):
            def f(x, owner):
                calls.append(np.unique(owner).size)
                return self.integrand(x, owner)
            return f

        b = np.array([1.0, 0.6, 2.0])
        batch = []
        integrate_batch(counting(batch), 0.0, b, Singularity.LOG_LEFT)
        alone = []
        for i in range(b.size):
            calls = []
            integrate_batch(lambda x, owner: counting(calls)(
                x, np.full_like(owner, i)), 0.0, b[i], Singularity.LOG_LEFT)
            alone.append(len(calls))
        # every round serves all members still refining, so the batch
        # takes as many calls as its slowest member alone
        assert batch[0] == 3
        assert len(batch) == max(alone)

    def test_unconverged_member_leaves_others(self):
        acc = Accuracy(1e-12, 1e-12, 64)
        kink = lambda x: np.abs(np.sin(50.0 / (x + 0.02)))

        def mixed(x, owner):
            return np.where(owner == 1, kink(x), np.exp(x))

        r = integrate_batch(mixed, 0.0, 1.0 * np.ones(3), acc=acc)
        alone = integrate_batch(lambda x, owner: np.exp(x), 0.0, 1.0,
                                acc=acc)
        assert list(r.converged) == [True, False, True]
        assert r.panels_used[1] <= acc.max_work
        for i in (0, 2):
            assert r.value[i] == alone.value[0]
            assert r.panels_used[i] == alone.panels_used[0]

    def test_max_work_per_integral(self):
        acc = Accuracy(1e-14, 1e-14, 40)
        hard = lambda x, owner: np.abs(np.sin(50.0 / (x + 0.02)))
        r = integrate_batch(hard, 0.0, np.ones(4), acc=acc)
        assert not np.any(r.converged)
        # the budget binds each integral, not the batch as a whole
        assert np.all(r.panels_used == acc.max_work)

    def test_per_integral_markers(self):
        f = lambda x, owner: np.where(owner == 0, np.log(1.0 / x),
                                      np.log(1.0 / (1.0 - x)))
        r = integrate_batch(f, 0.0, 1.0 * np.ones(2),
                            [Singularity.LOG_LEFT, Singularity.LOG_RIGHT])
        assert np.all(r.converged)
        assert np.max(np.abs(r.value - 1.0)) < 1e-10

    def test_empty_batch(self):
        r = integrate_batch(lambda x, owner: x, np.zeros(0), np.zeros(0))
        assert r.value.size == 0

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            integrate_batch(lambda x, owner: x, [0.0, 1.0], [1.0, 1.0])


# twenty integrands with closed forms for the honesty census
_HONESTY_CASES = [
    (np.ones_like, 0.0, 1.0, 1.0, Singularity.NONE),
    (lambda x: x, 0.0, 1.0, 0.5, Singularity.NONE),
    (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0, Singularity.NONE),
    (lambda x: x ** 5, 0.0, 1.0, 1.0 / 6.0, Singularity.NONE),
    (np.sin, 0.0, math.pi, 2.0, Singularity.NONE),
    (lambda x: np.cos(3.0 * x), 0.0, 1.0, math.sin(3.0) / 3.0,
     Singularity.NONE),
    (np.exp, 0.0, 1.0, math.e - 1.0, Singularity.NONE),
    (lambda x: np.exp(-2.0 * x), 0.0, 3.0, (1.0 - math.exp(-6.0)) / 2.0,
     Singularity.NONE),
    (lambda x: 1.0 / (1.0 + x), 0.0, 1.0, math.log(2.0), Singularity.NONE),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0,
     Singularity.NONE),
    (np.sqrt, 0.0, 1.0, 2.0 / 3.0, Singularity.NONE),
    (np.log, 0.0, 1.0, -1.0, Singularity.LOG_LEFT),
    (lambda x: np.log(1.0 - x), 0.0, 1.0, -1.0, Singularity.LOG_RIGHT),
    (lambda x: x * np.log(x), 0.0, 1.0, -0.25, Singularity.LOG_LEFT),
    (lambda x: np.sin(10.0 * x), 0.0, 1.0,
     (1.0 - math.cos(10.0)) / 10.0, Singularity.NONE),
    (np.cosh, 0.0, 1.0, math.sinh(1.0), Singularity.NONE),
    (lambda x: 1.0 / np.sqrt(x + 0.01), 0.0, 1.0,
     2.0 * (math.sqrt(1.01) - 0.1), Singularity.NONE),
    (np.arctan, 0.0, 1.0,
     math.pi / 4.0 - math.log(2.0) / 2.0, Singularity.NONE),
    (lambda x: np.exp(x) * np.sin(x), 0.0, math.pi,
     (math.exp(math.pi) + 1.0) / 2.0, Singularity.NONE),
    (lambda x: np.abs(x - 0.3), 0.0, 1.0, 0.5 * (0.3 ** 2 + 0.7 ** 2),
     Singularity.NONE),
]


def test_error_estimate_honesty():
    dishonest = 0
    for fn, a, b, exact, marker in _HONESTY_CASES:
        r = integrate(fn, a, b, marker)
        if abs(r.value - exact) > 3.0 * max(r.err_estimate, 1e-16):
            dishonest += 1
    assert dishonest <= 1
