import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmaric.symfun import (
    cone_contains,
    maclaurin_ratios,
    sigma_all,
    sigma_all_batch,
    sigma_k,
    sigma_newton,
)


def sigma_bruteforce(lam, k):
    """Literal sum over k-subsets; the independent oracle."""
    return sum(
        np.prod(c) for c in itertools.combinations(lam, k)
    )


def random_symmetric(rng, m):
    A = rng.standard_normal((m, m))
    return 0.5 * (A + A.T)


class TestSigmaK:
    def test_simple(self):
        assert sigma_k([1, 2, 3], 2) == pytest.approx(11.0)

    def test_beta_tilde_anchor(self):
        # sigma_2 of the constant-3 vector in dimension 4 equals 54
        assert sigma_k([3, 3, 3, 3], 2) == pytest.approx(54.0)

    def test_identity_case(self):
        assert sigma_k([1, 1, 1], 3) == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_k([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            sigma_k([1.0, 2.0], 0)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, lam, data):
        k = data.draw(st.integers(1, len(lam)))
        scale = max(1.0, max(abs(x) for x in lam)) ** k
        assert sigma_k(lam, k) == pytest.approx(
            sigma_bruteforce(lam, k), abs=1e-10 * scale
        )

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        lams = rng.standard_normal((50, 4))
        e = sigma_all_batch(lams)
        for i in range(50):
            for k in range(1, 5):
                assert e[i, k] == pytest.approx(sigma_k(lams[i], k))


def per_row(lams):
    """sigma_all applied vector by vector to an (..., m) stack."""
    out = np.empty(lams.shape[:-1] + (lams.shape[-1] + 1,))
    for idx in np.ndindex(lams.shape[:-1]):
        out[idx] = sigma_all(lams[idx])
    return out


class TestSigmaAllStack:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_stack_matches_rows_bitwise(self, m):
        rng = np.random.default_rng(100 + m)
        for shape in ((37, m), (4, 5, m)):
            lams = rng.normal(0.0, 2.0, shape)
            e = sigma_all(lams)
            assert e.shape == shape[:-1] + (m + 1,)
            assert np.array_equal(e, per_row(lams))
            assert np.array_equal(sigma_all_batch(lams), e)

    def test_rejects_bad_stacks(self):
        lams = np.ones((3, 4, 5))
        for bad in (np.nan, np.inf, -np.inf):
            for idx in ((0, 0, 0), (2, 3, 4), (1, 2, 0)):
                stack = lams.copy()
                stack[idx] = bad
                with pytest.raises(ValueError):
                    sigma_all(stack)
        with pytest.raises(ValueError):
            sigma_all(np.ones((4, 0)))
        with pytest.raises(ValueError):
            sigma_all(np.float64(2.0))

    def test_batch_passes_non_finite_through(self):
        # the radial line search rejects such a point by its margin
        lams = np.ones((6, 4))
        lams[2, 1] = np.inf
        with np.errstate(invalid="ignore"):
            e = sigma_all_batch(lams)
        assert not np.all(np.isfinite(e[2, 1:]))
        finite = [0, 1, 3, 4, 5]
        assert np.array_equal(e[finite], per_row(lams[finite]))


def component_major(stack):
    """An (n, m, m) stack of matrices as the (m, m, n) array sigma_newton
    takes."""
    return np.moveaxis(stack, 0, -1)


class TestSigmaAllMatrix:
    # sigma_0..sigma_k of matrix stacks, the e that sigma_newton returns
    def test_matches_eigenvalues(self):
        # the trace recursion loses accuracy relative to sigma_k(|lam|)
        # when eigenvalue magnitudes differ widely, so the error is
        # measured normwise, against C(m, k) max|lam|^k
        rng = np.random.default_rng(17)
        n = 2000
        for m in range(2, 7):
            W = 0.5 * rng.standard_normal((n, m, m))
            W = W + np.swapaxes(W, 1, 2)
            # near-repeated spectra: one cluster split by 1e-9, the rest
            # of the eigenvalues exactly repeated
            Q, _ = np.linalg.qr(rng.standard_normal((n, m, m)))
            lam = rng.normal(0.0, 2.0, (n, 1)) + 1e-9 * rng.standard_normal(
                (n, m)
            )
            lam[:, : m // 2] = rng.normal(0.0, 2.0, (n, 1))
            Wc = np.einsum("iab,ib,icb->iac", Q, lam, Q)
            for stack in (W, Wc):
                ev = np.linalg.eigvalsh(stack)
                ref = sigma_all_batch(ev)
                got, _ = sigma_newton(component_major(stack), m)
                assert got.shape == (m + 1, n)
                assert np.all(got[0] == 1.0)
                top = np.abs(ev).max(axis=1)
                for k in range(1, m + 1):
                    err = np.abs(got[k] - ref[:, k])
                    assert np.all(err <= 1e-12 * comb(m, k) * top**k)

    def test_prefix_and_validation(self):
        W = random_symmetric(np.random.default_rng(19), 4)
        full, _ = sigma_newton(W, 4)
        assert np.array_equal(sigma_newton(W, 2)[0], full[:3])
        for k in (0, 5):
            with pytest.raises(ValueError):
                sigma_newton(W, k)
        with pytest.raises(ValueError):
            sigma_newton(np.zeros((3, 2)), 1)


class TestNewtonTransform:
    # T_{k-1}, the transform sigma_newton(W, k) returns with sigma_k
    def test_base_case(self):
        W = random_symmetric(np.random.default_rng(0), 4)
        T0 = sigma_newton(W, 1)[1]
        assert np.array_equal(T0, np.eye(4)) and not T0.flags.writeable

    def test_t1_diagonal(self):
        T1 = sigma_newton(np.diag([1.0, 2.0, 3.0]), 2)[1]
        assert np.allclose(T1, np.diag([5.0, 4.0, 3.0]))

    def test_trace_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = rng.integers(2, 6)
            W = random_symmetric(rng, m)
            for k in range(1, m + 1):
                lhs = np.trace(sigma_newton(W, k)[1] @ W)
                lam = np.linalg.eigvalsh(W)
                rhs = k * sigma_bruteforce(lam, k)
                scale = max(1.0, np.abs(lam).max() ** k)
                assert abs(lhs - rhs) <= 1e-12 * scale * comb(m, k) * k

    def test_top_transform_positive_definite_in_cone(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = rng.integers(3, 6)
            lam = rng.uniform(0.1, 3.0, m)
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            W = Q @ np.diag(lam) @ Q.T
            W = 0.5 * (W + W.T)
            T = sigma_newton(W, m)[1]
            assert np.linalg.eigvalsh(0.5 * (T + T.T))[0] > 0

    def test_cayley_hamilton(self):
        # T_m = sigma_m I - T_{m-1} W vanishes for every square matrix,
        # symmetric or not, one stack at a time
        rng = np.random.default_rng(29)
        for m in range(1, 7):
            W = rng.standard_normal((50, m, m))
            for stack in (W, 0.5 * (W + np.swapaxes(W, 1, 2))):
                e, T = sigma_newton(component_major(stack), m)
                err = np.abs(np.moveaxis(T, -1, 0) @ stack
                             - e[m, :, None, None] * np.eye(m))
                scale = np.linalg.norm(stack, 2, axis=(1, 2)) ** m
                bound = 1e-13 * comb(m, m // 2) * np.maximum(1.0, scale)
                assert np.all(err.max(axis=(1, 2)) <= bound)


class TestCone:
    def test_positive_definite_vector(self):
        for k in range(1, 5):
            ok, margin = cone_contains(np.ones(4), k)
            assert ok and margin > 0

    def test_partial_membership(self):
        lam = np.array([-0.1, 1.0, 1.0])
        ok2, m2 = cone_contains(lam, 2)
        assert ok2 and m2 == pytest.approx(0.8)
        ok3, _ = cone_contains(lam, 3)
        assert not ok3

    def test_k1_only(self):
        lam = np.array([-1.0, -1.0, 5.0])
        assert cone_contains(lam, 1) == (True, pytest.approx(3.0))
        ok, margin = cone_contains(lam, 2)
        assert not ok and margin == pytest.approx(-9.0)

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_nesting(self, lam, data):
        k = data.draw(st.integers(2, len(lam)))
        if cone_contains(lam, k)[0]:
            for j in range(1, k):
                assert cone_contains(lam, j)[0]


class TestMacLaurin:
    def test_equality_case(self):
        r = maclaurin_ratios(np.ones(5), 5)
        assert np.allclose(r, 1.0)

    def test_example_values(self):
        r = maclaurin_ratios(np.array([1.0, 2.0, 3.0]), 3)
        assert r[0] == pytest.approx(2.0)
        assert r[1] == pytest.approx(np.sqrt(11.0 / 3.0))
        assert r[2] == pytest.approx(6.0 ** (1.0 / 3.0))
        assert np.all(np.diff(r) <= 1e-14)

    def test_ordering(self):
        r = maclaurin_ratios(np.array([0.5, 1.0, 4.0]), 3)
        assert np.all(np.diff(r) <= 1e-14)

    def test_outside_cone_raises(self):
        with pytest.raises(ValueError):
            maclaurin_ratios(np.array([-1.0, -1.0, 5.0]), 2)

    @given(
        st.lists(st.floats(0.01, 10), min_size=2, max_size=6),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_equality_detection(self, lam, data):
        lam = np.asarray(lam)
        k = data.draw(st.integers(1, len(lam)))
        r = maclaurin_ratios(lam, k)
        assert np.all(np.diff(r) <= 1e-10 * max(1.0, r[0]))
        if k >= 2 and abs(r[0] - r[-1]) <= 1e-12 * r[0]:
            assert np.ptp(lam) <= 1e-10 * max(1.0, lam.max())
