import numpy as np
import pytest
import scipy.sparse.linalg as spla

from oracles import ricci_fd
from sigmaric import surface_scalar
from sigmaric.domains import ScalarField, make_box_grid
from sigmaric.surface_scalar import (
    PolarDiskGrid,
    SurfaceProblem,
    laplacian_matrix,
    make_polar_disk,
    solve_positive_scalar,
    verify_positive_scalar,
)


class TestPolarGrid:
    def test_shape_and_boundary(self):
        g = make_polar_disk(2.0, 8, 16)
        assert g.n == 1 + 8 * 16
        assert g.boundary.sum() == 16
        r = np.linalg.norm(g.points[g.boundary], axis=1)
        assert np.allclose(r, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_polar_disk(0.0, 8, 16)
        with pytest.raises(ValueError):
            make_polar_disk(1.0, 1, 16)
        with pytest.raises(ValueError):
            make_polar_disk(1.0, 8, 3)

    def test_laplacian_exact_on_radial_quadratic(self):
        # the stencil, including the axis closure, is exact on a + b r^2
        g = make_polar_disk(1.0, 16, 16)
        lap = laplacian_matrix(g)
        f = 3.0 + 2.0 * np.sum(g.points**2, axis=1)
        assert np.max(np.abs((lap @ f)[~g.boundary] - 8.0)) < 1e-10

    def test_laplacian_second_order(self):
        # away from the axis the scheme is clean O(h^2); near the axis
        # the angular term degrades gracefully but the error still falls
        errs, full = [], []
        for n in (32, 64):
            g = make_polar_disk(1.0, n, 2 * n)
            lap = laplacian_matrix(g)
            f = np.sin(g.points[:, 0]) * np.cos(g.points[:, 1])
            err = np.abs(lap @ f + 2.0 * f)
            rr = np.linalg.norm(g.points, axis=1)
            errs.append(err[(~g.boundary) & (rr >= 0.25)].max())
            full.append(err[~g.boundary].max())
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert full[1] < full[0]


class TestFastSolvers:
    """The fast Poisson solvers against a sparse direct solve of the
    assembled Laplacian.  A random curvature gives a random interior rhs
    (R - 1)/2, so every Fourier mode of the polar solve is excited.  The
    reference takes one step of iterative refinement: a bare spsolve is
    off by up to about 1e-11 relative on these grids."""

    @staticmethod
    def _against_spsolve(grid, seed):
        R = np.random.default_rng(seed).standard_normal(grid.n)
        u = solve_positive_scalar(SurfaceProblem(grid=grid, curvature=R))
        rhs = np.where(grid.boundary, 0.0, (R - 1.0) / 2.0)
        lap = laplacian_matrix(grid)
        ref = spla.spsolve(lap, rhs)
        ref = ref + spla.spsolve(lap, rhs - lap @ ref)
        assert np.max(np.abs(u.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_r, n_t", [(2, 4), (9, 7), (16, 16),
                                          (33, 17)])
    def test_polar_matches_direct_solve(self, n_r, n_t):
        # odd n_t, the Nyquist mode and a single interior ring (n_r = 2)
        self._against_spsolve(make_polar_disk(1.3, n_r, n_t), n_r * n_t)

    @pytest.mark.parametrize("counts", [(17, 17), (33, 65)])
    def test_box_matches_direct_solve(self, counts):
        grid = make_box_grid([0, 0], [1.0, 0.7], list(counts))
        self._against_spsolve(grid, counts[1])


class TestFlatDisk:
    def test_exact_profile(self):
        # -2 Delta u = 1 with u(1) = 0 has u = (1 - |x|^2)/8, which the
        # polar stencil reproduces to roundoff
        g = make_polar_disk(1.0, 128, 128)
        u = solve_positive_scalar(SurfaceProblem(grid=g))
        exact = (1.0 - np.sum(g.points**2, axis=1)) / 8.0
        assert np.max(np.abs(u.values - exact)) <= 1e-10

    def test_report(self):
        g = make_polar_disk(1.0, 128, 128)
        prob = SurfaceProblem(grid=g)
        rep = verify_positive_scalar(prob, solve_positive_scalar(prob))
        assert rep["positive"]
        assert rep["residual"] <= 1e-8
        assert rep["new_curvature_min"] == pytest.approx(
            np.exp(-0.25), rel=1e-3
        )


class TestGeneralCurvature:
    def test_constant_one_gives_zero(self):
        g = make_polar_disk(1.0, 32, 32)
        prob = SurfaceProblem(grid=g, curvature=1.0)
        u = solve_positive_scalar(prob)
        assert np.max(np.abs(u.values)) <= 1e-12

    def test_random_smooth_curvature(self):
        g = make_polar_disk(1.0, 128, 128)
        R = ScalarField(
            g, 0.5 * np.sin(3 * g.points[:, 0]) * np.cos(2 * g.points[:, 1])
        )
        prob = SurfaceProblem(grid=g, curvature=R)
        rep = verify_positive_scalar(prob, solve_positive_scalar(prob))
        assert rep["residual"] <= 1e-8
        assert rep["positive"]

    def test_box_grid(self):
        g = make_box_grid([0, 0], [1, 1], [65, 65])
        R = ScalarField(g, 0.3 * np.cos(np.pi * g.points[:, 0]))
        prob = SurfaceProblem(grid=g, curvature=R)
        rep = verify_positive_scalar(prob, solve_positive_scalar(prob))
        assert rep["residual"] <= 1e-10
        assert rep["positive"]


class TestConformalBackground:
    def test_conformal_solve(self):
        g = make_box_grid([0, 0], [1, 1], [65, 65])
        psi = ScalarField(
            g,
            0.2 * np.sin(np.pi * g.points[:, 0])
            * np.sin(np.pi * g.points[:, 1]),
        )
        prob = SurfaceProblem(grid=g, psi=psi)
        rep = verify_positive_scalar(prob, solve_positive_scalar(prob))
        assert rep["residual"] <= 1e-8
        assert rep["positive"]

    def test_operator_built_once(self, monkeypatch):
        # solve and verify share the problem's Laplacian, R(g) and weight
        builds = []

        def counting(grid):
            builds.append(grid)
            return laplacian_matrix(grid)

        monkeypatch.setattr(surface_scalar, "laplacian_matrix", counting)
        g = make_polar_disk(1.0, 16, 16)
        psi = ScalarField(g, 0.1 * (1.0 - np.sum(g.points**2, axis=1)))
        prob = SurfaceProblem(grid=g, psi=psi)
        verify_positive_scalar(prob, solve_positive_scalar(prob))
        assert len(builds) == 1

    def test_conformal_identity_discrete(self):
        # e^{2u} R(e^{2u} g) = R(g) - 2 Delta_g u with R(e^{2u} g)
        # computed from the combined exponent psi + u
        g = make_box_grid([0, 0], [1, 1], [65, 65])
        psi_vals = 0.1 * np.sin(np.pi * g.points[:, 0]) * np.sin(
            np.pi * g.points[:, 1]
        )
        prob = SurfaceProblem(grid=g, psi=ScalarField(g, psi_vals))
        u = solve_positive_scalar(prob)
        lap = laplacian_matrix(g)
        interior = ~g.boundary
        w = psi_vals + u.values
        # R of e^{2w} delta in 2-D is -2 e^{-2w} Delta w
        R_new = -2.0 * np.exp(-2.0 * w) * (lap @ w)
        lhs = np.exp(2.0 * u.values) * R_new
        Rg = -2.0 * np.exp(-2.0 * psi_vals) * (lap @ psi_vals)
        rhs = Rg - 2.0 * np.exp(-2.0 * psi_vals) * (lap @ u.values)
        assert np.max(np.abs((lhs - rhs)[interior])) <= 1e-10

    def test_curvature_convention_against_fd_oracle(self):
        # the pointwise formula R(e^{2w} delta) = -2 e^{-2w} Delta w used
        # throughout agrees with scalar curvature assembled from finite
        # differences of Christoffel symbols
        def w(x):
            return 0.1 * np.sin(x[0]) * np.cos(2 * x[1])

        def metric(x):
            return np.exp(2 * w(x)) * np.eye(2)

        for x in (np.array([0.3, -0.2]), np.array([-0.1, 0.4])):
            ric = ricci_fd(metric, x)
            scal = np.trace(np.linalg.inv(metric(x)) @ ric)
            lap_w = (-0.1 - 0.4) * np.sin(x[0]) * np.cos(2 * x[1])
            assert scal == pytest.approx(
                -2.0 * np.exp(-2 * w(x)) * lap_w, abs=1e-6
            )

    def test_curvature_from_psi_second_order(self):
        # discrete R(g) derived from psi converges to the analytic value
        errs = []
        for n in (33, 65):
            g = make_box_grid([0, 0], [1, 1], [n, n])
            psi_vals = 0.1 * np.sin(np.pi * g.points[:, 0]) * np.sin(
                np.pi * g.points[:, 1]
            )
            lap = laplacian_matrix(g)
            interior = ~g.boundary
            Rg = -2.0 * np.exp(-2.0 * psi_vals) * (lap @ psi_vals)
            exact = (
                2.0 * 0.2 * np.pi**2
                * np.exp(-2.0 * psi_vals)
                * np.sin(np.pi * g.points[:, 0])
                * np.sin(np.pi * g.points[:, 1])
            )
            errs.append(np.max(np.abs((Rg - exact)[interior])))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_validation(self):
        g = make_box_grid([0, 0], [1, 1], [17, 17])
        # a scalar psi is broadcast, as a scalar curvature is
        assert np.array_equal(SurfaceProblem(grid=g, psi=0.3).psi,
                              np.full(g.n, 0.3))
        # every field is checked when the problem is built
        for key in ("psi", "curvature"):
            with pytest.raises(ValueError, match=f"^{key} .*nodal values"):
                SurfaceProblem(grid=g, **{key: np.zeros(5)})
            with pytest.raises(ValueError, match=f"^{key} must be finite"):
                # log(x): -inf on the x = 0 edge, which the solve never reads
                SurfaceProblem(grid=g, **{key: np.where(
                    g.points[:, 0] == 0.0, -np.inf, 0.0)})
        g3 = make_box_grid([0, 0, 0], [1, 1, 1], [5, 5, 5])
        with pytest.raises(ValueError):
            SurfaceProblem(grid=g3)

    def test_psi_weight_range(self):
        # e^{-2 psi} must neither under- nor overflow at any node, interior
        # or boundary
        g = make_box_grid([0, 0], [1, 1], [17, 17])
        for value in (400.0, -400.0):
            for where in (0.5, 0.0):
                psi = np.where(g.points[:, 0] == where, value, 0.0)
                with pytest.raises(ValueError, match="^psi must keep"):
                    SurfaceProblem(grid=g, psi=psi)
        assert SurfaceProblem(grid=g, psi=300.0).psi.max() == 300.0
