import numpy as np
import pytest

from oracles import csr_arrays, dense_stencils, kron_lift, ricci_fd
from sigmaric.domains import (
    FastDiag,
    ScalarField,
    background_ricci,
    box_derivative_operators,
    boundary_distance,
    make_box_grid,
    make_radial_grid,
    nodal_values,
    uniform_d1,
    uniform_d2,
)

# boxes with unequal counts and spacings in 2, 3 and 4 dimensions
_BOXES = [
    ([0, 0], [1.0, 0.7], [9, 6]),
    ([0, 0, 0], [1.0, 0.5, 0.8], [8, 5, 7]),
    ([0, 0, 0, 0], [1.0, 0.7, 1.2, 0.9], [6, 5, 7, 4]),
]
_BOX_IDS = ["2d", "3d", "4d"]


class TestGrids:
    def test_radial_grid_monotone(self):
        g = make_radial_grid(0.0, 1.0, 200, grading=1.02)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
        assert np.all(np.diff(g.nodes) > 0)
        # spacing shrinks toward the outer boundary
        d = np.diff(g.nodes)
        assert d[-1] < d[0]
        assert np.isclose(d[0] / d[1], 1.02, rtol=1e-3)

    def test_two_sided_grading(self):
        g = make_radial_grid(0.5, 1.0, 101, grading=1.05, cluster="both")
        d = np.diff(g.nodes)
        assert d[0] < d[50] and d[-1] < d[50]

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            make_radial_grid(1.0, 0.5, 10)
        with pytest.raises(ValueError):
            make_box_grid([0, 0], [1, 1], [2, 5])

    # comparisons with nan are false, so the checks are written to fail
    # unless the good case holds
    @pytest.mark.parametrize("lo, hi, match", [
        ([0, np.nan], [1, 1], "finite"),
        ([0, 0], [1, np.inf], "finite"),
        ([0, -np.inf], [1, 1], "finite"),
        ([0, 1], [1, 1], "lo < hi"),
    ], ids=["lo-nan", "hi-inf", "lo-minus-inf", "flat"])
    def test_bad_box_corners(self, lo, hi, match):
        with pytest.raises(ValueError, match=match):
            make_box_grid(lo, hi, [5, 5])

    @pytest.mark.parametrize("grading", [np.nan, 0.5])
    def test_bad_grading(self, grading):
        with pytest.raises(ValueError, match="grading must be >= 1"):
            make_radial_grid(0.0, 1.0, 17, grading=grading)

    def test_four_nodes_minimum(self):
        # the one-sided end rows of uniform_d2 span 4 nodes: radial
        # stencils use them, and box interiors take their second-difference
        # blocks from them
        with pytest.raises(ValueError, match="at least 4 nodes"):
            make_radial_grid(0.5, 1.0, 3)
        with pytest.raises(ValueError, match="at least 4 nodes per axis"):
            make_box_grid([0, 0], [1, 1], [5, 3])
        grid = make_box_grid([0, 0], [1, 1], [4, 4])
        d = box_derivative_operators(grid)(grid.points[:, 0] ** 3)
        x = grid.points[~grid.boundary, 0]
        assert np.allclose(d[0, 0].ravel(), 6.0 * x)
        assert make_radial_grid(0.5, 1.0, 4).n == 4


class TestNodalValues:
    grid = make_radial_grid(0.5, 1.0, 9)
    ramp = np.linspace(0.0, 1.0, 9)

    @pytest.mark.parametrize("data, default, expect", [
        (None, 0.5, np.full(9, 0.5)),
        (2.0, None, np.full(9, 2.0)),
        (ramp, None, ramp),
        (list(ramp), None, ramp),
        (ScalarField(grid, ramp), 0.5, ramp),
    ], ids=["default", "scalar", "array", "list", "field"])
    def test_accepted(self, data, default, expect):
        vals = nodal_values(self.grid, data, "f", default)
        assert vals.dtype == float and np.array_equal(vals, expect)
        # a fresh array: writing to it leaves the input as it was
        vals[0] = -1.0
        assert np.array_equal(nodal_values(self.grid, data, "f", default),
                              expect)

    @pytest.mark.parametrize("data, match", [
        (np.zeros(5), "9 nodal values"),
        (np.zeros((9, 1)), "9 nodal values"),
        (np.where(ramp > 0.5, np.nan, ramp), "finite"),
        (np.inf, "finite"),
        (np.append(ramp[:-1], -np.inf), "finite"),
        ("x", "not numeric"),
        (object(), "not numeric"),
    ], ids=["length", "shape", "nan", "inf", "minus-inf", "text", "object"])
    def test_rejected(self, data, match):
        with pytest.raises(ValueError, match=f"^psi .*{match}"):
            nodal_values(self.grid, data, "psi")

    def test_missing(self):
        # None with no default is missing, not a nan at every node
        with pytest.raises(ValueError, match="^psi is missing$"):
            nodal_values(self.grid, None, "psi")


class TestFdDerivatives:
    # derivatives are taken at the interior nodes, interior-shaped, d[a,]
    # the first ones and d[a, b] (a <= b) the second ones
    def test_bilinear_exact(self):
        grid = make_box_grid([0, 0], [1, 1], [9, 9])
        d = box_derivative_operators(grid)(grid.points.prod(axis=1))
        inner = grid.points[~grid.boundary]
        assert d[0,].shape == (7, 7)
        assert np.allclose(d[0, 1], 1.0, atol=1e-12)
        assert np.allclose(d[0, 0], 0.0, atol=1e-12)
        assert np.allclose(d[0,].ravel(), inner[:, 1], atol=1e-12)

    def test_quadratic_laplacian_exact(self):
        m = 3
        grid = make_box_grid([0] * m, [1] * m, [7] * m)
        d = box_derivative_operators(grid)(np.sum(grid.points**2, axis=1))
        lap = sum(d[a, a] for a in range(m))
        assert np.allclose(lap, 2.0 * m, atol=1e-10)

    def test_second_order_convergence(self):
        errs = []
        for n in (17, 33):
            grid = make_box_grid([0, 0], [1, 1], [n, n])
            d = box_derivative_operators(grid)(
                np.prod(np.sin(grid.points), axis=1))
            s = np.sin(grid.points[~grid.boundary])
            c = np.cos(grid.points[~grid.boundary])
            exact = {(0, 0): -s[:, 0] * s[:, 1], (1, 1): -s[:, 0] * s[:, 1],
                     (0, 1): c[:, 0] * c[:, 1]}
            errs.append(max(np.abs(d[key].ravel() - ref).max()
                            for key, ref in exact.items()))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    # the slice stencils against the 1-d operators lifted to the box by
    # Kronecker products, the mixed ones as products D1[a] D1[b], at the
    # interior rows
    @pytest.mark.parametrize("lo, hi, counts", _BOXES, ids=_BOX_IDS)
    def test_matches_kronecker_lifts(self, lo, hi, counts):
        grid = make_box_grid(lo, hi, counts)
        f = (np.sin(grid.points @ np.arange(1, grid.m + 1))
             + grid.points.prod(axis=1))

        def close(x, D):
            ref = (D @ f)[rows]
            x = x.ravel()
            return np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

        D1 = [kron_lift(counts, uniform_d1(n, h), a)
              for a, (n, h) in enumerate(zip(counts, grid.spacing))]
        rows = ~grid.boundary
        d = box_derivative_operators(grid)(f)
        assert len(d) == grid.m * (grid.m + 3) // 2
        for a, (n, h) in enumerate(zip(counts, grid.spacing)):
            assert d[a,].shape == tuple(c - 2 for c in counts)
            assert close(d[a,], D1[a])
            assert close(d[a, a], kron_lift(counts, uniform_d2(n, h), a))
            for b in range(a + 1, grid.m):
                assert close(d[a, b], D1[a] @ D1[b])


class TestStencils:
    # the CSR arrays of the 1-d stencils, bit for bit, against the same
    # weights written into dense arrays
    @pytest.mark.parametrize("n", [4, 5, 17, 384])
    @pytest.mark.parametrize("h", [1.0, 0.37, 1e-3])
    def test_match_dense_oracle(self, n, h):
        for D, ref in zip((uniform_d1(n, h), uniform_d2(n, h)),
                          dense_stencils(n, h)):
            indptr, indices, data = csr_arrays(ref)
            assert D.shape == (n, n) and D.data.dtype == np.float64
            assert np.array_equal(D.indptr, indptr)
            assert np.array_equal(D.indices, indices)
            assert D.data.tobytes() == data.tobytes()


class TestFastDiag:
    # the fast diagonalization solve against a dense solve of
    # sum_a A_a + shift, A_a the interior block of the 1-d second
    # difference lifted to axis a of the interior box
    @pytest.mark.parametrize("shift", [0.0, -3.5, 2.0])
    @pytest.mark.parametrize("lo, hi, counts", _BOXES, ids=_BOX_IDS)
    def test_matches_dense_solve(self, lo, hi, counts, shift):
        grid = make_box_grid(lo, hi, counts)
        inner = tuple(c - 2 for c in counts)
        A = shift * np.eye(int(np.prod(inner)))
        for a in range(grid.m):
            block = uniform_d2(counts[a], grid.spacing[a])[1:-1, 1:-1]
            term = np.ones((1, 1))
            for b, size in enumerate(inner):
                term = np.kron(term, block.toarray() if b == a
                               else np.eye(size))
            A += term
        r = np.random.default_rng(sum(counts)).standard_normal(inner)
        x = FastDiag(grid).solve(r, shift)
        ref = np.linalg.solve(A, r.ravel()).reshape(inner)
        assert x.shape == inner
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestBackgroundRicci:
    def test_flat(self):
        grid = make_box_grid([0] * 3, [1] * 3, [5] * 3)
        bg = background_ricci(grid, "flat")
        assert np.allclose(bg.rho, 0.0)

    def test_warped_product_matches_fd_oracle(self):
        # dr^2 + f(r)^2 g_{S^{m-1}} checked against the Christoffel oracle
        # of the same metric written in Cartesian coordinates
        m = 3
        grid = make_radial_grid(0.5, 1.0, 9, m=m)

        def f(r):
            return np.sinh(r)

        def df(r):
            return np.cosh(r)

        def d2f(r):
            return np.sinh(r)

        bg = background_ricci(grid, "warped", profile=(f, df, d2f))

        def metric_cart(x):
            r = np.linalg.norm(x)
            rhat = x / r
            P = np.outer(rhat, rhat)
            return P + (f(r) / r) ** 2 * (np.eye(m) - P)

        i = 4
        r = grid.nodes[i]
        x = np.zeros(m)
        x[0] = r
        ric = ricci_fd(metric_cart, x, h=1e-4)
        # radial/radial component and one tangential component; the stored
        # tangential slot is in sphere coordinates (d/dtheta = r * unit
        # Cartesian tangent at x), so it picks up a factor r^2
        assert bg.rho[i][0, 0] == pytest.approx(-ric[0, 0], abs=2e-4)
        assert bg.rho[i][1, 1] / r**2 == pytest.approx(-ric[1, 1], abs=2e-4)

    @pytest.mark.parametrize("m", [3, 4])
    def test_warped_matches_per_node_formula(self, m):
        # the array assembly against the formula evaluated node by node,
        # in the same arithmetic: equal to the last bit
        grid = make_radial_grid(0.5, 1.0, 17, m=m)
        f, df, d2f = np.sin, np.cos, lambda r: -np.sin(r)
        bg = background_ricci(grid, "warped", profile=(f, df, d2f))
        for i, r in enumerate(grid.nodes):
            fr, dfr, d2fr = f(r), df(r), d2f(r)
            ric_tan = -d2fr / fr - (m - 2) * (dfr**2 - 1.0) / fr**2
            g = np.diag([1.0] + [fr**2] * (m - 1))
            rho = np.diag([(m - 1) * d2fr / fr] + [-ric_tan * fr**2] * (m - 1))
            assert np.array_equal(bg.g[i], g)
            assert np.array_equal(bg.rho[i], rho)

    @pytest.mark.parametrize("grid", [
        make_radial_grid(0.0, 1.0, 9, m=3),
        make_box_grid([0.1] * 3, [0.5] * 3, [4] * 3),
    ], ids=["ball", "box"])
    def test_warped_needs_annulus(self, grid):
        # dr^2 + f^2 g_sphere degenerates at the centre of a ball
        with pytest.raises(TypeError, match="annulus"):
            background_ricci(grid, "warped",
                             profile=(np.sinh, np.cosh, np.sinh))


class TestBoundaryDistance:
    def test_box_center(self):
        grid = make_box_grid([0, 0, 0], [1, 1, 1], [5, 5, 5])
        d = boundary_distance(grid).values
        center = np.all(grid.points == 0.5, axis=1)
        assert d[center][0] == pytest.approx(0.5)

    def test_ball(self):
        grid = make_radial_grid(0.0, 1.0, 11)
        d = boundary_distance(grid).values
        assert d[0] == pytest.approx(1.0)
        assert np.allclose(d, 1.0 - grid.nodes)

    def test_annulus(self):
        grid = make_radial_grid(0.5, 1.0, 11)
        d = boundary_distance(grid).values
        assert np.allclose(
            d, np.minimum(grid.nodes - 0.5, 1.0 - grid.nodes)
        )

    def test_lipschitz(self):
        grid = make_box_grid([0, 0], [2, 1], [21, 11])
        d = boundary_distance(grid).values.reshape(21, 11)
        assert np.abs(np.diff(d, axis=0)).max() <= 0.1 + 1e-12
        assert np.abs(np.diff(d, axis=1)).max() <= 0.1 + 1e-12

