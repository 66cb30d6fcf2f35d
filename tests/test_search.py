import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garnetspin.geometry import CONVENTIONS, site_frame
from garnetspin.hamiltonian import (
    EXCITED_CONSTANTS,
    GROUND_CONSTANTS,
    EffectiveGTensor,
    HyperfineTensor,
    LevelModel,
    default_models,
)
from garnetspin.search import (
    BRANCHES,
    SPLITTING_MODELS,
    DegenerateError,
    GridSpec,
    SearchError,
    SiteModel,
    angular_gradient,
    branching_map,
    branching_ratio,
    broadening_map,
    curvature,
    field_extremum,
    find_clock_transitions,
    sphere_gradient,
)

BRANCH_DD = (-0.5, -0.5)
BRANCH_UU = (0.5, 0.5)


def isotropic_models(g_ground=50.0, g_excited=30.0):
    g = LevelModel.from_g(GROUND_CONSTANTS, EffectiveGTensor(g_ground, g_ground, g_ground))
    e = LevelModel.from_g(EXCITED_CONSTANTS, EffectiveGTensor(g_excited, g_excited, g_excited))
    return g, e


def direction(theta, phi):
    th, ph = math.radians(theta), math.radians(phi)
    return np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])


def shift_at_extremum(model, u, branch):
    """F = -sigma^2/(4q), the shift at B* = -sigma/(2q)."""
    return -model.sigma(u, branch) ** 2 / (4.0 * model.quad_coeff(u))


@st.composite
def level_pairs(draw):
    """Random signed g (MHz/T) and hyperfine tensors (1/MHz) for both levels.

    The tensor ranges overlap, so the transition quadratic coefficients
    per axis take either sign.
    """

    def level(constants):
        g = [draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(5.0, 200.0)) for _ in range(3)]
        lam = [draw(st.floats(1e-7, 2e-5)) for _ in range(3)]
        return LevelModel(constants, HyperfineTensor(*lam), EffectiveGTensor(*g))

    return level(GROUND_CONSTANTS), level(EXCITED_CONSTANTS)


def random_levels(seed):
    rng = np.random.default_rng(seed)

    def level(constants):
        g = rng.choice([-1.0, 1.0], 3) * rng.uniform(5.0, 200.0, 3)
        return LevelModel(constants, HyperfineTensor(*rng.uniform(1e-7, 2e-5, 3)), EffectiveGTensor(*g))

    return level(GROUND_CONSTANTS), level(EXCITED_CONSTANTS)


WIDE = GridSpec(b_max=10.0)


class TestGridSpec:
    def test_bad_steps(self):
        with pytest.raises(SearchError):
            GridSpec(b_step=0.0)
        with pytest.raises(SearchError):
            GridSpec(b_max=0.001, b_step=0.01)

    @pytest.mark.parametrize("name", ["b_max", "b_step", "theta_step", "phi_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(SearchError, match="finite"):
            GridSpec(**{name: value})


class TestFieldExtremum:
    def test_matches_closed_form(self):
        model = SiteModel(1)
        grid = GridSpec(b_max=0.06)
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta = rng.uniform(10.0, 170.0)
            phi = rng.uniform(-170.0, 170.0)
            b = field_extremum(model, theta, phi, BRANCH_DD, grid)
            u = np.array(
                [
                    math.sin(math.radians(theta)) * math.cos(math.radians(phi)),
                    math.sin(math.radians(theta)) * math.sin(math.radians(phi)),
                    math.cos(math.radians(theta)),
                ]
            )
            expect = -model.sigma(u, BRANCH_DD) / (2.0 * model.quad_coeff(u))
            if 0 < expect <= grid.b_max:
                assert b is not None
                assert abs(b - expect) < 1e-6
            else:
                assert b is None

    def test_mirror_branch_none(self):
        model = SiteModel(1)
        assert field_extremum(model, 55.0, -15.0, BRANCH_UU, GridSpec(b_max=0.06)) is None

    def test_inverted_field_same_magnitude(self):
        model = SiteModel(1)
        grid = GridSpec(b_max=0.06)
        b1 = field_extremum(model, 55.0, -15.0, BRANCH_DD, grid)
        b2 = field_extremum(model, 125.0, 165.0, BRANCH_DD, grid)
        assert b1 is not None and b2 is not None
        assert abs(b1 - b2) < 1e-6

    def test_quadratic_vertex_against_grid_samples(self):
        # three neighboring coarse samples bracket the minimum; their
        # parabola vertex must sit within half a step of the bisection
        model = SiteModel(1)
        grid = GridSpec(b_max=0.06, b_step=1e-3)
        theta, phi = 70.0, 20.0
        b = field_extremum(model, theta, phi, BRANCH_DD, grid)
        u = np.array(
            [
                math.sin(math.radians(theta)) * math.cos(math.radians(phi)),
                math.sin(math.radians(theta)) * math.sin(math.radians(phi)),
                math.cos(math.radians(theta)),
            ]
        )
        k = int(b / grid.b_step)
        bs = grid.b_step * np.array([k - 1, k, k + 1])
        ys = model.shift(bs, u, BRANCH_DD)
        coeffs = np.polyfit(bs, ys, 2)
        vertex = -coeffs[1] / (2.0 * coeffs[0])
        assert abs(vertex - b) < 5e-4


class TestAngularGradient:
    def test_isotropic_zero_everywhere(self):
        g, e = isotropic_models()
        model = SiteModel(1, g, e)
        rng = np.random.default_rng(1)
        for _ in range(5):
            grad = angular_gradient(
                model, 0.02, rng.uniform(5, 175), rng.uniform(-175, 175), BRANCH_DD
            )
            assert grad < 1e-9

    def test_generic_positive(self):
        model = SiteModel(1)
        assert angular_gradient(model, 0.02, 40.0, 30.0, BRANCH_DD) > 1e-3

    def test_requires_positive_field(self):
        model = SiteModel(1)
        with pytest.raises(SearchError):
            angular_gradient(model, 0.0, 40.0, 30.0, BRANCH_DD)

    def test_step_halving_richardson(self):
        # second-order central differences: halving the step shrinks
        # the error by ~4, so the Richardson ratio approaches 4
        model = SiteModel(1)
        rng = np.random.default_rng(2)
        ratios = []
        for _ in range(10):
            theta = rng.uniform(20.0, 160.0)
            phi = rng.uniform(-160.0, 160.0)
            vals = [
                angular_gradient(model, 0.02, theta, phi, BRANCH_DD, step_deg=h)
                for h in (0.4, 0.2, 0.1)
            ]
            denom = vals[1] - vals[2]
            if abs(denom) > 1e-12:
                ratios.append((vals[0] - vals[1]) / denom)
        assert ratios
        assert abs(np.median(ratios) - 4.0) / 4.0 < 0.05

    @pytest.mark.parametrize("splitting", SPLITTING_MODELS)
    def test_matches_sphere_gradient_at_extremum(self, splitting):
        # at B* the shift gradient at fixed B is the gradient of F
        model = SiteModel(4, splitting_model=splitting)
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(40):
            theta, phi = rng.uniform(10.0, 170.0), rng.uniform(-180.0, 180.0)
            for branch in BRANCHES:
                b = field_extremum(model, theta, phi, branch, GridSpec(b_max=1.0))
                if b is None:
                    continue
                fd = angular_gradient(model, b, theta, phi, branch, step_deg=1e-3)
                exact = np.linalg.norm(sphere_gradient(model, direction(theta, phi), branch)) * math.pi / 180
                assert fd == pytest.approx(exact, rel=1e-5, abs=1e-12)
                checked += 1
        assert checked > 20


class TestCurvature:
    def test_equals_twice_quadratic_coefficient(self):
        model = SiteModel(1)
        theta, phi = 55.0, -15.0
        u = np.array(
            [
                math.sin(math.radians(theta)) * math.cos(math.radians(phi)),
                math.sin(math.radians(theta)) * math.sin(math.radians(phi)),
                math.cos(math.radians(theta)),
            ]
        )
        expect = 2.0 * float(model.quad_coeff(u)) * 0.01
        assert curvature(model, 0.019, theta, phi, BRANCH_DD) == pytest.approx(
            expect, rel=1e-6
        )

    def test_linear_in_tensor_scale(self):
        g, e = default_models("products")
        doubled_g = LevelModel.from_tensor(
            GROUND_CONSTANTS, HyperfineTensor(*(2.0 * g.tensor.as_array()))
        )
        doubled_e = LevelModel.from_tensor(
            EXCITED_CONSTANTS, HyperfineTensor(*(2.0 * e.tensor.as_array()))
        )
        base = curvature(SiteModel(1, g, e), 0.019, 55.0, -15.0, BRANCH_DD)
        twice = curvature(SiteModel(1, doubled_g, doubled_e), 0.019, 55.0, -15.0, BRANCH_DD)
        assert twice == pytest.approx(2.0 * base, rel=1e-6)


class TestClockSearch:
    GRID = GridSpec(b_max=0.06, theta_step=4.0, phi_step=4.0)

    def test_solutions_meet_thresholds(self):
        cts = find_clock_transitions(SiteModel(1), self.GRID)
        assert cts
        for ct in cts:
            assert ct.b_star > 0
            assert ct.gradient_norm < 1e-3
            assert math.isfinite(ct.curvature)

    def test_principal_axis_solutions_present(self):
        # the quadrature splitting model has exact stationary points on
        # the local principal axes; the local y axis solution carries
        # the largest curvature
        cts = find_clock_transitions(SiteModel(1), self.GRID, branches=(BRANCH_DD,))
        frame = site_frame(1)
        hits = []
        for ct in cts:
            u = np.array(
                [
                    math.sin(math.radians(ct.theta)) * math.cos(math.radians(ct.phi)),
                    math.sin(math.radians(ct.theta)) * math.sin(math.radians(ct.phi)),
                    math.cos(math.radians(ct.theta)),
                ]
            )
            if abs(abs(float(u @ frame.y_axis)) - 1.0) < 1e-4:
                hits.append(ct)
        assert hits
        assert hits[0].b_star == pytest.approx(0.0076, abs=5e-4)
        assert hits[0].curvature == pytest.approx(35.5, rel=0.01)

    def test_site_equivariance(self):
        # sites 1 and 3 are related by a frame rotation, so their
        # solution sets agree in local coordinates
        cts1 = find_clock_transitions(SiteModel(1), self.GRID, branches=(BRANCH_DD,))
        cts3 = find_clock_transitions(SiteModel(3), self.GRID, branches=(BRANCH_DD,))
        m1, m3 = site_frame(1).matrix(), site_frame(3).matrix()

        def local_set(cts, m):
            out = set()
            for ct in cts:
                u = np.array(
                    [
                        math.sin(math.radians(ct.theta)) * math.cos(math.radians(ct.phi)),
                        math.sin(math.radians(ct.theta)) * math.sin(math.radians(ct.phi)),
                        math.cos(math.radians(ct.theta)),
                    ]
                )
                local = np.abs(m @ u)
                out.add((round(ct.b_star, 4),) + tuple(np.round(local, 2)))
            return out

        s1, s3 = local_set(cts1, m1), local_set(cts3, m3)
        assert s1 & s3, (s1, s3)

    def test_linear_model_conserving_solution(self):
        # the signed-linear compatibility model places the conserving
        # clock point at 18.8 mT in an interior direction
        model = SiteModel(1, splitting_model="linear")
        cts = find_clock_transitions(model, self.GRID, branches=(BRANCH_DD,))
        best = min(cts, key=lambda c: abs(c.b_star - 0.0188))
        assert best.b_star == pytest.approx(0.0188, abs=1e-3)


class TestClosedFormClock:
    """find_clock_transitions lists exactly the stationary points of F."""

    def test_bundled_site1_set(self):
        cts = find_clock_transitions(SiteModel(1))
        assert len(cts) == 20
        frame = site_frame(1).matrix()
        found = {}
        for ct in cts:
            local = np.round(np.abs(frame @ direction(ct.theta, ct.phi)), 5) + 0.0
            found.setdefault((ct.branch, round(ct.b_star * 1e3, 3), *local), 0)
            found[(ct.branch, round(ct.b_star * 1e3, 3), *local)] += 1
            assert not ct.degenerate
        dd, du = BRANCH_DD, (-0.5, 0.5)
        assert found == {
            (dd, 13.277, 1.0, 0.0, 0.0): 2,
            (dd, 7.604, 0.0, 1.0, 0.0): 2,
            (dd, 10.942, 0.0, 0.0, 1.0): 2,
            (dd, 11.618, 0.98688, 0.16146, 0.0): 4,
            (dd, 10.868, 0.0, 0.06481, 0.9979): 4,
            (du, 22.571, 1.0, 0.0, 0.0): 2,
            (du, 33.516, 0.0, 1.0, 0.0): 2,
            (du, 28.448, 0.0, 0.0, 1.0): 2,
        }

    def test_linear_model_fields(self):
        cts = find_clock_transitions(SiteModel(1, splitting_model="linear"))
        assert sorted(round(ct.b_star * 1e3, 3) for ct in cts) == [18.81, 18.81, 49.417, 49.417]

    def test_b_max_drops_points(self):
        cts = find_clock_transitions(SiteModel(1), GridSpec(b_max=0.011, b_step=1e-3))
        assert sorted({round(ct.b_star * 1e3, 3) for ct in cts}) == [7.604, 10.868, 10.942]

    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("splitting", SPLITTING_MODELS)
    def test_sites_share_local_set(self, convention, splitting):
        local_sets = []
        for sid in range(1, 7):
            frame = site_frame(sid).matrix()
            model = SiteModel(sid, convention=convention, splitting_model=splitting)
            rows = [
                (ct.branch, round(ct.b_star, 12), round(ct.curvature, 9), ct.degenerate)
                + tuple(np.round(frame @ direction(ct.theta, ct.phi), 9) + 0.0)
                for ct in find_clock_transitions(model, WIDE)
            ]
            local_sets.append(sorted(rows))
        assert local_sets[0]
        assert all(rows == local_sets[0] for rows in local_sets[1:])

    def test_equal_projection_rings_flagged(self):
        cts = find_clock_transitions(SiteModel(1, convention="equal-projection"))
        x_axis = site_frame(1).x_axis
        on_x = [ct for ct in cts if abs(abs(direction(ct.theta, ct.phi) @ x_axis) - 1.0) < 1e-12]
        assert on_x and not any(ct.degenerate for ct in on_x)
        rings = [ct for ct in cts if ct not in on_x]
        assert rings and all(ct.degenerate for ct in rings)
        # the great circle u.x = 0 is listed once per branch that has it
        great = [ct for ct in rings if abs(direction(ct.theta, ct.phi) @ x_axis) < 1e-12]
        assert len(great) == len({ct.branch for ct in great}) == 2

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_dependent_tensors_are_degenerate(self, convention):
        g, e = isotropic_models()
        with pytest.raises(DegenerateError, match="no isolated solutions"):
            find_clock_transitions(SiteModel(1, g, e, convention))

    def test_quadratic_coefficients_along_ground_g_are_degenerate(self):
        # F then depends on the ratio of the two splittings alone, whose
        # level lines cross the simplex
        gg = np.array([27.0, 146.0, 36.0])
        ground = LevelModel(GROUND_CONSTANTS, HyperfineTensor(*(1e-10 * gg ** 2)), EffectiveGTensor(*gg))
        excited = LevelModel(EXCITED_CONSTANTS, HyperfineTensor(0.0, 0.0, 0.0), EffectiveGTensor(7.0, 92.0, 16.0))
        with pytest.raises(DegenerateError):
            find_clock_transitions(SiteModel(1, ground, excited))

    def test_vanishing_splitting_is_not_listed(self):
        # with g_x = 0 the ground splitting has a cone point on local x
        g, e = default_models()
        ground = LevelModel(g.constants_, g.tensor, EffectiveGTensor(0.0, 146.0, 36.0))
        cts = find_clock_transitions(SiteModel(1, ground, e), WIDE)
        x_axis = site_frame(1).x_axis
        assert cts and all(math.isfinite(ct.gradient_norm) for ct in cts)
        assert all(abs(abs(direction(ct.theta, ct.phi) @ x_axis) - 1.0) > 1e-9 for ct in cts)

    def test_isotropic_linear_model_is_isolated(self):
        g, e = isotropic_models()
        cts = find_clock_transitions(SiteModel(1, g, e, splitting_model="linear"), WIDE)
        assert cts and all(not ct.degenerate for ct in cts)

    @settings(max_examples=80, deadline=None)
    @given(
        level_pairs(),
        st.sampled_from(range(1, 7)),
        st.sampled_from(CONVENTIONS),
        st.sampled_from(SPLITTING_MODELS),
    )
    def test_listed_points_are_stationary(self, levels, site, convention, splitting):
        # 1e-9 relative to F, plus a rounding floor: 1e-12 of the two
        # level shifts B*(|sg| + |se|), times the cancellation among the
        # per-axis terms of q.  Where the shifts nearly cancel in sigma,
        # or the axis terms in q, F is ill-conditioned, and a direction
        # exact to double precision still leaves a gradient of that size.
        model = SiteModel(site, *levels, convention, splitting)
        try:
            cts = find_clock_transitions(model, WIDE)
        except DegenerateError:
            return  # a continuum: no isolated points to check
        for ct in cts:
            u = direction(ct.theta, ct.phi)
            f = float(shift_at_extremum(model, u, ct.branch))
            grad = float(np.linalg.norm(sphere_gradient(model, u, ct.branch)))
            sg, se = model.splittings_per_tesla(u)
            c2 = model.local_components(u) ** 2
            q_cancel = float(c2 @ np.abs(model._dq)) / abs(float(c2 @ model._dq))
            floor = 1e-12 * ct.b_star * (abs(sg) + abs(se)) * q_cancel
            assert grad <= 1e-9 * abs(f) + floor, (ct, grad, f)
            b = -float(model.sigma(u, ct.branch)) / (2.0 * float(model.quad_coeff(u)))
            assert 0.0 < ct.b_star <= WIDE.b_max
            assert b == pytest.approx(ct.b_star, rel=1e-9)
            assert ct.curvature == pytest.approx(curvature(model, ct.b_star, ct.theta, ct.phi, ct.branch))

    @settings(max_examples=40, deadline=None)
    @given(
        level_pairs(),
        st.sampled_from(CONVENTIONS),
        st.sampled_from(SPLITTING_MODELS),
        st.floats(5.0, 175.0),
        st.floats(-180.0, 180.0),
        st.sampled_from(BRANCHES),
    )
    def test_sphere_gradient_matches_differences(self, levels, convention, splitting, theta, phi, branch):
        model = SiteModel(1, *levels, convention, splitting)
        u = direction(theta, phi)
        x_axis = site_frame(1).x_axis
        if abs(u @ x_axis) > 0.999:
            return  # the linear equal-projection F has a cone point at +-x
        grad = sphere_gradient(model, u, branch)
        h = 1e-6
        for t in np.linalg.svd(u[None, :])[2][1:]:
            up, um = math.cos(h) * u + math.sin(h) * t, math.cos(h) * u - math.sin(h) * t
            fd = (shift_at_extremum(model, up, branch) - shift_at_extremum(model, um, branch)) / (2 * h)
            scale = abs(float(shift_at_extremum(model, u, branch))) + float(np.linalg.norm(grad))
            assert abs(grad @ t - fd) <= 1e-5 * scale

    @pytest.mark.parametrize(
        "models",
        [
            pytest.param(lambda: (None, None), id="bundled"),
            pytest.param(lambda: random_levels(3), id="random-3"),
            pytest.param(lambda: random_levels(8), id="random-8"),
        ],
    )
    @pytest.mark.parametrize("splitting", SPLITTING_MODELS)
    def test_root_solve_finds_nothing_unlisted(self, models, splitting):
        optimize = pytest.importorskip("scipy.optimize")
        model = SiteModel(3, *models(), splitting_model=splitting)
        rng = np.random.default_rng(9)
        for branch in BRANCHES:
            listed = [direction(ct.theta, ct.phi) for ct in find_clock_transitions(model, WIDE, (branch,))]
            for u0 in rng.normal(size=(40, 3)):
                u0 /= np.linalg.norm(u0)
                e1, e2 = np.linalg.svd(u0[None, :])[2][1:]

                def chart(x):
                    v = u0 + x[0] * e1 + x[1] * e2
                    return v / np.linalg.norm(v)

                def equations(x):
                    g = sphere_gradient(model, chart(x), branch)
                    return [g @ e1, g @ e2]

                sol = optimize.root(equations, [0.0, 0.0], method="hybr")
                u = chart(sol.x)
                f = float(shift_at_extremum(model, u, branch))
                if not (sol.success and np.linalg.norm(sphere_gradient(model, u, branch)) <= 1e-8 * abs(f)):
                    continue
                b = -float(model.sigma(u, branch)) / (2.0 * float(model.quad_coeff(u)))
                if not 1e-6 < b <= WIDE.b_max:
                    continue  # sigma = 0 curves (B* = 0) are stationary too
                assert any(float(v @ u) > math.cos(math.radians(1e-4)) for v in listed), (branch, u, b)

    @pytest.mark.parametrize("models", [lambda: (None, None), lambda: random_levels(5)], ids=["bundled", "random-5"])
    @pytest.mark.parametrize("splitting", SPLITTING_MODELS)
    def test_equal_projection_meridian_roots_listed(self, models, splitting):
        # F depends on the angle alpha to local x alone: every root of
        # dF/dalpha along one meridian must be a listed point or circle
        optimize = pytest.importorskip("scipy.optimize")
        model = SiteModel(2, *models(), "equal-projection", splitting)
        frame = site_frame(2).matrix()
        x_axis, w = frame[0], (frame[1] + frame[2]) / math.sqrt(2.0)

        def meridian(alpha):
            return math.cos(alpha) * x_axis + math.sin(alpha) * w

        for branch in BRANCHES:
            listed = [
                math.acos(np.clip(direction(ct.theta, ct.phi) @ x_axis, -1.0, 1.0))
                for ct in find_clock_transitions(model, WIDE, (branch,))
            ]

            def slope(alpha):
                tangent = -math.sin(alpha) * x_axis + math.cos(alpha) * w
                return float(sphere_gradient(model, meridian(alpha), branch) @ tangent)

            alphas = np.linspace(1e-3, math.pi - 1e-3, 2001)
            slopes = [slope(a) for a in alphas]
            for k in np.nonzero(np.sign(slopes[:-1]) * np.sign(slopes[1:]) < 0)[0]:
                root = optimize.brentq(slope, alphas[k], alphas[k + 1], xtol=1e-14)
                u = meridian(root)
                b = -float(model.sigma(u, branch)) / (2.0 * float(model.quad_coeff(u)))
                f = float(shift_at_extremum(model, u, branch))
                if not (1e-6 < b <= WIDE.b_max) or abs(slope(root)) > 1e-8 * abs(f):
                    continue  # a pole of F (q = 0) or B* = 0
                assert any(abs(root - a) < 1e-6 for a in listed), (branch, root, b)


class TestBroadeningMap:
    def test_extreme_values_are_principal_g(self):
        model = SiteModel(1)
        b = 0.05
        m = broadening_map(model, b, GridSpec(theta_step=2.0, phi_step=2.0))
        # grid nodes only approximate the exact principal directions
        assert m.values.max() == pytest.approx(146.0 * b, rel=1e-2)
        assert m.values.min() == pytest.approx(27.0 * b, rel=1e-2)

    def test_symmetry_class_equality(self):
        # a <111> field projects identically on sites 1, 3 and 5
        u = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        vals = []
        for sid in (1, 3, 5):
            model = SiteModel(sid)
            sg, _ = model.splittings_per_tesla(u)
            vals.append(float(sg))
        assert max(vals) - min(vals) < 1e-9

    def test_requires_positive_field(self):
        with pytest.raises(SearchError):
            broadening_map(SiteModel(1), 0.0)

    @pytest.mark.parametrize("site", [1, 3])
    def test_extrema_are_the_local_axes(self, site):
        b = 0.1
        m = broadening_map(SiteModel(site), b, GridSpec(theta_step=5.0, phi_step=5.0))
        frame = site_frame(site).matrix()
        got = sorted(
            (e["kind"], round(e["splitting_MHz"], 9), *(np.round(frame @ direction(e["theta_deg"], e["phi_deg"]), 12) + 0.0))
            for e in m.extrema
        )
        want = sorted(
            (kind, round(g * b, 9), *(sign * np.eye(3)[a]))
            for a, (kind, g) in enumerate([("min", 27.0), ("max", 146.0), ("saddle", 36.0)])
            for sign in (1.0, -1.0)
        )
        assert got == want
        assert not any(e["degenerate"] for e in m.extrema)

    def test_equal_projection_extrema(self):
        m = broadening_map(SiteModel(1, convention="equal-projection"), 0.1, GridSpec(theta_step=5.0, phi_step=5.0))
        x_axis = site_frame(1).x_axis
        kinds = [(e["kind"], e["degenerate"], round(float(direction(e["theta_deg"], e["phi_deg"]) @ x_axis), 12) + 0.0)
                 for e in m.extrema]
        assert sorted(kinds) == [("max", True, 0.0), ("min", False, -1.0), ("min", False, 1.0)]

    @pytest.mark.parametrize("b", [math.nan, math.inf])
    def test_non_finite_field_rejected(self, b):
        with pytest.raises(SearchError):
            broadening_map(SiteModel(1), b)

    def test_extrema_classified(self):
        m = broadening_map(SiteModel(1), 0.05, GridSpec(theta_step=3.0, phi_step=3.0))
        kinds = {e["kind"] for e in m.extrema}
        assert "max" in kinds
        assert "min" in kinds


class TestBranching:
    def test_identical_tensors_zero(self):
        g, _ = default_models()
        twin = LevelModel.from_g(EXCITED_CONSTANTS, g.g)
        model = SiteModel(1, g, twin)
        m = branching_map(model, GridSpec(theta_step=5.0, phi_step=5.0))
        assert m.values.max() < 1e-12

    def test_principal_axes_zero(self):
        model = SiteModel(1)
        frame = site_frame(1)
        for axis in (frame.x_axis, frame.y_axis, frame.z_axis):
            assert float(branching_ratio(model, axis)) < 1e-12

    def test_maximum_near_local_x(self):
        m = branching_map(SiteModel(1), GridSpec(theta_step=1.0, phi_step=1.0))
        e = m.extrema[0]
        assert e["ratio"] == pytest.approx(0.05, abs=0.015)
        assert e["angle_to_local_x_deg"] <= 15.0

    def test_rescale_invariant(self):
        g, e = default_models()
        model = SiteModel(1, g, e)
        g2 = LevelModel.from_g(GROUND_CONSTANTS, EffectiveGTensor(*(3.0 * g.g.as_array())))
        e2 = LevelModel.from_g(EXCITED_CONSTANTS, EffectiveGTensor(*(3.0 * e.g.as_array())))
        scaled = SiteModel(1, g2, e2)
        u = np.array([0.4, 0.8, 0.45])
        u /= np.linalg.norm(u)
        assert float(branching_ratio(model, u)) == pytest.approx(
            float(branching_ratio(scaled, u)), rel=1e-9
        )

    def test_nonnegative_surface(self):
        m = branching_map(SiteModel(2), GridSpec(theta_step=5.0, phi_step=5.0))
        assert np.all(m.values >= 0.0)
