import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garnetspin.fitting import golden_section, golden_section_array
from garnetspin.geometry import site_frame
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
    ClockTransition,
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
    _deduplicate,
    _descend,
    _unit_vectors,
)

BRANCH_DD = (-0.5, -0.5)
BRANCH_UU = (0.5, 0.5)


def isotropic_models(g_ground=50.0, g_excited=30.0):
    g = LevelModel.from_g(GROUND_CONSTANTS, EffectiveGTensor(g_ground, g_ground, g_ground))
    e = LevelModel.from_g(EXCITED_CONSTANTS, EffectiveGTensor(g_excited, g_excited, g_excited))
    return g, e


class TestGridSpec:
    def test_bad_steps(self):
        with pytest.raises(SearchError):
            GridSpec(b_step=0.0)
        with pytest.raises(SearchError):
            GridSpec(b_max=0.001, b_step=0.01)


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


class TestBatchedRefinement:
    def test_seeds_refined_alone_or_together_agree(self):
        # every seed keeps its own brackets, so the batch changes nothing
        model = SiteModel(3)
        grid = GridSpec(b_max=0.06, theta_step=4.0, phi_step=4.0)
        rng = np.random.default_rng(5)
        n = 10
        theta = rng.uniform(0.0, 180.0, n)
        phi = rng.uniform(-180.0, 180.0, n)
        spins = np.array(BRANCHES)[rng.integers(0, len(BRANCHES), n)]
        together = _descend(model, theta, phi, spins[:, 0], spins[:, 1], grid)
        assert np.isfinite(together[2]).any() and not np.isfinite(together[2]).all()
        for k in range(n):
            one = slice(k, k + 1)
            alone = _descend(model, theta[one], phi[one], spins[one, 0], spins[one, 1], grid)
            for got, want in zip(alone[:3], together[:3]):
                np.testing.assert_array_equal(got, want[one])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-100.0, 100.0),
                st.floats(0.01, 50.0),
                st.floats(0.01, 50.0),
                st.floats(0.1, 10.0),
            ),
            min_size=1,
            max_size=20,
        ),
        st.floats(1e-6, 1e-2),
    )
    def test_golden_section_array_finds_parabola_minima(self, parabolas, tol):
        centre, left, right, scale = (np.array(v) for v in zip(*parabolas))

        def fn(x, idx):
            return scale[idx] * (x - centre[idx]) ** 2

        found = golden_section_array(fn, centre - left, centre + right, tol)
        assert np.all(np.abs(found - centre) <= tol)
        for k in range(len(parabolas)):
            alone = golden_section(lambda x: fn(x, k), centre[k] - left[k], centre[k] + right[k], tol)
            assert alone == found[k]


def _pairwise_greedy(results, angle_tol=2.0, b_tol=2e-3):
    kept = []
    for ct in sorted(results, key=lambda c: c.gradient_norm):
        u = _unit_vectors(ct.theta, ct.phi)
        dup = False
        for other in kept:
            if other.branch != ct.branch:
                continue
            v = _unit_vectors(other.theta, other.phi)
            ang = math.degrees(math.acos(float(np.clip(u @ v, -1.0, 1.0))))
            if ang <= angle_tol and abs(ct.b_star - other.b_star) <= b_tol:
                dup = True
                break
        if not dup:
            kept.append(ct)
    return sorted(kept, key=lambda c: (c.branch, c.theta, c.phi))


class TestDeduplicate:
    def test_matches_pairwise_greedy(self):
        def point(b, theta, phi, branch, grad):
            return ClockTransition(1, b, theta, phi, branch, 1.0, grad)

        edges = [
            point(0.020, 50.0, 30.0, BRANCH_DD, 1e-6),
            point(0.020, 50.0, 30.0, BRANCH_UU, 2e-6),  # same point, other branch
            point(0.020, 51.99, 30.0, BRANCH_DD, 3e-6),  # 1.99 degrees away
            point(0.020, 52.01, 30.0, BRANCH_DD, 4e-6),  # 2.01 degrees away
            point(0.02199, 50.0, 30.0, BRANCH_DD, 5e-6),  # 1.99 mT away
            point(0.02201, 50.0, 30.0, BRANCH_DD, 6e-6),  # 2.01 mT away
            point(0.030, 1.0, 179.0, BRANCH_DD, 7e-6),
            point(0.030, 1.0, -179.0, BRANCH_DD, 8e-6),  # across the phi cut
        ]
        rng = np.random.default_rng(11)
        cluster = [
            point(
                0.01 + rng.uniform(-3e-3, 3e-3),
                90.0 + rng.uniform(-3.0, 3.0),
                rng.uniform(-3.0, 3.0),
                BRANCHES[rng.integers(0, 2)],
                rng.uniform(0.0, 1e-3),
            )
            for _ in range(200)
        ]
        results = edges + cluster
        kept = _deduplicate(results)
        assert kept == _pairwise_greedy(results)
        assert [p in kept for p in edges] == [True, True, False, True, False, True, True, False]
        assert 1 < sum(p in kept for p in cluster) < 100


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
