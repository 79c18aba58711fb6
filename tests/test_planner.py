import collections
import dataclasses
import hashlib
import itertools
import math
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentprop import _kernels, compiler, planner, presets, sysspec
from momentprop.distmoments import Beta, Degenerate, DisturbanceModel, Gaussian, Uniform, UnsupportedMomentError
from momentprop.planner import (
    Environment,
    InfeasiblePathError,
    PlannerConfig,
    Polytope,
    build_rrt,
    dubins_steer,
    estimate_plan_collision,
    parse_environment,
    plan_to_csv,
    stochastic_steer,
    trajectory_risk,
    tree_to_csv,
)
from momentprop.propagator import MomentTrajectory, PropagationError, init_deterministic, mean_cov, propagate

from conftest import grow_both, grow_tree_arguments, use_kernel_twins
from reference import (
    DubinsPath,
    grow_tree_python,
    cantelli_bound,
    mod2pi,
    moment,
    nearest_node,
    obstacle_risk,
    relative,
    risk_bound_python,
    shortest_path,
    simulate_controls,
    steer_python,
)


UNIT_SQUARE = Polytope.from_vertices([(1, 1), (2, 1), (2, 2), (1, 2)])


def _planner_model(msys, noise=None):
    """A disturbance model of `noise` (default: the planner's) for `stochastic_steer`."""
    return DisturbanceModel(msys, noise or presets.planner_noise())


def _dubins_variant(*edits: tuple[str, str]) -> str:
    text = presets.DUBINS_SPEC
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


# Specs the planner cannot steer, keyed by the requirement its error names.
NOT_A_VEHICLE = {
    "lacks x, y": _dubins_variant(
        ("state x y v theta", "state px py v theta"),
        ("dyn x'     = x", "dyn px' = px"),
        ("dyn y'     = y", "dyn py' = py"),
        ("moments x y x*y x^2 y^2", "moments px py px*py px^2 py^2"),
    ),
    "lacks v": _dubins_variant(
        ("state x y v theta", "state x y s theta"),
        ("v*cos", "s*cos"),
        ("v*sin", "s*sin"),
        ("dyn v'     = v", "dyn s' = s"),
        ("{v}", "{s}"),
    ),
    "exactly one angle,": _dubins_variant(
        ("state x y v theta", "state x y v theta phi"),
        ("angle theta", "angle theta phi"),
        ("dyn theta' = theta + wt", "dyn theta' = theta + wt\ndyn phi' = phi + wt"),
        ("{theta}", "{theta phi}"),
    ),
    "exactly one angular disturbance": _dubins_variant(
        ("disturbance wv wt", "disturbance wv wt wa"),
        ("dyn v'     = v + wv", "dyn v'     = v + wv + 0.001*cos(wa)"),
        ("dist wt = gaussian(0.04, 0.03)", "dist wt = gaussian(0.04, 0.03)\ndist wa = gaussian(0, 0.01)"),
    ),
}


class TestCantelli:
    def test_basic_values(self):
        assert cantelli_bound(1.0, 1.0) == pytest.approx(0.5)
        assert cantelli_bound(3.0, 1.0) == pytest.approx(0.1)

    def test_negative_mean_is_one(self):
        assert cantelli_bound(-0.5, 0.2) == 1.0
        assert cantelli_bound(-0.5, 100.0) == 1.0

    def test_zero_corner(self):
        assert cantelli_bound(0.0, 0.0) == 0.0
        assert cantelli_bound(0.5, 0.0) == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            cantelli_bound(1.0, -1e-9)

    def test_prior_condition_equivalence(self):
        """Acceptance decision must match the allocation-style sufficient condition."""
        rng = np.random.default_rng(77)
        for _ in range(2000):
            mean = rng.uniform(0, 3)
            var = rng.uniform(0, 2)
            eps = rng.uniform(1e-6, 1 - 1e-6)
            ours = cantelli_bound(mean, var) <= eps
            prior = mean >= math.sqrt(var) * math.sqrt((1 - eps) / eps)
            assert ours == prior


class TestPolytope:
    def test_halfspace_orientation(self):
        # Inside points satisfy all inequalities; outside violate at least one
        assert bool(UNIT_SQUARE.contains(1.5, 1.5))
        assert not bool(UNIT_SQUARE.contains(0.0, 0.0))
        assert not bool(UNIT_SQUARE.contains(1.5, 2.5))

    def test_vectorized_contains(self):
        xs = np.array([1.5, 0.0, 2.5])
        ys = np.array([1.5, 0.0, 1.5])
        assert list(UNIT_SQUARE.contains(xs, ys)) == [True, False, False]

    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polytope.from_vertices([(0, 0), (1, 0)])

    # Vertex lists whose half-spaces do not bound the polygon they trace.
    UNREPRESENTABLE = {
        "clockwise square": [(1, 1), (1, 2), (2, 2), (2, 1)],
        "non-convex pentagon": [(0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)],
        "zero area": [(0, 0), (1, 0), (2, 0)],
        "spike": [(0, 0), (2, 0), (1, 0), (1, 1)],
        "pentagram": [(math.cos(a), math.sin(a)) for a in (0.4 + 4 * math.pi * k / 5 for k in range(5))],
    }

    @pytest.mark.parametrize("name", UNREPRESENTABLE)
    def test_unrepresentable_vertex_list_rejected(self, name):
        with pytest.raises(ValueError, match="^obstacle vertices must go counterclockwise around a convex polygon"):
            Polytope.from_vertices(self.UNREPRESENTABLE[name])

    def test_collinear_vertex_and_thin_triangle_accepted(self):
        square = Polytope.from_vertices([(1, 1), (1.5, 1), (2, 1), (2, 2), (1, 2)])
        assert bool(square.contains(1.5, 1.5)) and not bool(square.contains(1.5, 0.9))
        assert bool(Polytope.from_vertices([(0, 0), (1, 0), (0.5, 1e-6)]).contains(0.5, 1e-7))

    def test_obstacle_risk_small_isotropic(self):
        # Mean at origin, tiny isotropic covariance, obstacle [1,2]^2:
        # near faces give var/(var + 1), far faces give 1.
        sigma = 1e-4 * np.eye(2)
        risk = obstacle_risk(np.array([0.0, 0.0]), sigma, UNIT_SQUARE)
        assert risk == pytest.approx(1e-4 / (1e-4 + 1.0), rel=1e-9)

    def test_obstacle_risk_inside_is_one(self):
        sigma = 1e-4 * np.eye(2)
        assert obstacle_risk(np.array([1.5, 1.5]), sigma, UNIT_SQUARE) == 1.0

    def test_obstacle_risk_zero_variance_outside(self):
        assert obstacle_risk(np.array([0.0, 0.0]), np.zeros((2, 2)), UNIT_SQUARE) == 0.0


class TestTrajectoryRisk:
    def test_empty_environment(self, dubins_reduced):
        """No obstacles: a (6, 0) face table and no first faces, which the kernel and its twin take as they come."""
        env = Environment((0, 0, 5, 5), (0, 0, 0), (4, 4, 0.5))
        faces, starts = env._faces
        assert faces.shape == (6, 0) and starts.shape == (0,) and starts.dtype == np.int64
        state = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 1, "theta": 0})
        traj = stochastic_steer(state, np.zeros(3), dubins_reduced, _planner_model(dubins_reduced))
        positions = dubins_reduced.pair_positions("x", "y")
        assert trajectory_risk(traj, env) == risk_bound_python(traj.values, positions, faces, starts) == 0.0

    def test_summation_over_steps_and_obstacles(self, dubins_reduced):
        state = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 1, "theta": 0})
        traj = stochastic_steer(state, np.zeros(2), dubins_reduced, _planner_model(dubins_reduced))
        obs = (UNIT_SQUARE, Polytope.from_vertices([(5, 5), (6, 5), (6, 6), (5, 6)]))
        env = Environment((0, 0, 10, 10), (0, 0, 0), (9, 9, 0.5), obs)
        from momentprop.propagator import mean_cov

        means, covs = mean_cov(traj, ("x", "y"))
        expected = sum(
            obstacle_risk(means[t], covs[t], o) for t in (1, 2) for o in obs
        )
        assert trajectory_risk(traj, env) == pytest.approx(expected, rel=1e-12)


    def test_any_layout_of_moments(self, dubins_reduced):
        """A trajectory whose values are strided or Fortran-ordered is bounded as its C-ordered copy is."""
        state = init_deterministic(dubins_reduced, {"x": 0.5, "y": 0.5, "v": 0.05, "theta": 0.3})
        traj = stochastic_steer(state, np.full(20, 0.02), dubins_reduced, _planner_model(dubins_reduced))
        env = parse_environment(presets.PLANNER_ENV)
        expected = trajectory_risk(traj, env)
        assert expected > 0.0
        wide = np.zeros((traj.values.shape[0], 2 * traj.values.shape[1]))
        wide[:, ::2] = traj.values
        for values in (np.asfortranarray(traj.values), wide[:, ::2]):
            assert trajectory_risk(MomentTrajectory(dubins_reduced, values), env) == expected


class TestDubinsSteer:
    def test_identical_poses_give_empty_controls(self):
        assert len(dubins_steer((1, 1, 0.5), (1, 1, 0.5), 0.1, 1.0)) == 0

    @pytest.mark.parametrize("max_steps", [2.5, math.nan, -3, 0, True, -math.inf])
    def test_step_cap_must_be_a_positive_integer(self, max_steps):
        with pytest.raises(ValueError, match="max steps must be an integer of at least 1"):
            dubins_steer((0, 0, 0), (1, 0, 0), 0.05, 0.3, max_steps)

    def test_step_cap_takes_numpy_integers_and_inf(self):
        assert len(dubins_steer((0, 0, 0), (1, 0, 0), 0.05, 0.3, np.int64(3))) == 3
        assert len(dubins_steer((0, 0, 0), (1, 0, 0), 0.05, 0.3, math.inf)) == 20

    def test_straight_line_step_count(self):
        controls = dubins_steer((0, 0, 0), (1, 0, 0), speed=0.3, radius=1.0)
        assert len(controls) == math.ceil(1.0 / 0.3)
        assert controls == pytest.approx(np.zeros(len(controls)), abs=1e-12)

    def test_quarter_turn_constant_rate(self):
        speed = math.pi / 2 / 25
        controls = dubins_steer((0, 0, 0), (1, 1, math.pi / 2), speed=speed, radius=1.0)
        assert len(controls) == 25
        assert controls == pytest.approx(np.full(25, speed / 1.0), abs=1e-12)
        end = simulate_controls((0, 0, 0), controls, speed)[-1]
        assert math.hypot(end[0] - 1.0, end[1] - 1.0) <= 0.05
        assert abs(math.remainder(end[2] - math.pi / 2, 2 * math.pi)) <= 0.05

    def test_increment_bound_and_endpoint_tolerance(self):
        rng = np.random.default_rng(8)
        speed, radius = 0.05, 0.6
        for _ in range(25):
            p0 = (rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(-math.pi, math.pi))
            p1 = (rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(-math.pi, math.pi))
            controls = dubins_steer(p0, p1, speed, radius)
            assert np.abs(controls).max() <= speed / radius + 1e-9
            end = simulate_controls(p0, controls, speed)[-1]
            assert math.hypot(end[0] - p1[0], end[1] - p1[1]) <= 0.05
            assert abs(math.remainder(end[2] - p1[2], 2 * math.pi)) <= 0.05

    def test_equals_per_step_heading_loop(self):
        """The array headings equal a per-step walk along the segments, bit for bit."""

        def heading_after(path, s, heading):
            for mode, length in path.segments:
                take = min(s, length)
                if mode == "L":
                    heading += take / path.radius
                elif mode == "R":
                    heading -= take / path.radius
                s -= take
                if s <= 0:
                    break
            return heading

        rng = np.random.default_rng(3)
        for _ in range(200):
            p0 = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-7, 7))
            p1 = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-7, 7))
            speed, radius = rng.choice([0.013, 0.05, 0.5]), rng.choice([0.1, 0.3, 1.0])
            path = shortest_path(*relative(p0, p1, radius), radius)
            n_steps = max(1, math.ceil(path.length / speed))
            headings = [heading_after(path, min(k * speed, path.length), p0[2]) for k in range(n_steps + 1)]
            assert np.array_equal(dubins_steer(p0, p1, speed, radius), np.diff(headings))

    def test_step_cap_computes_only_the_kept_steps(self):
        """A 10^4-wide edge capped at 40 steps: the full path's first 40 controls, at a 40-step edge's memory."""

        def peak_bytes(*args):
            tracemalloc.start()
            try:
                dubins_steer(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        p0, far = (0.0, 0.0, 0.0), (1e4, 1e4, 1.0)
        full = dubins_steer(p0, far, 0.05, 0.3)
        assert len(full) > 280_000
        capped = dubins_steer(p0, far, 0.05, 0.3, 40)
        assert np.array_equal(capped, full[:40])
        # The uncapped path allocates about 9 MB; within 2 kB, no array can hold more than a few hundred steps.
        near = (1.4, 1.4, math.pi / 4)
        start = (0.0, 0.0, math.pi / 4)
        assert len(dubins_steer(start, near, 0.05, 0.3)) == 40
        peak_bytes(p0, far, 0.05, 0.3, 40)  # warm-up
        assert peak_bytes(p0, far, 0.05, 0.3, 40) <= peak_bytes(start, near, 0.05, 0.3) + 2048

    def test_path_length_is_shortest_of_words(self):
        """An aligned target 10 away is reached by the straight word: ceil(10 / speed) steps."""
        for speed in (0.05, 0.3, 0.7, 3.0):
            assert len(dubins_steer((0, 0, 0), (10, 0, 0), speed, 1.0)) == math.ceil(10 / speed)

    def test_path_length_adds_left_to_right(self):
        """As the C steering adds the segments: sum() on Python 3.12 and later would give 0.6 here."""
        path = DubinsPath((("L", 0.1), ("S", 0.2), ("R", 0.3)), 1.0)
        assert path.length == (0.0 + 0.1 + 0.2) + 0.3 == 0.6000000000000001


def _scalar_nearest(poses, sample, radius):
    """The nearest-node rule as a scalar key: first minimum of min(range(...), key=...)."""
    return min(
        range(len(poses)),
        key=lambda i: math.hypot(sample[0] - poses[i][0], sample[1] - poses[i][1])
        + radius * abs(math.remainder(sample[2] - poses[i][2], 2.0 * math.pi)),
    )


class TestNearest:
    SPECIAL_GAPS = [0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 3 * math.pi, -5 * math.pi, 40 * math.pi,
                    math.nextafter(math.pi, 4.0), math.nextafter(math.pi, 3.0), math.pi / 2, -math.pi / 2, 1e-300]

    def test_nan_score_names_the_pose_or_radius(self, kernels, dubins_reduced):
        """A NaN score leaves an empty near-tie band; the tree names its cause instead of min() of nothing."""
        cases = [((1.0, math.nan, 0.0), (0.5, 0.5, 0.0), 0.3, r"poses must be finite, got \(1\.0, nan, 0\.0\)"),
                 ((0.0, 0.0, 0.0), (math.nan, 0.5, 0.0), 0.3, r"poses must be finite, got \(nan, 0\.5, 0\.0\)"),
                 ((0.0, 0.0, 0.0), (0.5, 0.5, 0.0), math.nan, "radius must be finite, got nan")]
        for root, sample, radius, message in cases:
            args = grow_tree_arguments(dubins_reduced, presets.planner_noise(), [sample], root=root)
            args[11] = radius
            with pytest.raises(ValueError, match=f"^nearest-node {message}$"):
                _kernels.grow_tree(*args)
            with pytest.raises(ValueError, match=f"^nearest-node {message}$"):
                nearest_node(np.array([root]), sample, radius)

    def test_folded_fmod_equals_remainder(self):
        rng = np.random.default_rng(2)
        gaps = np.concatenate([self.SPECIAL_GAPS, -np.array(self.SPECIAL_GAPS), rng.uniform(-50, 50, 5000),
                               rng.integers(-20, 20, 200) * 2 * math.pi, rng.integers(-20, 20, 200) * math.pi])
        a = np.abs(np.fmod(gaps, 2.0 * math.pi))
        folded = np.minimum(a, 2.0 * math.pi - a)
        assert folded.tolist() == [abs(math.remainder(g, 2.0 * math.pi)) for g in gaps.tolist()]

    def test_matches_scalar_key(self):
        """Random trees with repeated poses, equidistant poses and heading gaps of +-pi and multiples of 2 pi."""
        rng = np.random.default_rng(4)
        for _ in range(400):
            sample = (rng.uniform(0, 2.5), rng.uniform(0, 2.5), rng.uniform(-math.pi, math.pi))
            poses = [(rng.uniform(0, 2.5), rng.uniform(0, 2.5), rng.uniform(-7, 7)) for _ in range(rng.integers(1, 30))]
            for _ in range(rng.integers(0, 6)):
                kind = rng.integers(3)
                if kind == 0:  # a repeat of an earlier pose: a tie that the first index wins
                    poses.append(poses[rng.integers(len(poses))])
                else:  # on a circle around the sample, heading gap +-pi or a multiple of 2 pi
                    d, phi = rng.uniform(0, 1), rng.choice([0.0, math.pi / 2, math.pi, -math.pi / 2])
                    gap = rng.choice(self.SPECIAL_GAPS)
                    poses.append((sample[0] + d * math.cos(phi), sample[1] + d * math.sin(phi), sample[2] - gap))
            order = rng.permutation(len(poses))
            arr = np.array([poses[i] for i in order], dtype=float)
            radius = rng.choice([0.0, 0.3, 1.0])
            assert nearest_node(arr, sample, radius) == _scalar_nearest(arr.tolist(), sample, radius)

    def test_hypot_ulp_near_tie_settled_by_scalar_key(self):
        """Where np.hypot rounds below math.hypot, a vector argmin alone would pick the later of two tied poses."""
        rng = np.random.default_rng(0)
        dx, dy = rng.uniform(-3, 3, (2, 20_000))
        low = np.flatnonzero(np.hypot(dx, dy) < [math.hypot(a, b) for a, b in zip(dx.tolist(), dy.tolist())])
        if not len(low):
            pytest.skip("np.hypot agrees with math.hypot on every sample here")
        a, b = float(dx[low[0]]), float(dy[low[0]])
        exact = math.hypot(a, b)
        sample = (0.0, 0.0, 0.0)
        poses = np.array([(-exact, 0.0, 0.0), (-a, -b, 0.0)])  # scalar keys tie at `exact`
        assert int(np.argmin(np.hypot(-poses[:, 0], -poses[:, 1]))) == 1
        assert nearest_node(poses, sample, 0.3) == _scalar_nearest(poses.tolist(), sample, 0.3) == 0


@pytest.fixture(params=["c", "python"])
def kernels(request, monkeypatch):
    """The C entry points, then their twins from `reference` in their place: the twins must fail as C does."""
    if request.param == "python":
        use_kernel_twins(monkeypatch)
    return request.param


class TestSteeringArguments:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.05])
    @pytest.mark.parametrize("name", ["speed", "radius"])
    def test_dubins_steer_names_a_bad_speed_or_radius(self, kernels, name, value):
        args = {"speed": 0.05, "radius": 0.3, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
            dubins_steer((0, 0, 0), (1, 0.5, 1.0), **args)

    @pytest.mark.parametrize("pose", [(math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan)])
    def test_nan_pose_is_an_infeasible_path(self, kernels, pose):
        with pytest.raises(InfeasiblePathError, match="no feasible bounded-curvature path"):
            dubins_steer((0.5, 0.5, 0.0), pose, 0.05, 0.3, 40)

    @pytest.mark.parametrize("pose", [(math.inf, 0.0, 0.0), (0.0, -math.inf, 0.0), (0.0, 0.0, math.inf)])
    def test_infinite_pose_is_named(self, kernels, pose):
        message = "^" + re.escape(f"pose coordinates must not be infinite, got {pose} and (0.5, 0.5, 0.0)") + "$"
        with pytest.raises(ValueError, match=message) as steer:
            dubins_steer(pose, (0.5, 0.5, 0.0), 0.05, 0.3, 40)
        assert not isinstance(steer.value, InfeasiblePathError)

    @pytest.mark.parametrize("start, end, radius, message", [
        ((0.0, 0.0, 0.0), (0.5, 0.5, 0.0), 1e-310, "0.7071067811865476 / 1e-310"),  # the quotient overflows
        ((-1e308, 0.0, 0.0), (1e308, 0.0, 0.0), 0.3, "inf / 0.3"),  # dx overflows
    ])
    def test_distance_overflowing_in_radii_is_named(self, kernels, start, end, radius, message):
        with pytest.raises(ValueError, match=f"^distance / radius must be finite, got {message}$"):
            dubins_steer(start, end, 0.05, radius, 40)

    def test_step_count_is_capped_before_it_becomes_an_integer(self, kernels):
        """length / speed overflows; capped, it is the cap, and uncapped it is named instead of an OverflowError."""
        controls = dubins_steer((0, 0, 0), (1e10, 0, 0), 1e-300, 1.0, 40)
        assert np.array_equal(controls, np.zeros(40))  # a straight word turns by nothing
        with pytest.raises(ValueError, match=r"^step count must be finite, got length 10000000000\.0 / speed 1e-300$"):
            dubins_steer((0, 0, 0), (1e10, 0, 0), 1e-300, 1.0)

    def test_infinite_segment_length_is_named(self, kernels):
        """A huge radius makes a turn's length t * radius overflow on finite poses."""
        message = r"^path segment length must be finite, got 5\.799045340204974 \* 1e\+308$"
        with pytest.raises(ValueError, match=message) as steer:
            dubins_steer((0, 0, 0), (0.01, 0, 1.0), 0.05, 1e308, 40)
        assert not isinstance(steer.value, InfeasiblePathError)


def _word_margins(p0, p1, radius):
    """|p^2| of the four CSC words and ||tmp| - 1| of the two CCC words, as reference.dubins_words computes them."""
    dx, dy, dist, h0, h1 = relative(p0, p1, radius)
    theta = math.atan2(dy, dx) if dist > 1e-12 else 0.0
    alpha, beta, d = mod2pi(h0 - theta), mod2pi(h1 - theta), dist / radius
    sa, ca, sb, cb, c_ab = math.sin(alpha), math.cos(alpha), math.sin(beta), math.cos(beta), math.cos(alpha - beta)
    p_sq = (2 + d * d - 2 * c_ab + 2 * d * (sa - sb), 2 + d * d - 2 * c_ab + 2 * d * (sb - sa),
            -2 + d * d + 2 * c_ab + 2 * d * (sa + sb), d * d - 2 + 2 * c_ab - 2 * d * (sa + sb))
    tmp = ((6.0 - d * d + 2 * c_ab + 2 * d * (sa - sb)) / 8.0, (6.0 - d * d + 2 * c_ab + 2 * d * (sb - sa)) / 8.0)
    return min(map(abs, p_sq)), min(abs(abs(x) - 1.0) for x in tmp)


def _turn_centre(pose, radius, side):
    """Centre of the circle the pose turns on: side +1 to the left, -1 to the right."""
    x, y, h = pose
    return x - side * radius * math.sin(h), y + side * radius * math.cos(h)


def _pose_on_circle(centre, radius, side, heading):
    """The pose with `heading` that turns on the circle about `centre` (side as in _turn_centre)."""
    return centre[0] + side * radius * math.sin(heading), centre[1] - side * radius * math.cos(heading), heading


_coords, _angles = st.floats(-3.0, 3.0), st.one_of(st.floats(-7.0, 7.0), st.sampled_from(
    [0.0, math.pi, -math.pi, math.pi / 2, 2 * math.pi, math.nextafter(math.pi, 4.0)]))
# How the goal pose relates to the start; the circle kinds put the poses at a word's feasibility edge.
_GOALS = ["random", "coincident", "same position", "antipodal", "same circle", "tangent circles", "circles 4r apart"]


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_c_steering_matches_python_twin(data):
    """The C steering's controls equal its twin's bit for bit, at the words' feasibility edges too."""
    radius = data.draw(st.one_of(st.sampled_from([0.1, 0.3, 1.0]), st.floats(0.05, 2.0)), label="radius")
    speed = data.draw(st.one_of(st.sampled_from([0.013, 0.05, 0.5]), st.floats(0.01, 1.0)), label="speed")
    cap = data.draw(st.sampled_from([1, 40, math.inf]), label="cap")
    p0 = (data.draw(_coords), data.draw(_coords), data.draw(_angles))
    kind = data.draw(st.sampled_from(_GOALS), label="goal")
    if kind == "random":
        p1 = (data.draw(_coords), data.draw(_coords), data.draw(_angles))
    elif kind == "coincident":
        p1 = p0
    elif kind == "same position":
        p1 = (p0[0], p0[1], data.draw(_angles))
    elif kind == "antipodal":
        p1 = (data.draw(_coords), data.draw(_coords), p0[2] + data.draw(st.sampled_from([math.pi, -math.pi])))
    else:
        # Same-side circles 0 or 4 radii apart: LSL or RSR's p^2 is 0, or LRL or RLR's |tmp| is 1; opposite
        # sides 2 radii apart: LSR or RSL's p^2 is 0.
        side0 = data.draw(st.sampled_from([1, -1]))
        side1 = -side0 if kind == "tangent circles" else side0
        apart = {"same circle": 0.0, "tangent circles": 2.0, "circles 4r apart": 4.0}[kind] * radius
        phi = data.draw(st.floats(-math.pi, math.pi))
        cx, cy = _turn_centre(p0, radius, side0)
        p1 = _pose_on_circle((cx + apart * math.cos(phi), cy + apart * math.sin(phi)), radius, side1, data.draw(_angles))
        p_sq, tmp = _word_margins(p0, p1, radius)
        assert min(p_sq, tmp) < 1e-9
    got, want = dubins_steer(p0, p1, speed, radius, cap), steer_python(*p0, *p1, speed, radius, cap)
    assert got.dtype == want.dtype == np.float64 and got.flags.writeable
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _parents_follow_the_scalar_key(samples, nodes, outcomes, radius):
    """Each accepted sample's parent is the scalar key's nearest among the nodes accepted before it."""
    count = 1
    for sample, (cause, _) in zip(samples, outcomes.tolist()):
        if cause == 0:
            assert nodes[count, 4] == _scalar_nearest(nodes[:count, :3].tolist(), sample, radius)
            count += 1


def _on_the_bisector(a, b, offset, ulps=0):
    """A sample on the perpendicular bisector of poses a and b, `offset` along it from their midpoint, its x moved by
    `ulps` ulps, heading halfway between theirs: the two poses' scores tie but for rounding."""
    mx, my = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
    x = mx - offset * (b[1] - a[1])
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x, my + offset * (b[0] - a[0]), (a[2] + b[2]) / 2


_OBSTACLE_FREE = "bounds 0 0 2.5 2.5\nstart 0.3 0.3 0\ngoal 2.1 2.1 0.25\n"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_c_nearest_matches_scalar_key_on_repeats_and_near_ties(dubins_reduced, data):
    """Samples that repeat a node's pose, lie on the bisector of two nodes (or a few ulps off it) with the heading
    halfway between theirs, or come uniformly: every parent is the scalar key's, and C and twin agree bit for bit."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    samples = rng.uniform((0.0, 0.0, -math.pi), (2.5, 2.5, math.pi), (10, 3)).tolist()
    noise = presets.planner_noise()
    for _ in range(data.draw(st.integers(1, 8), label="crafted")):
        args = grow_tree_arguments(dubins_reduced, noise, samples, env=_OBSTACLE_FREE, epsilon=0.5)
        poses = args[1][: len(_kernels.grow_tree(*args)) + 1, :3].tolist()
        a, b = data.draw(st.sampled_from(poses)), data.draw(st.sampled_from(poses))
        kind = data.draw(st.sampled_from(["repeat", "bisector", "ulps off", "uniform"]))
        if kind == "repeat":
            samples.append(a)
        elif kind == "uniform":
            samples.append(rng.uniform((0.0, 0.0, -math.pi), (2.5, 2.5, math.pi)).tolist())
        else:
            offset = data.draw(st.sampled_from([0.0, 0.25, -1.0]) | st.floats(-2.0, 2.0))
            samples.append(_on_the_bisector(a, b, offset, data.draw(st.integers(-3, 3)) if kind == "ulps off" else 0))
    args = grow_tree_arguments(dubins_reduced, noise, samples, env=_OBSTACLE_FREE, epsilon=0.5)
    _, nodes, outcomes = grow_both(args)
    _parents_follow_the_scalar_key(samples, nodes, outcomes, 0.3)


def test_near_tie_on_a_bisector_is_settled_by_the_scalar_key(dubins_reduced):
    """Samples on the bisector of two nodes, heading halfway between theirs: the libm scores of both nodes fall in
    the near-tie band, and the parent is the one that planner's scalar key (math.hypot) picks, in C and its twin."""
    noise = presets.planner_noise()
    samples = np.random.default_rng(5).uniform((0.0, 0.0, -math.pi), (2.5, 2.5, math.pi), (12, 3)).tolist()
    args = grow_tree_arguments(dubins_reduced, noise, samples, env=_OBSTACLE_FREE, epsilon=0.5)
    poses = args[1][: len(_kernels.grow_tree(*args)) + 1, :3]
    ties = 0
    for (i, j), offset in itertools.product(itertools.combinations(range(len(poses)), 2), (0.0, 0.2, 0.5)):
        sample = _on_the_bisector(poses[i], poses[j], offset)
        dx, dy, dh = (np.array(sample) - poses[[i, j]]).T
        a = np.abs(np.fmod(dh, 2.0 * math.pi))
        scores = np.hypot(dx, dy) + 0.3 * np.minimum(a, 2.0 * math.pi - a)
        others = np.delete(np.arange(len(poses)), [i, j])
        if max(scores) > min(scores) * (1.0 + 1e-9) or any(
                math.hypot(sample[0] - p[0], sample[1] - p[1]) <= max(scores) for p in poses[others]):
            continue
        ties += 1
        tied = grow_tree_arguments(dubins_reduced, noise, samples + [sample], env=_OBSTACLE_FREE, epsilon=0.5)
        _, nodes, outcomes = grow_both(tied)
        assert outcomes[-1, 0] == 0
        assert nodes[len(poses), 4] == _scalar_nearest(poses.tolist(), sample, 0.3) == nearest_node(poses, sample, 0.3)
    assert ties >= 10


def test_c_geometry_rejects_bad_input_and_releases_buffers(dubins_reduced):
    """grow_tree's samples, nodes and outcomes are checked before any work, every buffer is released, and no node or
    outcome is written; dubins_steer takes two poses, speed, radius and cap, nine floats, and holds none of them."""
    args = grow_tree_arguments(dubins_reduced, presets.planner_noise(), [(1.0, 1.0, 0.0)] * 3)
    read_only = args[1].copy()
    read_only.flags.writeable = False
    cases = {
        "float32 samples": (0, args[0].astype(np.float32), TypeError),
        "Fortran-ordered samples": (0, np.asfortranarray(np.ones((3, 3))), TypeError),
        "samples of two columns": (0, args[0][:, :2].copy(), ValueError),
        "one sample too many": (0, np.ones((4, 3)), ValueError),
        "a list of samples": (0, args[0].tolist(), TypeError),
        "read-only nodes": (1, read_only, ValueError),
        "nodes without moments": (1, args[1][:, :4].copy(), ValueError),
        "int32 outcomes": (22, args[22].astype(np.int32), TypeError),
        "outcomes of one column": (22, args[22][:, :1].copy(), ValueError),
        "a string radius": (11, "0.3", TypeError),
    }
    for name, (position, bad, error) in cases.items():
        bad_args = [*args[:position], bad, *args[position + 1 :]]
        before = [sys.getrefcount(arg) for arg in bad_args if isinstance(arg, np.ndarray)]
        with pytest.raises(error, match=None if name.startswith("a ") and error is TypeError else "^grow_tree: "):
            _kernels.grow_tree(*bad_args)
        assert [sys.getrefcount(arg) for arg in bad_args if isinstance(arg, np.ndarray)] == before, name
        assert (args[1][1:] == 7.0).all() and (args[22] == -7).all(), name
    with pytest.raises(TypeError, match="takes 23 arguments"):
        _kernels.grow_tree(*args[:22])
    steer = [0.0, 0.0, 0.0, float("1.0"), float("0.5"), float("1.0"), float("0.05"), float("0.3"), float("40")]
    cases = {
        "eight arguments": (steer[:8], TypeError, "^dubins_steer takes 9 arguments \\(8 given\\)$"),
        "a string heading": ([*steer[:5], "1.0", *steer[6:]], TypeError, None),
        "an infinite pose": ([math.inf, *steer[1:]], ValueError, "^pose coordinates must not be infinite"),
        "a NaN pose": ([*steer[:3], math.nan, *steer[4:]], None, None),
        "two poses": (steer, None, None),
    }
    for name, (steer_args, error, message) in cases.items():
        before = [sys.getrefcount(arg) for arg in steer_args]
        if error is None:
            controls = _kernels.dubins_steer(*steer_args)
            assert (controls is None) == (name == "a NaN pose"), name
            del controls
        else:
            with pytest.raises(error, match=message):
                _kernels.dubins_steer(*steer_args)
        assert [sys.getrefcount(arg) for arg in steer_args] == before, name


# How each error of the tree's loop is provoked: (root, sample, arguments replaced by position, message).
TREE_ERRORS = {
    "infinite sample": ((0.3, 0.3, 0.0), (math.inf, 0.5, 0.0), {},
                        r"pose coordinates must not be infinite, got \(0\.3, 0\.3, 0\.0\) and \(inf, 0\.5, 0\.0\)"),
    "infinite root": ((0.3, -math.inf, 0.0), (0.5, 0.5, 0.0), {},
                      r"pose coordinates must not be infinite, got \(0\.3, -inf, 0\.0\) and \(0\.5, 0\.5, 0\.0\)"),
    "distance overflowing in radii": ((0.0, 0.0, 0.0), (0.5, 0.5, 0.0), {11: 1e-310},
                                      r"distance / radius must be finite, got 0\.7071067811865476 / 1e-310"),
    "infinite segment": ((0.0, 0.0, 0.0), (0.01, 0.0, 1.0), {11: 1e308},
                         r"path segment length must be finite, got 5\.799045340204974 \* 1e\+308"),
    "infinite step count": ((0.0, 0.0, 0.0), (1e10, 0.0, 0.0), {10: 1e-300, 12: math.inf},
                            r"step count must be finite, got length 10000000000\.0 / speed 1e-300"),
}


@pytest.mark.parametrize("case", TREE_ERRORS)
def test_grow_tree_raises_the_loops_errors_as_its_twin(dubins_reduced, case):
    """Each ValueError of the pose checks and Dubins steering, with its message, from C and from the twin, and from
    `dubins_steer`, the C entry point and its twin on the same poses: the C tree and the C steering share `edge_path`."""
    root, sample, replaced, message = TREE_ERRORS[case]
    args = grow_tree_arguments(dubins_reduced, presets.planner_noise(), [sample], root=root)
    for position, value in replaced.items():
        args[position] = value
    for grow in (_kernels.grow_tree, grow_tree_python):
        with pytest.raises(ValueError, match=f"^{message}$"):
            grow(*args[:1], args[1].copy(), *args[2:])
    with pytest.raises(ValueError, match=f"^{message}$"):
        dubins_steer(root, sample, args[10], args[11], args[12])
    for steer in (_kernels.dubins_steer, steer_python):
        with pytest.raises(ValueError, match=f"^{message}$"):
            steer(*root, *sample, args[10], args[11], args[12])


TREE_NOISE = {"gaussian": presets.planner_noise(), "degenerate": {**presets.planner_noise(), "wt": Degenerate(0.0)},
              "uniform": {**presets.planner_noise(), "wt": Uniform(-0.02, 0.05)},
              "biased speed": {**presets.planner_noise(), "wv": Gaussian(0.001, 1e-8)}}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_grow_tree_matches_its_twin(dubins_reduced, data):
    """Random environments (none to three obstacles), heading noise with each trig path and a biased speed noise:
    every node, outcome and control of the C tree is its twin's, bit for bit, and every parent the scalar key's."""
    lines = ["bounds 0 0 2.5 2.5", "start 0.3 0.3 0", "goal 2.1 2.1 0.25"]
    for _ in range(data.draw(st.integers(0, 3), label="obstacles")):
        x, y = data.draw(st.floats(0.6, 2.0)), data.draw(st.floats(0.6, 2.0))
        w, h = data.draw(st.floats(0.05, 0.5)), data.draw(st.floats(0.05, 0.5))
        lines.append(f"obstacle {x} {y} {x + w} {y} {x + w} {y + h} {x} {y + h}")
    noise = TREE_NOISE[data.draw(st.sampled_from(sorted(TREE_NOISE)), label="noise")]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    samples = rng.uniform((0.0, 0.0, -math.pi), (2.5, 2.5, math.pi), (data.draw(st.integers(0, 40)), 3))
    epsilon = data.draw(st.sampled_from([1e-6, 0.05, 0.1, 0.5]), label="epsilon")
    args = grow_tree_arguments(dubins_reduced, noise, samples, env="\n".join(lines), epsilon=epsilon)
    args[12] = data.draw(st.sampled_from([1, 5, 40]), label="max steps")
    _, nodes, outcomes = grow_both(args)
    _parents_follow_the_scalar_key(samples.tolist(), nodes, outcomes, 0.3)


def test_grow_tree_row_cache_reuses_its_slots_exactly(dubins_reduced):
    """A tree whose edges carry more than twice as many distinct shift bit patterns as grow_tree's row cache has slots
    (the C source's ROW_CACHE_BITS), so that slots are reused: every node, outcome and control is the twin's, which
    builds every row.  Steps of 2/3 rad (speed 0.2, radius 0.3) mostly span a segment's end, which gives new bits."""
    slots = 1 << int(re.search(r"#define ROW_CACHE_BITS (\d+)", _kernels._C_PATH.read_text())[1])
    samples = np.random.default_rng(11).uniform((0.0, 0.0, -math.pi), (2.5, 2.5, math.pi), (500, 3))
    args = grow_tree_arguments(dubins_reduced, presets.planner_noise(), samples, env=_OBSTACLE_FREE, epsilon=0.5)
    args[10], args[12] = 0.2, 1000
    controls, _, outcomes = grow_both(args)
    assert (outcomes[:, 0] == 0).all()  # every edge ran every step, so each control's row was built or served
    assert len(np.unique(np.concatenate(controls).view(np.uint64))) > 2 * slots


def test_grow_tree_row_cache_lives_for_one_call(dubins_reduced):
    """Back-to-back trees on the same samples under other heading noise, so that the same shifts need other rows:
    each tree is its twin's, so no row of one call serves the next."""
    samples = np.random.default_rng(12).uniform((0.0, 0.0, -math.pi), (2.5, 2.5, math.pi), (20, 3))
    for wt in (Gaussian(0.0, 1e-8), Gaussian(0.0, 1e-2), Uniform(-0.001, 0.001), Degenerate(0.0)):
        noise = {**presets.planner_noise(), "wt": wt}
        controls, _, _ = grow_both(grow_tree_arguments(dubins_reduced, noise, samples, env=_OBSTACLE_FREE, epsilon=0.5))
        assert len(controls) == len(samples)


class TestStochasticSteer:
    def test_zero_noise_tracks_deterministic_rollout(self, dubins_reduced):
        controls = dubins_steer((0, 0, 0), (1.5, 0.8, 0.3), 0.05, 0.5)
        noise = {"wv": Degenerate(0.0), "wt": Degenerate(0.0)}
        state = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 0.05, "theta": 0})
        traj = stochastic_steer(state, controls, dubins_reduced, _planner_model(dubins_reduced, noise))
        poses = simulate_controls((0, 0, 0), controls, 0.05)
        assert traj.moment_series("x") == pytest.approx(poses[:, 0], abs=1e-10)
        assert traj.moment_series("y") == pytest.approx(poses[:, 1], abs=1e-10)

    def test_leaves_the_callers_model_alone(self, dubins_reduced):
        """The edge runs on its own model: the caller's schedule stays as it was, and the edge reads the controls."""
        model = DisturbanceModel(dubins_reduced, presets.planner_noise(), {"wt": np.zeros(5)})
        state = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 0.05, "theta": 0})
        traj = stochastic_steer(state, np.full(3, 0.1), dubins_reduced, model)
        assert model.shifts["wt"].tolist() == [0.0] * 5
        steered = DisturbanceModel(dubins_reduced, presets.planner_noise(), {"wt": np.full(3, 0.1)})
        assert traj.values.tobytes() == propagate(dubins_reduced, state, steered, 3).values.tobytes()

    def test_small_noise_covariance_grows(self, dubins_reduced):
        state = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 0.05, "theta": 0})
        traj = stochastic_steer(state, np.zeros(50), dubins_reduced, _planner_model(dubins_reduced))
        from momentprop.propagator import mean_cov

        _, covs = mean_cov(traj, ("x", "y"))
        assert covs[-1, 0, 0] > covs[1, 0, 0] >= 0.0
        assert covs[-1, 0, 0] < 1e-3


class TestEnvironment:
    def test_parse_round_trip(self):
        env = parse_environment(presets.PLANNER_ENV)
        assert env.bounds == (0.0, 0.0, 2.5, 2.5)
        assert env.start == (0.3, 0.3, 0.0)
        assert env.goal == (2.1, 2.1, 0.25)
        assert len(env.obstacles) == 2

    def test_start_inside_obstacle_rejected(self):
        text = "bounds 0 0 4 4\nstart 1.5 1.5 0\ngoal 3 3 0.3\nobstacle 1 1 2 1 2 2 1 2\n"
        with pytest.raises(ValueError, match="start"):
            parse_environment(text)

    def test_malformed_line_reported(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_environment("bounds 0 0 1 1\nstart zero 0 0\ngoal 1 1 0.1\n")

    @pytest.mark.parametrize(
        "line, value",
        [("bounds", "inf"), ("start", "nan"), ("goal", "-inf"), ("obstacle", "NaN"), ("bounds", "1e309")],
    )
    def test_non_finite_value_rejected(self, line, value):
        lines = presets.PLANNER_ENV.splitlines()
        at = next(i for i, text in enumerate(lines) if text.startswith(line))
        tokens = lines[at].split()
        lines[at] = " ".join([*tokens[:3], value, *tokens[4:]])
        with pytest.raises(ValueError, match=f"line {at + 1}: non-finite value"):
            parse_environment("\n".join(lines))

    @pytest.mark.parametrize("bounds", ["0 0 0 1", "0 1 1 0", "-1e308 0 1e308 1", "0 -1e308 1 1e308"])
    def test_empty_or_overflowing_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="line 1: bounds need"):
            parse_environment(f"bounds {bounds}\nstart 0.5 0.5 0\ngoal 0.9 0.9 0.1\n")

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("bounds 0 0 3 3", "line 8: repeated 'bounds' line"),
            ("start 0.3 0.4 0", "line 8: repeated 'start' line"),
            ("goal 2 2 0.3", "line 8: repeated 'goal' line"),
        ],
        ids=["bounds", "start", "goal"],
    )
    def test_repeated_line_rejected(self, extra, message):
        with pytest.raises(ValueError, match=message):
            parse_environment(presets.PLANNER_ENV + extra + "\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("bounds 0 0 1", "'bounds' takes 4 values, got 3"),
            ("start 0 0", "'start' takes 3 values, got 2"),
            ("goal 1 1 0.1 0", "'goal' takes 3 values, got 4"),
            ("obstacle 0 0 1 0 1", "'obstacle' takes an even number of at least 6 values, got 5"),
            ("obstacle 0 0 1 0", "'obstacle' takes an even number of at least 6 values, got 4"),
            ("wall 0 0 1 1", "unknown declaration 'wall'"),
        ],
        ids=["bounds", "start", "goal", "obstacle-odd", "obstacle-short", "unknown"],
    )
    def test_bad_declaration_says_what_is_wrong(self, line, message):
        with pytest.raises(ValueError) as err:
            parse_environment(f"{line}\n{presets.PLANNER_ENV}")
        assert str(err.value) == f"environment line 1: {message}"

    @pytest.mark.parametrize("radius", ["0", "-1", "-0.0"])
    def test_goal_radius_must_be_positive(self, radius):
        """No node can reach a goal of radius <= 0, so `plan` would spend its whole budget."""
        with pytest.raises(ValueError, match="line 3: goal radius must be positive"):
            parse_environment(f"bounds 0 0 10 10\nstart 1 1 0\ngoal 5 5 {radius}\n")

    def test_clockwise_obstacle_names_its_line(self):
        text = presets.PLANNER_ENV + "obstacle 1.6 0.2  1.6 0.6  2.0 0.6  2.0 0.2\n"
        with pytest.raises(ValueError, match=r"^environment line 8: obstacle vertices must go counterclockwise"):
            parse_environment(text)

    def test_far_apart_obstacle_vertices_rejected(self):
        with pytest.raises(ValueError, match="non-finite half-space"):
            parse_environment("bounds 0 0 1 1\nstart 0.5 0.5 0\ngoal 0.9 0.9 0.1\nobstacle 1e308 0  -1e308 0  0 1\n")

    _env_token = st.one_of(
        st.sampled_from(["bounds", "start", "goal", "obstacle", "#", "\n", "\n", " ", "x"]),
        st.sampled_from(["0", "1", "2.5", "-1", "1e308", "-1e308", "1e-320", "nan", "inf", "-inf", "1_0"]),
        st.floats(-10, 10).map(repr),
    )

    @staticmethod
    def _check_parse(text):
        try:
            env = parse_environment(text)
        except ValueError:
            return
        assert isinstance(env, Environment)
        values = [*env.bounds, *env.start, *env.goal]
        values += [v for obs in env.obstacles for (ax, ay), b in obs.halfspaces for v in (ax, ay, b)]
        assert all(math.isfinite(v) for v in values)
        assert env.goal[2] > 0

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_arbitrary_text(self, text):
        self._check_parse(text)

    @given(st.lists(_env_token, max_size=60).map(" ".join))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_environment_alphabet(self, text):
        self._check_parse(text)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_edited_environment(self, data):
        tokens = presets.PLANNER_ENV.replace("\n", " \n ").split(" ")
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(tokens) - 1))
            tokens[i] = data.draw(self._env_token)
        self._check_parse(" ".join(tokens))

    # Coordinates on obstacle edges give faces with an exactly zero mean.
    _coord = st.one_of(st.floats(-0.5, 3.0), st.sampled_from([0.4, 0.8, 1.0, 1.4, 1.6, 2.1]))
    _step = st.tuples(
        _coord, _coord, st.sampled_from(["spread", "zero", "negative"]),
        st.floats(0.0, 0.5), st.floats(-1.0, 1.0), st.floats(0.0, 0.5),
    )

    @given(st.lists(_step, min_size=0, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_equals_scalar_loop(self, dubins_reduced, steps):
        """Exactly the left-to-right sum of obstacle_risk over steps, then obstacles."""
        tilted = "obstacle 2 0.2  2.4 0.5  1.9 0.6\nobstacle 1.9 1.0  2.3 1.4  1.9 1.8  1.5 1.4\n"
        env = parse_environment(presets.PLANNER_ENV + tilted)
        idx = {name: dubins_reduced.moment_index(name) for name in ("x", "y", "x^2", "x*y", "y^2")}
        values = np.zeros((len(steps) + 1, len(dubins_reduced.basis)))
        for t, (mx, my, kind, a, r, c) in enumerate(steps, start=1):
            if kind == "spread":
                s00, s01, s11 = a, r * math.sqrt(a * c), c
            elif kind == "zero":
                s00 = s01 = s11 = 0.0
            else:  # slightly negative from rounding in E[x^2] - E[x]^2
                s00, s01, s11 = -1e-13, 0.0, -1e-13
            values[t, [idx["x"], idx["y"]]] = mx, my
            values[t, idx["x^2"]] = s00 + mx * mx
            values[t, idx["x*y"]] = s01 + mx * my
            values[t, idx["y^2"]] = s11 + my * my
        traj = MomentTrajectory(dubins_reduced, values)
        means, covs = mean_cov(traj, ("x", "y"))
        expected = 0.0
        for t in range(1, len(steps) + 1):
            for obs in env.obstacles:
                expected += obstacle_risk(means[t], covs[t], obs)
        assert trajectory_risk(traj, env) == expected


def _scalar_trajectory_risk(traj, env, position=("x", "y")):
    if not env.obstacles:
        return 0.0
    means, covs = mean_cov(traj, position)
    total = 0.0
    for t in range(1, means.shape[0]):
        for obs in env.obstacles:
            total += obstacle_risk(means[t], covs[t], obs)
    return total


def _per_requirement_table(self, requirements, n_steps):
    steps = np.arange(n_steps)
    table = np.empty((n_steps, len(requirements)))
    for j, beta_w in enumerate(requirements):
        table[:, j] = moment(self, beta_w, steps)
    return table


@pytest.mark.parametrize("seed", [0, 7, 11, 23])
def test_build_rrt_matches_scalar_reference(dubins_reduced, seed, monkeypatch):
    """Array risk bounds and moment tables leave every node bit for bit unchanged."""
    args = (parse_environment(presets.PLANNER_ENV), dubins_reduced, presets.planner_noise(), 0.1, 100, seed)
    fast = build_rrt(*args)
    monkeypatch.setattr(planner, "trajectory_risk", _scalar_trajectory_risk)
    monkeypatch.setattr(DisturbanceModel, "moment_table", _per_requirement_table)
    reference = build_rrt(*args)
    assert fast.goal_node == reference.goal_node
    assert len(fast.nodes) == len(reference.nodes) > 1
    for a, b in zip(fast.nodes, reference.nodes):
        assert (a.pose, a.risk_to_node, a.parent) == (b.pose, b.risk_to_node, b.parent)
        for x, y in ((a.mean, b.mean), (a.cov, b.cov), (a.moments, b.moments)):
            assert np.array_equal(x, y)


# Heading noise with the C trig path (Gaussian, degenerate), whose rows the kernel builds, and without it (Uniform);
# and speed noise with a nonzero mean, so that no product of a speed and a heading moment is zero.
EDGE_NOISE = {
    "gaussian": presets.planner_noise(),
    "degenerate": {**presets.planner_noise(), "wt": Degenerate(0.0)},
    "uniform": {**presets.planner_noise(), "wt": Uniform(-0.001, 0.001)},
    "biased-speed": {**presets.planner_noise(), "wv": Gaussian(0.001, 1e-8)},
}


@pytest.mark.parametrize("seed", [0, 7, 11, 23])
@pytest.mark.parametrize("noise", EDGE_NOISE)
def test_each_edge_matches_the_scalar_edge_path(dubins_reduced, noise, seed, monkeypatch):
    """Every sample of a tree, replayed one edge at a time with the one-off path: `nearest_node` among the nodes so
    far, `dubins_steer`, and `stochastic_steer` with per-requirement moments and the scalar risk.  That gives the
    tree's outcome, cause and steps run (the budget stops at the first step where the parent's risk plus the scalar
    bound passes epsilon), and for an accepted edge its parent, controls, arrival row and risk, bit for bit."""
    env = parse_environment(presets.PLANNER_ENV)
    noise = EDGE_NOISE[noise]
    calls, grow_tree = [], _kernels.grow_tree
    monkeypatch.setattr(_kernels, "grow_tree", lambda *args: calls.append(args) or grow_tree(*args))
    result = build_rrt(env, dubins_reduced, noise, 0.1, 100, seed)
    monkeypatch.undo()
    monkeypatch.setattr(DisturbanceModel, "moment_table", _per_requirement_table)
    model = DisturbanceModel(dubins_reduced, noise)
    ((samples, table, *_),) = calls
    count, causes = 1, collections.Counter(result.outcomes[:, 0].tolist())
    assert causes[0] > 10 and causes[4] > 10
    for sample, (cause, steps) in zip(samples.tolist(), result.outcomes.tolist()):
        near = nearest_node(table[:count, :3], sample, 0.3)
        parent = result.nodes[near]
        try:
            controls = dubins_steer(parent.pose, sample, 0.05, 0.3, 40)
        except InfeasiblePathError:
            assert (cause, steps) == (1, 0)
            continue
        if not len(controls):
            assert (cause, steps) == (2, 0)
            continue
        try:
            traj = stochastic_steer(parent.moments, controls, dubins_reduced, model)
        except PropagationError:
            assert cause == 3
            continue
        means, covs = mean_cov(traj, ("x", "y"))
        total, stop = 0.0, len(controls)
        for t in range(1, len(controls) + 1):
            for obs in env.obstacles:
                total += obstacle_risk(means[t], covs[t], obs)
            if not parent.risk_to_node + total <= 0.1:
                stop = t
                break
        risk = parent.risk_to_node + total
        assert (cause, steps) == ((0, stop) if risk <= 0.1 else (4, stop))
        if cause == 0:
            node = result.nodes[count]
            assert (node.parent, node.risk_to_node.hex()) == (near, risk.hex())
            assert node.controls.tobytes() == controls.tobytes()
            assert node.moments.tobytes() == traj.values[-1].tobytes()
            count += 1
    assert count == len(result.nodes)


@pytest.mark.parametrize("iterations", [0, 10])
def test_build_rrt_names_beta_heading_noise_before_steering(dubins_reduced, monkeypatch, iterations):
    """Beta has no trigonometric moments: the tree raises UnsupportedMomentError once, before its first iteration."""
    monkeypatch.setattr(planner, "dubins_steer", _never)
    noise = {**presets.planner_noise(), "wt": Beta(2.0, 3.0)}
    with pytest.raises(UnsupportedMomentError, match="beta"):
        build_rrt(parse_environment(presets.PLANNER_ENV), dubins_reduced, noise, 0.1, iterations, 0)


def test_trees_match_golden_digest(dubins_reduced):
    """Every node of seeds 0-29 at 100 iterations, bit for bit as recorded."""
    env = parse_environment(presets.PLANNER_ENV)
    digest = hashlib.sha256()
    for seed in range(30):
        result = build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 100, seed)
        digest.update(np.int64(-1 if result.goal_node is None else result.goal_node).tobytes())
        for n in result.nodes:
            for part in (n.pose, n.risk_to_node, n.mean, n.cov, n.moments, n.controls):
                digest.update(np.asarray(part, dtype=np.float64).tobytes())
            digest.update(np.int64(n.parent).tobytes())
    assert digest.hexdigest() == "f8bd8adab0bfa963b3d78d166c3559e7c66012e578471ca2ccca083128f91d59"


@pytest.mark.parametrize("seed", [3, 17])
def test_reference_twins_grow_the_same_tree(dubins_reduced, seed, monkeypatch):
    """The twins from `reference`, in place of the six C entry points, give every node bit for bit."""
    args = (parse_environment(presets.PLANNER_ENV), dubins_reduced, presets.planner_noise(), 0.1, 100, seed)
    compiled = build_rrt(*args)
    use_kernel_twins(monkeypatch)
    twins = build_rrt(*args)
    assert twins.goal_node == compiled.goal_node
    assert len(twins.nodes) == len(compiled.nodes) > 1
    for a, b in zip(twins.nodes, compiled.nodes):
        assert (a.pose, a.risk_to_node, a.parent) == (b.pose, b.risk_to_node, b.parent)
        for x, y in ((a.mean, b.mean), (a.cov, b.cov), (a.moments, b.moments)):
            assert np.array_equal(x.view(np.int64), y.view(np.int64))


def test_one_draw_per_tree_equals_three_scalar_draws_per_iteration():
    """build_rrt's (iterations, 3) draw gives, row by row, the doubles of three scalar draws per iteration."""
    xmin, ymin, xmax, ymax = parse_environment(presets.PLANNER_ENV).bounds
    for seed in range(200):
        rng = np.random.Generator(np.random.PCG64(seed))
        scalar = [(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax), rng.uniform(-math.pi, math.pi)) for _ in range(100)]
        rng = np.random.Generator(np.random.PCG64(seed))
        block = rng.uniform((xmin, ymin, -math.pi), (xmax, ymax, math.pi), size=(100, 3))
        assert np.array_equal(block.view(np.int64), np.array(scalar).view(np.int64)), (
            f"seed {seed}: numpy's array uniform draw no longer equals its scalar draws, so every planner tree changes"
        )


def _node_bytes(result) -> bytes:
    """Every node's pose, bound, moments, controls and parent, as bytes."""
    parts = ((n.pose, n.risk_to_node, n.moments, n.controls, n.parent) for n in result.nodes)
    return b"".join(np.asarray(part, dtype=np.float64).tobytes() for node in parts for part in node)


def _entropy(seed: int) -> bytes:
    """A seed's little-endian uint32 words, as `build_rrt` passes them to `_kernels.uniform_samples`."""
    return seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little")


def test_c_draw_equals_numpys_generator():
    """`_kernels.uniform_samples` gives numpy's `Generator(PCG64(seed)).uniform` draw bit for bit: edge seeds, 2,000
    random 32-bit seeds, 200 random seeds of 33-300 bits, and no samples at all."""
    low, high = np.array([-1.5, 0.25, -math.pi]), np.array([3.0, 0.25, math.pi])  # a zero-width column too
    r = random.Random(20)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 10**40] + [r.getrandbits(32) for _ in range(2000)]
    seeds += [r.getrandbits(bits) | 1 << (bits - 1) for bits in (r.randint(33, 300) for _ in range(200))]
    for i, seed in enumerate(seeds):
        n = (0, 1, 7, 100)[i % 4]
        out = np.full((n, 3), np.nan)
        assert _kernels.uniform_samples(_entropy(seed), low, high, out) is None
        expected = np.random.Generator(np.random.PCG64(seed)).uniform(low, high, size=(n, 3))
        assert out.tobytes() == expected.tobytes(), seed


@pytest.mark.parametrize("bad, error, message", [
    (-1, ValueError, "^expected non-negative integer$"),
    (None, TypeError, "cannot be interpreted as an integer"),
    (1.0, TypeError, "cannot be interpreted as an integer"),
    ([1, 2], TypeError, "cannot be interpreted as an integer"),
])
def test_tree_seed_is_a_non_negative_integer(dubins_reduced, bad, error, message):
    """numpy integers and Python bools pass through `operator.index`; OS entropy (None) and sequences of ints do not."""
    env = parse_environment(presets.PLANNER_ENV)
    with pytest.raises(error, match=message):
        build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 10, bad)
    for seed, same in ((np.uint64(5), 5), (np.int32(5), 5), (True, 1)):
        a, b = (build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 30, s) for s in (seed, same))
        assert _node_bytes(a) == _node_bytes(b)


def test_uniform_samples_rejects_bad_arguments():
    word, low, high = b"\0" * 4, np.zeros(3), np.ones(3)
    read_only = np.empty((2, 3))
    read_only.flags.writeable = False
    cases = {
        "no entropy": ((b"", low, high, np.empty((2, 3))), ValueError),
        "a partial word": ((b"\0" * 5, low, high, np.empty((2, 3))), ValueError),
        "reversed bounds": ((word, high, low, np.empty((2, 3))), ValueError),
        "an infinite width": ((word, low, np.array([1.0, math.inf, 1.0]), np.empty((2, 3))), ValueError),
        "two columns out": ((word, low, high, np.empty((2, 2))), ValueError),
        "read-only out": ((word, low, high, read_only), ValueError),
        "float32 out": ((word, low, high, np.empty((2, 3), np.float32)), TypeError),
        "three arguments": ((word, low, high), TypeError),
    }
    for name, (args, error) in cases.items():
        with pytest.raises(error, match="^uniform_samples"):
            _kernels.uniform_samples(*args)


def test_tree_makes_no_generator_and_parses_names_once_per_system(monkeypatch):
    """`build_rrt` makes no Generator or PCG64 and one TreeNode per node.  The planner's facts about a system are
    found on its first tree: the second parses no moment name."""
    msys, env = presets.compile_dubins(), parse_environment(presets.PLANNER_ENV)
    counts = collections.Counter()
    tree_node, parse = planner.TreeNode, sysspec.parse_monomial
    monkeypatch.setattr(planner, "TreeNode", lambda *args: counts.update(["nodes"]) or tree_node(*args))
    for owner in (sysspec, compiler):
        monkeypatch.setattr(owner, "parse_monomial", lambda *args: counts.update(["parses"]) or parse(*args))
    for name in ("Generator", "PCG64"):
        monkeypatch.setattr(np.random, name, _never)
    first = build_rrt(env, msys, presets.planner_noise(), 0.1, 100, 3)
    assert counts == {"parses": 2, "nodes": len(first.nodes)}  # the heading's cosine and sine
    second = build_rrt(env, msys, presets.planner_noise(), 0.1, 100, 4)
    assert counts == {"parses": 2, "nodes": len(first.nodes) + len(second.nodes)} and len(second.nodes) > 10


def _goal_variant(env: Environment, goal) -> Environment:
    return Environment(env.bounds, env.start, goal, env.obstacles)


def test_goal_test_follows_math_hypot_where_libm_differs(dubins_reduced):
    """A goal disc whose radius is one arrival mean's `math.hypot` distance, where numpy's (libm's) `hypot` reads one
    ulp more, holds that node; one whose radius is libm's distance, where `math.hypot` reads one ulp more, does not.
    The tree itself does not depend on the goal."""
    env = parse_environment(presets.PLANNER_ENV)
    tree = build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 100, 5)
    i = len(tree.nodes) - 1
    ex, ey = tree.nodes[i].mean.tolist()
    r = np.random.default_rng(42)
    found = {}
    for _ in range(100_000):
        gx, gy = ex + r.uniform(-1e-3, 1e-3), ey + r.uniform(-1e-3, 1e-3)
        libm, python = float(np.hypot(ex - gx, ey - gy)), math.hypot(ex - gx, ey - gy)
        if libm != python:
            found.setdefault(libm > python, (gx, gy, min(libm, python)))
            if len(found) == 2:
                break
    else:  # where this platform's libm never reads one way of math.hypot, the band is never needed that way
        missing = [word for more, word in ((True, "exceeds"), (False, "falls short of")) if more not in found]
        pytest.skip(f"no offset in 100,000 draws where numpy's hypot {' or '.join(missing)} math.hypot")
    for libm_reads_more, goal in found.items():
        result = build_rrt(_goal_variant(env, goal), dubins_reduced, presets.planner_noise(), 0.1, 100, 5)
        assert _node_bytes(result) == _node_bytes(tree)
        assert result.goal_node == (i if libm_reads_more else None)


def test_goal_node_is_the_first_of_least_risk_in_the_disc(dubins_reduced):
    """Without obstacles every node's bound is 0.0: a disc around the whole workspace gives node 1."""
    env = Environment((0, 0, 2.5, 2.5), (0.3, 0.3, 0.0), (1.25, 1.25, 10.0))
    result = build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 50, 4)
    assert len(result.nodes) > 3 and {n.risk_to_node for n in result.nodes} == {0.0}
    assert result.goal_node == 1


@pytest.fixture(scope="module")
def small_run(dubins_reduced):
    env = parse_environment(presets.PLANNER_ENV)
    return build_rrt(
        env, dubins_reduced, presets.planner_noise(),
        epsilon=0.1, iterations=400, seed=11,
    )


class TestBuildRrt:
    def test_plan_found_with_risk_budget(self, small_run):
        assert small_run.found
        goal = small_run.nodes[small_run.goal_node]
        assert goal.risk_to_node <= 0.1

    def test_every_node_within_budget(self, small_run):
        assert all(n.risk_to_node <= 0.1 for n in small_run.nodes)
        assert small_run.nodes[0].risk_to_node == 0.0

    def test_risk_monotone_along_parents(self, small_run):
        for i, node in enumerate(small_run.nodes):
            if node.parent >= 0:
                assert node.risk_to_node >= small_run.nodes[node.parent].risk_to_node

    def test_deterministic_given_seed(self, dubins_reduced, small_run):
        env = parse_environment(presets.PLANNER_ENV)
        again = build_rrt(
            env, dubins_reduced, presets.planner_noise(),
            epsilon=0.1, iterations=400, seed=11,
        )
        assert len(again.nodes) == len(small_run.nodes)
        for a, b in zip(again.nodes, small_run.nodes):
            assert a.pose == b.pose
            assert a.risk_to_node == b.risk_to_node
        assert again.goal_node == small_run.goal_node

    def test_obstacle_free_environment(self, dubins_reduced):
        env = Environment((0, 0, 2.5, 2.5), (0.3, 0.3, 0.0), (2.1, 2.1, 0.3))
        result = build_rrt(
            env, dubins_reduced, presets.planner_noise(),
            epsilon=0.1, iterations=250, seed=4,
        )
        assert result.found
        assert {node.risk_to_node for node in result.nodes} == {0.0}

    def test_impossible_budget_gives_no_plan(self, dubins_reduced):
        env = parse_environment(presets.PLANNER_ENV)
        result = build_rrt(
            env, dubins_reduced, presets.planner_noise(),
            epsilon=1e-9, iterations=40, seed=11,
        )
        assert not result.found
        with pytest.raises(ValueError):
            result.path_indices()

    def test_epsilon_validation(self, dubins_reduced):
        env = parse_environment(presets.PLANNER_ENV)
        with pytest.raises(ValueError):
            build_rrt(env, dubins_reduced, presets.planner_noise(), 0.0, 1, 0)

    def test_csv_outputs(self, small_run):
        plan = plan_to_csv(small_run, {"seed": "11"})
        assert plan.splitlines()[1].startswith("node,x,y,heading,risk_to_node")
        tree = tree_to_csv(small_run)
        assert len(tree.splitlines()) == len(small_run.nodes)  # header + per-edge rows

    def test_rollout_collision_rare(self, small_run, dubins_spec):
        env = parse_environment(presets.PLANNER_ENV)
        freq = estimate_plan_collision(
            dubins_spec, presets.planner_noise(), env,
            small_run.path_controls(), n_rollouts=20_000, seed=9,
            steer_source="wt", initial_speed=0.05,
        )
        assert freq <= 0.1


def _never(*args, **kwargs):
    raise AssertionError("ran before the vehicle was checked")


@pytest.mark.parametrize("requirement", NOT_A_VEHICLE)
def test_build_rrt_rejects_other_vehicles_up_front(requirement, monkeypatch):
    spec = sysspec.parse_spec(NOT_A_VEHICLE[requirement])
    system = sysspec.trig_encode(spec)
    msys = compiler.compile_moment_system(system, system.target_moments)
    monkeypatch.setattr(planner, "propagate", _never)
    env = parse_environment(presets.PLANNER_ENV)
    with pytest.raises(ValueError, match=requirement):
        build_rrt(env, msys, spec.distributions, 0.1, 10, 0)


@pytest.mark.parametrize("iterations", [0, 10])
@pytest.mark.parametrize("missing", ["wt", "wv"])
def test_build_rrt_names_a_missing_distribution_before_steering(dubins_reduced, monkeypatch, missing, iterations):
    """The tree's one disturbance model is built before the first iteration, steered source or not."""
    monkeypatch.setattr(planner, "dubins_steer", _never)
    noise = {name: dist for name, dist in presets.planner_noise().items() if name != missing}
    env = parse_environment(presets.PLANNER_ENV)
    with pytest.raises(KeyError, match=f"no distribution given for disturbance '{missing}'"):
        build_rrt(env, dubins_reduced, noise, 0.1, iterations, 0)


@pytest.mark.parametrize("requirement", list(NOT_A_VEHICLE)[:3])
def test_plan_collision_rejects_other_vehicles_up_front(requirement, monkeypatch):
    spec = sysspec.parse_spec(NOT_A_VEHICLE[requirement])
    monkeypatch.setattr(planner, "rollouts", _never)
    env = parse_environment(presets.PLANNER_ENV)
    with pytest.raises(ValueError, match=requirement):
        estimate_plan_collision(spec, spec.distributions, env, np.zeros(5), 10, 0, "wt", 0.05)


def test_planner_config_has_three_fields():
    assert [f.name for f in dataclasses.fields(PlannerConfig)] == ["speed", "turn_radius", "max_edge_steps"]


INVALID_SETTINGS = {
    "speed 0": ("speed", 0.0),
    "speed -0.05": ("speed", -0.05),
    "speed nan": ("speed", math.nan),
    "speed inf": ("speed", math.inf),
    "turn radius 0": ("turn_radius", 0.0),
    "turn radius nan": ("turn_radius", math.nan),
    "max edge steps 0": ("max_edge_steps", 0),
    "max edge steps -5": ("max_edge_steps", -5),
    "max edge steps 2.5": ("max_edge_steps", 2.5),
    "max edge steps nan": ("max_edge_steps", math.nan),
    "max edge steps True": ("max_edge_steps", True),
}


@pytest.mark.parametrize("setting", INVALID_SETTINGS)
def test_planner_config_rejects_invalid_settings(setting):
    name, value = INVALID_SETTINGS[setting]
    with pytest.raises(ValueError, match=name.replace("_", " ")):
        PlannerConfig(**{name: value})


def test_planner_config_is_frozen():
    cfg = PlannerConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_edge_steps = 0
    assert cfg == PlannerConfig(0.05, 0.3, 40)


@pytest.mark.parametrize("setting", ["max edge steps 0", "speed inf", "turn radius 0"])
def test_build_rrt_raises_a_bad_setting_instead_of_reading_it_as_a_failed_steer(dubins_reduced, setting):
    """A setting forced past the frozen config's checks fails the first steer; it does not give a one-node tree."""
    cfg = PlannerConfig()
    name, value = INVALID_SETTINGS[setting]
    object.__setattr__(cfg, name, value)
    env = parse_environment(presets.PLANNER_ENV)
    with pytest.raises(ValueError, match="max steps|speed|radius"):
        build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 10, 0, cfg)


def test_build_rrt_rejects_negative_iterations_up_front(dubins_reduced, monkeypatch):
    monkeypatch.setattr(planner, "propagate", _never)
    env = parse_environment(presets.PLANNER_ENV)
    with pytest.raises(ValueError, match="iteration count"):
        build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, -1, 0)
    assert len(build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 0, 0).nodes) == 1


@pytest.mark.parametrize("iterations", [2.5, "3", True])
def test_build_rrt_names_a_non_integer_iteration_count(dubins_reduced, monkeypatch, iterations):
    """As max_edge_steps is checked: a float, a string or a bool is not a count, and nothing runs."""
    monkeypatch.setattr(planner, "propagate", _never)
    env = parse_environment(presets.PLANNER_ENV)
    message = "^" + re.escape(f"iteration count must be an integer of at least 0, got {iterations!r}") + "$"
    with pytest.raises(ValueError, match=message):
        build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, iterations, 0)


class TestPlanCollision:
    NOISY = {"wv": Gaussian(0.0, 1e-4), "wt": Gaussian(0.0, 0.05)}

    def test_golden_frequency(self, dubins_spec):
        # Recorded from the batched loop before it moved into the shared
        # rollout engine; 1,234 does not divide 3,000.
        env = parse_environment(presets.PLANNER_ENV)
        freq = estimate_plan_collision(
            dubins_spec, self.NOISY, env, np.full(30, 0.02), 3000, 3, "wt", 0.05,
            batch_size=1234,
        )
        assert freq == 647 / 3000

    def test_unknown_steer_source_rejected(self, dubins_spec):
        env = parse_environment(presets.PLANNER_ENV)
        with pytest.raises(KeyError, match="nope"):
            estimate_plan_collision(
                dubins_spec, self.NOISY, env, np.full(30, 0.02), 100, 3, "nope", 0.05
            )


def test_plan_collision_rejects_a_steer_source_the_planner_does_not_steer(dubins_spec):
    """Shifting the speed noise by heading increments is an error naming both disturbances; an unknown name is a
    KeyError (`TestPlanCollision`)."""
    env = parse_environment(presets.PLANNER_ENV)
    with pytest.raises(ValueError, match="^the planner steers disturbance 'wt', not 'wv'$"):
        estimate_plan_collision(dubins_spec, presets.planner_noise(), env, np.full(40, 0.05), 200, 1, "wv", 0.05)


@pytest.mark.parametrize("n_rollouts", [100.5, True, 0])
def test_plan_collision_names_a_rollout_count_that_is_not_a_count(dubins_spec, n_rollouts):
    """The rollout engine checks the count: no ZeroDivisionError for 0, no single rollout for True."""
    env = parse_environment(presets.PLANNER_ENV)
    message = "^" + re.escape(f"sample count must be an integer of at least 1, got {n_rollouts!r}") + "$"
    with pytest.raises(ValueError, match=message):
        estimate_plan_collision(
            dubins_spec, TestPlanCollision.NOISY, env, np.full(30, 0.02), n_rollouts, 3, "wt", 0.05
        )
