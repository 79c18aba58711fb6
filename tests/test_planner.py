import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentprop import _kernels, compiler, planner, presets, sysspec
from momentprop.distmoments import Degenerate, DisturbanceModel, Gaussian
from momentprop.planner import (
    Environment,
    PlannerConfig,
    Polytope,
    build_rrt,
    dubins_shortest_path,
    dubins_steer,
    estimate_plan_collision,
    parse_environment,
    plan_to_csv,
    simulate_controls,
    stochastic_steer,
    trajectory_risk,
    tree_to_csv,
)
from momentprop.propagator import MomentTrajectory, init_deterministic, mean_cov
from reference import cantelli_bound, obstacle_risk


UNIT_SQUARE = Polytope.from_vertices([(1, 1), (2, 1), (2, 2), (1, 2)])


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
        env = Environment((0, 0, 5, 5), (0, 0, 0), (4, 4, 0.5))
        state = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 1, "theta": 0})
        traj = stochastic_steer(state, np.zeros(3), dubins_reduced, presets.planner_noise())
        assert trajectory_risk(traj, env) == 0.0

    def test_summation_over_steps_and_obstacles(self, dubins_reduced):
        state = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 1, "theta": 0})
        traj = stochastic_steer(state, np.zeros(2), dubins_reduced, presets.planner_noise())
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
        traj = stochastic_steer(state, np.full(20, 0.02), dubins_reduced, presets.planner_noise())
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
            path = dubins_shortest_path(p0, p1, radius)
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
        # For a far-away aligned target the path is essentially straight.
        path = dubins_shortest_path((0, 0, 0), (10, 0, 0), 1.0)
        assert path.length == pytest.approx(10.0, abs=1e-9)


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
            assert planner._nearest(arr, sample, radius) == _scalar_nearest(arr.tolist(), sample, radius)

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
        assert planner._nearest(poses, sample, 0.3) == _scalar_nearest(poses.tolist(), sample, 0.3) == 0


class TestStochasticSteer:
    def test_zero_noise_tracks_deterministic_rollout(self, dubins_reduced):
        controls = dubins_steer((0, 0, 0), (1.5, 0.8, 0.3), 0.05, 0.5)
        noise = {"wv": Degenerate(0.0), "wt": Degenerate(0.0)}
        state = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 0.05, "theta": 0})
        traj = stochastic_steer(state, controls, dubins_reduced, noise)
        poses = simulate_controls((0, 0, 0), controls, 0.05)
        assert traj.moment_series("x") == pytest.approx(poses[:, 0], abs=1e-10)
        assert traj.moment_series("y") == pytest.approx(poses[:, 1], abs=1e-10)

    def test_small_noise_covariance_grows(self, dubins_reduced):
        state = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 0.05, "theta": 0})
        traj = stochastic_steer(state, np.zeros(50), dubins_reduced, presets.planner_noise())
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


def _per_requirement_table(self, requirements, n_steps, start=0):
    steps = np.arange(start, start + n_steps)
    table = np.empty((n_steps, len(requirements)))
    for j, beta_w in enumerate(requirements):
        table[:, j] = self.moment(beta_w, steps)
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
        for x, y in ((a.mean, b.mean), (a.cov, b.cov), (a.moment_state.values, b.moment_state.values)):
            assert np.array_equal(x, y)


def test_trees_match_golden_digest(dubins_reduced):
    """Every node of seeds 0-29 at 100 iterations, bit for bit as recorded."""
    env = parse_environment(presets.PLANNER_ENV)
    digest = hashlib.sha256()
    for seed in range(30):
        result = build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 100, seed)
        digest.update(np.int64(-1 if result.goal_node is None else result.goal_node).tobytes())
        for n in result.nodes:
            for part in (n.pose, n.risk_to_node, n.mean, n.cov, n.moment_state.values, n.controls):
                digest.update(np.asarray(part, dtype=np.float64).tobytes())
            digest.update(np.int64(n.parent).tobytes())
    assert digest.hexdigest() == "f8bd8adab0bfa963b3d78d166c3559e7c66012e578471ca2ccca083128f91d59"


@pytest.mark.skipif(_kernels.BACKEND != "c", reason="C backend not loaded")
@pytest.mark.parametrize("seed", [3, 17])
def test_python_fallback_grows_the_same_tree(dubins_reduced, seed, monkeypatch):
    """The Python propagation loop and risk bound give every node bit for bit as the C ones do."""
    args = (parse_environment(presets.PLANNER_ENV), dubins_reduced, presets.planner_noise(), 0.1, 100, seed)
    compiled = build_rrt(*args)
    monkeypatch.setattr(_kernels.shutil, "which", lambda name: None)
    _kernels._backend.cache_clear()
    try:
        assert _kernels.BACKEND == "python"
        fallback = build_rrt(*args)
    finally:
        monkeypatch.undo()
        _kernels._backend.cache_clear()
    assert fallback.goal_node == compiled.goal_node
    assert len(fallback.nodes) == len(compiled.nodes) > 1
    for a, b in zip(fallback.nodes, compiled.nodes):
        assert (a.pose, a.risk_to_node, a.parent) == (b.pose, b.risk_to_node, b.parent)
        for x, y in ((a.mean, b.mean), (a.cov, b.cov), (a.moment_state.values, b.moment_state.values)):
            assert np.array_equal(x.view(np.int64), y.view(np.int64))


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
        assert result.nodes[result.goal_node].risk_to_node == 0.0

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


def test_build_rrt_rejects_negative_iterations_up_front(dubins_reduced, monkeypatch):
    monkeypatch.setattr(planner, "propagate", _never)
    env = parse_environment(presets.PLANNER_ENV)
    with pytest.raises(ValueError, match="iteration count"):
        build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, -1, 0)
    assert len(build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 0, 0).nodes) == 1


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
