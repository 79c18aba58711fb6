import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentprop import planner, presets
from momentprop.distmoments import Degenerate, DisturbanceModel, Gaussian
from momentprop.planner import (
    Environment,
    PlannerConfig,
    Polytope,
    build_rrt,
    cantelli_bound,
    dubins_shortest_path,
    dubins_steer,
    estimate_plan_collision,
    obstacle_risk,
    parse_environment,
    plan_to_csv,
    simulate_controls,
    stochastic_steer,
    trajectory_risk,
    tree_to_csv,
)
from momentprop.propagator import MomentTrajectory, init_deterministic, mean_cov


UNIT_SQUARE = Polytope.from_vertices([(1, 1), (2, 1), (2, 2), (1, 2)])


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


class TestDubinsSteer:
    def test_identical_poses_give_empty_controls(self):
        assert len(dubins_steer((1, 1, 0.5), (1, 1, 0.5), 0.1, 1.0)) == 0

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

    def test_path_length_is_shortest_of_words(self):
        # For a far-away aligned target the path is essentially straight.
        path = dubins_shortest_path((0, 0, 0), (10, 0, 0), 1.0)
        assert path.length == pytest.approx(10.0, abs=1e-9)


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
