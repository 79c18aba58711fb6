"""Risk-bounded RRT over the stochastic planar unicycle.

Steering follows deterministic shortest bounded-curvature (Dubins) paths;
uncertainty is pushed along each edge with the compiled moment recursion,
and collision risk is bounded per step and per obstacle with the one-sided
mean/variance concentration inequality, summed by the union bound.  A node
is accepted only while the accumulated bound stays below the global chance
constraint.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import _kernels, sysspec
from .compiler import MomentStateSystem
from .distmoments import DisturbanceModel, Distribution
from .oracle import BATCH_SIZE, rollouts
from .polyring import _check_count, _is_count
from .propagator import MomentState, MomentTrajectory, central_second_moments, init_deterministic
from .propagator import propagate
from .sysspec import SystemSpec, TrigPair
from .tables import csv_text, text_lines

# The vehicle's state names; its heading is the spec's one angle.
POSITION = ("x", "y")
SPEED = "v"


# -- geometry -----------------------------------------------------------------


@dataclass(frozen=True)
class Polytope:
    """Convex obstacle as an intersection of half-spaces a.p + b <= 0."""

    halfspaces: tuple[tuple[tuple[float, float], float], ...]

    def __post_init__(self):
        if len(self.halfspaces) < 3:
            raise ValueError("bounded obstacles need at least three half-spaces")
        for (ax, ay), b in self.halfspaces:
            if not (ax * ax + ay * ay > 0.0 and math.isfinite(ax + ay + b)):
                raise ValueError("degenerate or non-finite half-space")

    @classmethod
    def from_vertices(cls, vertices: Sequence[tuple[float, float]]) -> "Polytope":
        """Build from a convex polygon's vertices, counterclockwise (unit outward normals).

        The polygon must have positive area.  Any other vertex list raises
        ValueError: its half-spaces would not bound the polygon, so `contains`
        and the risk bound would not see it.
        """
        if len(vertices) < 3:
            raise ValueError("polygon needs at least three vertices")
        halfspaces = []
        n = len(vertices)
        for i in range(n):
            x1, y1 = vertices[i]
            x2, y2 = vertices[(i + 1) % n]
            dx, dy = x2 - x1, y2 - y1
            norm = math.hypot(dx, dy)
            if norm == 0.0:
                raise ValueError("repeated polygon vertex")
            ax, ay = dy / norm, -dx / norm  # outward for ccw winding
            halfspaces.append(((ax, ay), -(ax * x1 + ay * y1)))
        polytope = cls(tuple(halfspaces))
        # The turn at each vertex, from one edge's normal to the next: a convex counterclockwise
        # polygon turns left (or goes straight on) at every vertex, by 2 pi in all.
        normals = [a for a, _ in halfspaces]
        turns = [math.atan2(ax1 * ay2 - ay1 * ax2, ax1 * ax2 + ay1 * ay2)
                 for (ax1, ay1), (ax2, ay2) in zip(normals, normals[1:] + normals[:1])]
        if min(turns) < -_GEOM_EPS or max(turns) > math.pi - _GEOM_EPS or sum(turns) > 3.0 * math.pi:
            raise ValueError("obstacle vertices must go counterclockwise around a convex polygon of positive area")
        return polytope

    def contains(self, x, y):
        """Pointwise membership; x, y may be arrays."""
        inside = True
        for (ax, ay), b in self.halfspaces:
            inside = inside & (ax * x + ay * y + b <= 0.0)
        return inside


@dataclass(frozen=True)
class Environment:
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    start: tuple[float, float, float]  # x, y, heading
    goal: tuple[float, float, float]  # x, y, radius
    obstacles: tuple[Polytope, ...] = ()

    def __post_init__(self):
        sx, sy, _ = self.start
        for obs in self.obstacles:
            if bool(obs.contains(sx, sy)):
                raise ValueError("start pose lies inside an obstacle")

    @cached_property
    def _faces(self) -> tuple[np.ndarray, np.ndarray]:
        """(6, F) table of all obstacles' faces (rows ax, ay, b, ax*ax, 2*ax*ay, ay*ay), and each one's first face."""
        faces = [
            (ax, ay, b, ax * ax, 2.0 * ax * ay, ay * ay)
            for obs in self.obstacles
            for (ax, ay), b in obs.halfspaces
        ]
        starts = np.cumsum([0] + [len(obs.halfspaces) for obs in self.obstacles], dtype=np.int64)[:-1]
        return np.ascontiguousarray(np.array(faces, dtype=float).reshape(-1, 6).T), starts


def parse_environment(text: str) -> Environment:
    """Parse the line-oriented environment format.

    Lines: `bounds xmin ymin xmax ymax`, `start x y heading`,
    `goal x y radius`, and one `obstacle x1 y1 x2 y2 ...` per convex
    polygon of positive area, its vertices counterclockwise.  '#' starts a
    comment.  Every value must be finite, the bounds must have positive,
    finite widths, the goal radius must be positive, and `bounds`, `start`
    and `goal` appear once each.
    """
    singles: dict[str, tuple[float, ...]] = {}
    counts = {"bounds": 4, "start": 3, "goal": 3}  # the values on each line that appears once
    obstacles = []
    for line_no, line in text_lines(text):
        head, *rest = line.split()
        try:
            values = [float(tok) for tok in rest]
        except ValueError:
            raise ValueError(f"environment line {line_no}: non-numeric value") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"environment line {line_no}: non-finite value")
        if head in singles:
            raise ValueError(f"environment line {line_no}: repeated {head!r} line")
        if head == "obstacle":
            if len(values) < 6 or len(values) % 2:
                raise ValueError(f"environment line {line_no}: 'obstacle' takes an even number of at least 6 values, "
                                 f"got {len(values)}")
            try:
                obstacles.append(Polytope.from_vertices(list(zip(values[::2], values[1::2]))))
            except ValueError as exc:
                raise ValueError(f"environment line {line_no}: {exc}") from None
        elif head not in counts:
            raise ValueError(f"environment line {line_no}: unknown declaration {head!r}")
        elif len(values) != counts[head]:
            raise ValueError(f"environment line {line_no}: {head!r} takes {counts[head]} values, got {len(values)}")
        elif head == "bounds" and not (0.0 < values[2] - values[0] < math.inf and 0.0 < values[3] - values[1] < math.inf):
            raise ValueError(f"environment line {line_no}: bounds need xmin < xmax and ymin < ymax with finite widths")
        elif head == "goal" and values[2] <= 0.0:
            raise ValueError(f"environment line {line_no}: goal radius must be positive")
        else:
            singles[head] = tuple(values)
    if len(singles) < 3:
        raise ValueError("environment needs 'bounds', 'start' and 'goal' lines")
    return Environment(singles["bounds"], singles["start"], singles["goal"], tuple(obstacles))


# -- risk bounds ----------------------------------------------------------------


def trajectory_risk(traj: MomentTrajectory, env: Environment) -> float:
    """Union bound over steps t = 1..T and obstacles; may exceed 1.

    Each step's position mean and covariance bound each obstacle face by the
    one-sided Cantelli inequality (1 for a negative mean, 0 for a zero
    variance); an obstacle takes its least risky face, and the bounds are
    summed step by step, then obstacle by obstacle, left to right.  One
    `_kernels.risk_bound` call does all of it.  The scalar loop in
    ``tests/reference.py`` (`cantelli_bound`, `obstacle_risk`) is the
    reference it equals bit for bit.
    """
    faces, starts = env._faces
    values = np.ascontiguousarray(traj.values, dtype=np.float64)  # no copy for propagate's own trajectories
    return _kernels.risk_bound(values, traj.system.pair_positions(*POSITION), faces, starts)


# -- deterministic shortest bounded-curvature paths -------------------------------


_GEOM_EPS = 1e-9


def _check_length(name: str, value: float) -> None:
    """Raise ValueError naming `name` unless value is positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


class InfeasiblePathError(ValueError):
    """No bounded-curvature word joins the two poses, as when a pose holds a NaN."""


def _check_steering(speed: float, radius: float, max_steps: int | float) -> None:
    """Raise ValueError, naming the value, unless speed and radius are positive and finite and max_steps is a count."""
    _check_length("speed", speed)
    _check_length("radius", radius)
    if max_steps != math.inf and not _is_count(max_steps, 1):
        raise ValueError(f"max steps must be an integer of at least 1 or math.inf, got {max_steps!r}")


def dubins_steer(
    from_pose: Sequence[float],
    to_pose: Sequence[float],
    speed: float,
    radius: float,
    max_steps: int | float = math.inf,
) -> np.ndarray:
    """Per-step heading increments tracking the shortest path at constant speed.

    The path is the first shortest of the six standard word types (LSL, RSR,
    LSR, RSL, RLR, LRL) between the poses, its length the segments' lengths
    added left to right.  Step count is ceil(length / speed), of which only
    the first `max_steps` (an int of at least 1, or math.inf for no cap) are
    computed; increments are bounded by speed / radius.  Returns an empty
    array when the poses coincide.  Speed and radius must be positive and
    finite; the poses are read as floats, must hold no infinite coordinate,
    and their distance over the radius, each segment's length and the capped
    step count must be finite.  InfeasiblePathError (a ValueError) means no
    word joins the poses, as when one holds a NaN.
    `_kernels.dubins_steer` does the pose checks, the word search and the
    arithmetic in C.
    """
    _check_steering(speed, radius, max_steps)
    x0, y0, h0 = map(float, from_pose)
    x1, y1, h1 = map(float, to_pose)
    controls = _kernels.dubins_steer(x0, y0, h0, x1, y1, h1, float(speed), float(radius), max_steps)
    if controls is None:
        raise InfeasiblePathError("no feasible bounded-curvature path")
    return controls


# -- stochastic steering -----------------------------------------------------------


def _heading(state_vars: Sequence[str], state_pairs: Sequence[TrigPair]) -> TrigPair:
    """The heading's (cos, sin) pair, once the state is checked to be the planar vehicle."""
    needed = (*POSITION, SPEED)
    missing = [name for name in needed if name not in state_vars]
    if missing:
        raise ValueError(f"the planner needs state variables {' '.join(needed)}; this spec lacks {', '.join(missing)}")
    if len(state_pairs) != 1:
        raise ValueError(f"the planner needs exactly one angle, the heading; this spec has {len(state_pairs)}")
    return state_pairs[0]


def _start_state(env: Environment, heading: TrigPair, speed: float) -> dict[str, float]:
    sx, sy, sh = env.start
    return {POSITION[0]: sx, POSITION[1]: sy, SPEED: speed, heading.source: sh}


def steered_disturbance(msys: MomentStateSystem) -> str:
    """The disturbance that steering offsets: the system's one angular noise source."""
    sources = {p.source for p in msys.dist_pairs} - {None}
    if len(sources) != 1:
        raise ValueError(f"the planner steers exactly one angular disturbance; this spec has {len(sources)}")
    return sources.pop()


def stochastic_steer(
    state: MomentState,
    controls: np.ndarray,
    msys: MomentStateSystem,
    model: DisturbanceModel,
) -> MomentTrajectory:
    """Propagate moments along an edge, offsetting the angular noise by the controls.

    The controls become `model`'s schedule for the steered disturbance,
    replacing any it held, so one model serves every edge of a tree.  The
    schedule is edge-local: its first entry applies to the first step out of
    `state` regardless of how many steps led up to it.
    """
    model.shifts[steered_disturbance(msys)] = np.ascontiguousarray(controls, dtype=float)
    return propagate(msys, MomentState(state.values, 0), model, len(controls))


# -- tree construction ---------------------------------------------------------------


@dataclass(frozen=True)
class PlannerConfig:
    """Steering and sampling parameters (none are dictated by the math); checked once, then frozen.

    The default speed keeps the discretized steering endpoint within the
    (0.05 m, 0.05 rad) tolerance; the endpoint offset of the forward-Euler
    polygon grows like 0.7 * speed on turning paths.  Note that position
    variance under speed noise grows cubically with the step count, so the
    summed risk bound of long multi-edge plans rises fast: workspaces
    should be sized so plans stay within a few hundred steps.
    """

    speed: float = 0.05  # distance per step
    turn_radius: float = 0.3
    max_edge_steps: int = 40

    def __post_init__(self):
        _check_length("speed", self.speed)
        _check_length("turn radius", self.turn_radius)
        _check_count("max edge steps", self.max_edge_steps, 1)


@dataclass
class TreeNode:
    pose: tuple[float, float, float]
    moment_state: MomentState
    risk_to_node: float
    parent: int  # -1 for the root
    controls: np.ndarray  # steering sequence of the incoming edge
    mean: np.ndarray  # position mean at arrival
    cov: np.ndarray  # position covariance at arrival


# The cause of each row of RrtResult.outcomes, by its code.
OUTCOMES = ("accepted", "no feasible path", "zero length", "non-finite moment", "over budget")


@dataclass
class RrtResult:
    nodes: list[TreeNode]
    goal_node: int | None
    outcomes: np.ndarray  # (iterations, 2) int64: per sample, its OUTCOMES code and the steps propagated

    @property
    def found(self) -> bool:
        return self.goal_node is not None

    def path_indices(self) -> list[int]:
        if self.goal_node is None:
            raise ValueError("no plan was found")
        out = []
        i = self.goal_node
        while i >= 0:
            out.append(i)
            i = self.nodes[i].parent
        return out[::-1]

    def path_controls(self) -> np.ndarray:
        """Full open-loop steering schedule from the root to the goal node."""
        chunks = [self.nodes[i].controls for i in self.path_indices()[1:]]
        return np.concatenate(chunks) if chunks else np.zeros(0)

    def edges(self) -> list[tuple[int, int]]:
        return [(node.parent, i) for i, node in enumerate(self.nodes) if node.parent >= 0]


def build_rrt(
    env: Environment,
    msys: MomentStateSystem,
    distributions: Mapping[str, Distribution],
    epsilon: float,
    iterations: int,
    seed: int,
    config: PlannerConfig | None = None,
) -> RrtResult:
    """Grow a risk-bounded tree; deterministic for a fixed seed.

    One `_kernels.grow_tree` call runs every iteration: the nearest node to a
    uniform sample, the Dubins controls towards it, and the edge's moments
    and risk bound, stopped where the parent's risk plus the bound passes
    epsilon.  It computes what `stochastic_steer` and `trajectory_risk`
    would, without calling them (the rows come from the tree's
    `DisturbanceModel.steering_plan`; Beta heading noise raises up front).
    Edges within epsilon become nodes, with the arrival mean, covariance and
    accumulated bound; `outcomes` says why each sample was taken or not
    (`OUTCOMES`).  The goal node, when found, is the first node of least
    bound whose mean position lies inside the goal disc.  The system must be
    the planar vehicle: state x, y, v, one angle (the heading) and one
    angular disturbance (the steered one).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("chance constraint must lie in (0, 1)")
    _check_count("iteration count", iterations, 0)
    heading = _heading(msys.state_vars, msys.state_pairs)
    positions = msys.pair_positions(*POSITION)
    tracked = np.array([*positions, msys.moment_index(heading.cos_var), msys.moment_index(heading.sin_var)])
    steered = steered_disturbance(msys)
    faces, starts = env._faces
    model = DisturbanceModel(msys, distributions)  # checks the distributions once per tree
    plan = model.steering_plan(msys.dist_requirements, steered)
    cfg = config or PlannerConfig()
    _check_steering(cfg.speed, cfg.turn_radius, cfg.max_edge_steps)
    rng = np.random.Generator(np.random.PCG64(seed))
    xmin, ymin, xmax, ymax = env.bounds
    # Row by row, the same doubles as three scalar draws (x, y, heading) per iteration.
    samples = rng.uniform((xmin, ymin, -math.pi), (xmax, ymax, math.pi), size=(iterations, 3))

    sx, sy, sh = env.start
    root_state = init_deterministic(msys, _start_state(env, heading, cfg.speed))
    table = np.empty((iterations + 1, 5 + len(msys.basis)))  # per node: pose, risk, parent, moments
    table[0, :5], table[0, 5:] = (sx, sy, sh, 0.0, -1.0), root_state.values
    outcomes = np.empty((iterations, 2), dtype=np.int64)
    controls = _kernels.grow_tree(samples, table, *msys.term_table, tracked, faces, starts, epsilon, cfg.speed,
                                  cfg.turn_radius, cfg.max_edge_steps, *plan, outcomes)
    arrivals = table[1 : len(controls) + 1, 5:]
    mx, my, sxx, syy, sxy = central_second_moments(arrivals, positions)
    means, covs = np.stack((mx, my), axis=1), np.stack((sxx, sxy, sxy, syy), axis=1).reshape(-1, 2, 2)
    nodes = [TreeNode((sx, sy, sh), root_state, 0.0, -1, np.zeros(0), np.array([sx, sy]), np.zeros((2, 2)))]
    gx, gy, g_radius = env.goal
    goal_node: int | None = None
    rows = zip(table[1 : len(controls) + 1, :5].tolist(), means.tolist(), arrivals, controls, means, covs)
    for i, ((x, y, h, risk, parent), (ex, ey), state, edge, mean, cov) in enumerate(rows, 1):
        nodes.append(TreeNode((x, y, h), MomentState(state, len(edge)), risk, int(parent), edge, mean, cov))
        if math.hypot(ex - gx, ey - gy) <= g_radius:
            if goal_node is None or risk < nodes[goal_node].risk_to_node:
                goal_node = i
    return RrtResult(nodes, goal_node, outcomes)


# -- plan validation & output -------------------------------------------------------


def estimate_plan_collision(
    spec: SystemSpec,
    distributions: Mapping[str, Distribution],
    env: Environment,
    controls: np.ndarray,
    n_rollouts: int,
    seed: int,
    steer_source: str,
    initial_speed: float,
    batch_size: int = BATCH_SIZE,
) -> float:
    """Empirical frequency of plan rollouts that touch any obstacle.

    Simulates the ORIGINAL trigonometric dynamics under the open-loop
    steering schedule, with the Monte Carlo oracle's rollout engine; a
    rollout counts as a collision when its position enters any obstacle at
    any step after the start.  The spec must hold x, y, v and one angle, as
    for :func:`build_rrt`; an unknown `steer_source` raises KeyError.
    """
    system = sysspec.trig_encode(spec)
    x0 = _start_state(env, _heading(system.vars, system.state_pairs), initial_speed)
    model = DisturbanceModel(system, distributions, {steer_source: controls})
    hit_count = 0
    for nb, states in rollouts(spec, model, x0, len(controls), n_rollouts, seed, batch_size):
        collided = np.zeros(nb, dtype=bool)
        for state, _ in itertools.islice(states, 1, None):
            for obs in env.obstacles:
                collided |= obs.contains(*(state[name] for name in POSITION))
        hit_count += int(np.sum(collided))
    return hit_count / n_rollouts


def plan_to_csv(result: RrtResult, metadata: Mapping[str, str] | None = None) -> str:
    """CSV of the root-to-goal path: pose, accumulated bound, mean and covariance."""
    header = "node,x,y,heading,risk_to_node,mu_x,mu_y,sigma_xx,sigma_xy,sigma_yy".split(",")
    path = [(i, result.nodes[i]) for i in result.path_indices()]
    rows = [(i, *n.pose, n.risk_to_node, *n.mean[:2], n.cov[0, 0], n.cov[0, 1], n.cov[1, 1]) for i, n in path]
    return csv_text(header, rows, metadata)


def tree_to_csv(result: RrtResult) -> str:
    """Edge list (parent and child poses) for external plotting."""
    pose = [node.pose for node in result.nodes]
    rows = [(p, c, pose[p][0], pose[p][1], pose[c][0], pose[c][1]) for p, c in result.edges()]
    return csv_text(["parent", "child", "x_parent", "y_parent", "x_child", "y_child"], rows)
