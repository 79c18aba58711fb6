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
from .oracle import rollouts
from .polyring import _check_count, _is_count
from .propagator import MomentState, MomentTrajectory, PropagationError, central_second_moments, init_deterministic
from .propagator import propagate
from .sysspec import SystemSpec, TrigPair
from .tables import csv_text

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
        starts = np.cumsum([0] + [len(obs.halfspaces) for obs in self.obstacles[:-1]], dtype=np.int64)
        return np.ascontiguousarray(np.array(faces, dtype=float).T), starts


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
    obstacles = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split()
        try:
            values = [float(tok) for tok in rest]
        except ValueError:
            raise ValueError(f"environment line {line_no}: non-numeric value") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"environment line {line_no}: non-finite value")
        if head in singles:
            raise ValueError(f"environment line {line_no}: repeated {head!r} line")
        if head == "bounds" and len(values) == 4:
            xmin, ymin, xmax, ymax = values
            if not (0.0 < xmax - xmin < math.inf and 0.0 < ymax - ymin < math.inf):
                raise ValueError(f"environment line {line_no}: bounds need xmin < xmax and ymin < ymax with finite widths")
            singles[head] = tuple(values)
        elif head == "start" and len(values) == 3:
            singles[head] = tuple(values)
        elif head == "goal" and len(values) == 3:
            if values[2] <= 0.0:
                raise ValueError(f"environment line {line_no}: goal radius must be positive")
            singles[head] = tuple(values)
        elif head == "obstacle" and len(values) >= 6 and len(values) % 2 == 0:
            try:
                obstacles.append(Polytope.from_vertices(list(zip(values[::2], values[1::2]))))
            except ValueError as exc:
                raise ValueError(f"environment line {line_no}: {exc}") from None
        else:
            raise ValueError(f"environment line {line_no}: bad declaration {head!r}")
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
    if not env.obstacles:
        return 0.0
    faces, starts = env._faces
    values = np.ascontiguousarray(traj.values, dtype=np.float64)  # no copy for propagate's own trajectories
    return _kernels.risk_bound(values, traj.system.pair_positions(*POSITION), faces, starts)


# -- deterministic shortest bounded-curvature paths -------------------------------


def _mod2pi(angle: float) -> float:
    return angle % (2.0 * math.pi)


_GEOM_EPS = 1e-9


def _check_length(name: str, value: float) -> None:
    """Raise ValueError naming `name` unless value is positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


class InfeasiblePathError(ValueError):
    """No bounded-curvature word joins the two poses, as when a pose holds a NaN."""


def _relative(
    from_pose: Sequence[float], to_pose: Sequence[float], radius: float
) -> tuple[float, float, float, float, float]:
    """(dx, dy, hypot(dx, dy), h0, h1) of two poses, in floats: the steering kernels' view of them.

    Raises ValueError, naming the values, for an infinite coordinate or a
    distance that overflows when measured in turning radii.  A NaN passes:
    the kernels then find no word.
    """
    x0, y0, h0 = from_pose = tuple(map(float, from_pose))
    x1, y1, h1 = to_pose = tuple(map(float, to_pose))
    if any(map(math.isinf, (*from_pose, *to_pose))):
        raise ValueError(f"pose coordinates must not be infinite, got {from_pose} and {to_pose}")
    dx, dy = x1 - x0, y1 - y0
    dist = math.hypot(dx, dy)
    if math.isinf(dist / radius):
        raise ValueError(f"distance / radius must be finite, got {dist} / {radius}")
    return dx, dy, dist, h0, h1


def _dubins_words(alpha: float, beta: float, d: float):
    """Candidate (t, p, q, word) solutions in normalized units (radius 1)."""
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    c_ab = math.cos(alpha - beta)
    out = []

    p_sq = 2 + d * d - 2 * c_ab + 2 * d * (sa - sb)
    if p_sq >= -_GEOM_EPS:
        tmp = math.atan2(cb - ca, d + sa - sb)
        out.append((_mod2pi(-alpha + tmp), math.sqrt(max(p_sq, 0.0)), _mod2pi(beta - tmp), "LSL"))

    p_sq = 2 + d * d - 2 * c_ab + 2 * d * (sb - sa)
    if p_sq >= -_GEOM_EPS:
        tmp = math.atan2(ca - cb, d - sa + sb)
        out.append((_mod2pi(alpha - tmp), math.sqrt(max(p_sq, 0.0)), _mod2pi(-beta + tmp), "RSR"))

    p_sq = -2 + d * d + 2 * c_ab + 2 * d * (sa + sb)
    if p_sq >= -_GEOM_EPS:
        p = math.sqrt(max(p_sq, 0.0))
        tmp = math.atan2(-ca - cb, d + sa + sb) - math.atan2(-2.0, p)
        out.append((_mod2pi(-alpha + tmp), p, _mod2pi(-_mod2pi(beta) + tmp), "LSR"))

    p_sq = d * d - 2 + 2 * c_ab - 2 * d * (sa + sb)
    if p_sq >= -_GEOM_EPS:
        p = math.sqrt(max(p_sq, 0.0))
        tmp = math.atan2(ca + cb, d - sa - sb) - math.atan2(2.0, p)
        out.append((_mod2pi(alpha - tmp), p, _mod2pi(beta - tmp), "RSL"))

    tmp = (6.0 - d * d + 2 * c_ab + 2 * d * (sa - sb)) / 8.0
    if abs(tmp) <= 1.0:
        p = _mod2pi(2.0 * math.pi - math.acos(tmp))
        t = _mod2pi(alpha - math.atan2(ca - cb, d - sa + sb) + p / 2.0)
        out.append((t, p, _mod2pi(alpha - beta - t + p), "RLR"))

    tmp = (6.0 - d * d + 2 * c_ab + 2 * d * (sb - sa)) / 8.0
    if abs(tmp) <= 1.0:
        p = _mod2pi(2.0 * math.pi - math.acos(tmp))
        t = _mod2pi(-alpha + math.atan2(-ca + cb, d + sa - sb) + p / 2.0)
        out.append((t, p, _mod2pi(_mod2pi(beta) - alpha - t + p), "LRL"))
    return out


@dataclass(frozen=True)
class DubinsPath:
    """Shortest path as (mode, length) segments in real units."""

    segments: tuple[tuple[str, float], ...]
    radius: float

    @property
    def length(self) -> float:
        """Segment lengths added left to right, as the C steering adds them; sum() compensates from Python 3.12 on."""
        total = 0.0
        for _, length in self.segments:
            total += length
        return total


def _shortest_path(dx: float, dy: float, dist: float, h0: float, h1: float, radius: float) -> DubinsPath | None:
    """The first shortest word from `_relative`'s view of two poses, or None if no word is feasible."""
    d = dist / radius
    theta = math.atan2(dy, dx) if dist > 1e-12 else 0.0
    alpha = _mod2pi(h0 - theta)
    beta = _mod2pi(h1 - theta)
    best = None
    for t, p, q, word in _dubins_words(alpha, beta, d):
        cost = t + p + q
        if best is None or cost < best[0]:
            best = (cost, t, p, q, word)
    if best is None:
        return None
    _, t, p, q, word = best
    segments = []
    for mode, n_units in zip(word, (t, p, q)):
        length = n_units * radius
        if math.isinf(length):
            raise ValueError(f"path segment length must be finite, got {n_units} * {radius}")
        if length > 1e-12:
            segments.append((mode, length))
    return DubinsPath(tuple(segments), radius)


def dubins_shortest_path(
    from_pose: Sequence[float], to_pose: Sequence[float], radius: float
) -> DubinsPath:
    """Shortest of the six standard word types between planar poses.

    The radius must be positive and finite, the poses must hold no infinite
    coordinate, and their distance over the radius and each segment's length
    must be finite.  InfeasiblePathError (a ValueError) means no word joins
    the poses, as when one holds a NaN.
    """
    _check_length("radius", radius)
    path = _shortest_path(*_relative(from_pose, to_pose, radius), radius)
    if path is None:
        raise InfeasiblePathError("no feasible bounded-curvature path")
    return path


def dubins_steer(
    from_pose: Sequence[float],
    to_pose: Sequence[float],
    speed: float,
    radius: float,
    max_steps: int | float = math.inf,
) -> np.ndarray:
    """Per-step heading increments tracking the shortest path at constant speed.

    Step count is ceil(length / speed), of which only the first `max_steps`
    (an int of at least 1, or math.inf for no cap) are computed; increments
    are bounded by speed / radius.  Returns an empty array when the poses
    coincide.  Speed and radius must be positive and finite; the poses are
    read as floats, must hold no infinite coordinate, and their distance
    over the radius, each segment's length and the capped step count must be
    finite.  InfeasiblePathError (a ValueError) means no word joins the
    poses, as when one holds a NaN.
    `_kernels.dubins_steer` does the arithmetic, in C or in `_steer_python`.
    """
    _check_length("speed", speed)
    _check_length("radius", radius)
    if max_steps != math.inf and not _is_count(max_steps, 1):
        raise ValueError(f"max steps must be an integer of at least 1 or math.inf, got {max_steps!r}")
    controls = _kernels.dubins_steer(*_relative(from_pose, to_pose, radius), float(speed), float(radius), max_steps)
    if controls is None:
        raise InfeasiblePathError("no feasible bounded-curvature path")
    return controls


def _steer_python(dx, dy, dist, h0, h1, speed, radius, max_steps):
    """dubins_steer's arithmetic after its checks, or None if no word is feasible: the C steering's twin."""
    path = _shortest_path(dx, dy, dist, h0, h1, radius)
    if path is None:
        return None
    length = path.length
    if length <= 1e-12:
        return np.zeros(0)
    steps = min(length / speed, max_steps)  # capped before the count becomes an integer
    if math.isinf(steps):
        raise ValueError(f"step count must be finite, got length {length} / speed {speed}")
    n_steps = max(1, math.ceil(steps))
    # Heading at each step's arc length s, segment by segment: each segment
    # turns by min(remaining s, its length) / radius.
    s = np.minimum(np.arange(n_steps + 1) * speed, length)
    headings = np.full(n_steps + 1, h0)
    for mode, seg_length in path.segments:
        take = np.minimum(s, seg_length)
        if mode == "L":
            headings = headings + take / radius
        elif mode == "R":
            headings = headings - take / radius
        s = s - take
    return headings[1:] - headings[:-1]


def _nearest(poses: np.ndarray, sample: Sequence[float], radius: float) -> int:
    """First row of `poses` minimizing hypot(dx, dy) + radius * |remainder(dh, 2 pi)| to `sample`.

    `_kernels.nearest` scores every row with libm's hypot and fmod and returns
    the best row when no other scores within 1e-9 of it.  |fmod(dh, 2 pi)|
    folded onto [0, pi] is that remainder exactly (Sterbenz), but libm's hypot
    may differ from math.hypot by an ulp, so a near-tie band is settled here
    with the scalar key.  `poses` is a C-contiguous float64 (n, 3) array.
    A NaN score (from a non-finite pose, sample or radius) raises ValueError
    naming it.
    """
    x, y, h = sample
    near = _kernels.nearest(poses, x, y, h, radius)
    if near == []:
        if not math.isfinite(radius):
            raise ValueError(f"nearest-node radius must be finite, got {radius}")
        bad = [tuple(pose) for pose in (sample, *poses.tolist()) if not all(map(math.isfinite, pose))]
        raise ValueError(f"nearest-node poses must be finite, got {bad[0]}" if bad else "no poses to search")
    return near if isinstance(near, int) else min(
        near,
        key=lambda i: math.hypot(x - poses[i, 0], y - poses[i, 1])
        + radius * abs(math.remainder(h - poses[i, 2], 2.0 * math.pi)),
    )


def _nearest_python(poses, x, y, h, radius):
    """The C nearest-node scan's twin: the first best row if it is alone in the near-tie band, else the band."""
    dx, dy, dh = (np.array((x, y, h)) - poses).T
    a = np.abs(np.fmod(dh, 2.0 * math.pi))
    score = np.hypot(dx, dy) + radius * np.minimum(a, 2.0 * math.pi - a)
    near = (score <= score.min() * (1.0 + 1e-9)).nonzero()[0].tolist()
    return near[0] if len(near) == 1 else near


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
    distributions: Mapping[str, Distribution],
) -> MomentTrajectory:
    """Propagate moments along an edge, offsetting the angular noise by the controls.

    The control schedule is edge-local: its first entry applies to the first
    step out of `state` regardless of how many steps led up to it.
    """
    model = DisturbanceModel(msys, distributions, {steered_disturbance(msys): np.asarray(controls, dtype=float)})
    edge_start = MomentState(state.values, 0)
    return propagate(msys, edge_start, model, len(controls))


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


@dataclass
class RrtResult:
    nodes: list[TreeNode]
    goal_node: int | None

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

    A candidate edge is accepted only when (edge risk bound) + (risk to its
    parent) <= epsilon; accepted nodes store the arrival mean, covariance
    and accumulated bound.  The returned goal node, when found, is the
    accepted node with the smallest bound whose mean position lies inside
    the goal disc.  The system must be the planar vehicle: state x, y, v,
    one angle (the heading) and one angular disturbance (the steered one).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("chance constraint must lie in (0, 1)")
    _check_count("iteration count", iterations, 0)
    heading = _heading(msys.state_vars, msys.state_pairs)
    i_cos, i_sin = msys.moment_index(heading.cos_var), msys.moment_index(heading.sin_var)
    positions = msys.pair_positions(*POSITION)
    steered_disturbance(msys)  # stochastic_steer resolves it per edge; fail before the first
    cfg = config or PlannerConfig()
    rng = np.random.Generator(np.random.PCG64(seed))
    xmin, ymin, xmax, ymax = env.bounds
    gx, gy, g_radius = env.goal

    sx, sy, sh = env.start
    root_state = init_deterministic(msys, _start_state(env, heading, cfg.speed))
    root = TreeNode(
        pose=(sx, sy, sh),
        moment_state=root_state,
        risk_to_node=0.0,
        parent=-1,
        controls=np.zeros(0),
        mean=np.array([sx, sy]),
        cov=np.zeros((2, 2)),
    )
    nodes = [root]
    poses = np.empty((iterations + 1, 3))  # row i is nodes[i].pose
    poses[0] = root.pose
    goal_node: int | None = None

    for _ in range(iterations):
        sample = (
            rng.uniform(xmin, xmax),
            rng.uniform(ymin, ymax),
            rng.uniform(-math.pi, math.pi),
        )
        nearest = _nearest(poses[: len(nodes)], sample, cfg.turn_radius)
        parent = nodes[nearest]
        try:
            controls = dubins_steer(parent.pose, sample, cfg.speed, cfg.turn_radius, cfg.max_edge_steps)
        except InfeasiblePathError:
            continue
        if len(controls) == 0:
            continue
        try:
            traj = stochastic_steer(parent.moment_state, controls, msys, distributions)
        except PropagationError:
            continue
        edge_risk = trajectory_risk(traj, env)
        new_risk = parent.risk_to_node + edge_risk
        if new_risk > epsilon:
            continue
        arrival = traj.values[-1]
        mx, my, sxx, syy, sxy = central_second_moments(arrival, positions)
        # Mean heading at arrival, recovered as atan2(E[sin], E[cos]).
        mean_heading = math.atan2(arrival[i_sin], arrival[i_cos])
        node = TreeNode(
            pose=(float(mx), float(my), mean_heading),
            moment_state=traj.state(traj.n_steps),
            risk_to_node=new_risk,
            parent=nearest,
            controls=controls,
            mean=np.array([mx, my]),
            cov=np.array([[sxx, sxy], [sxy, syy]]),
        )
        poses[len(nodes)] = node.pose
        nodes.append(node)
        if math.hypot(node.mean[0] - gx, node.mean[1] - gy) <= g_radius:
            if goal_node is None or new_risk < nodes[goal_node].risk_to_node:
                goal_node = len(nodes) - 1
    return RrtResult(nodes, goal_node)


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
    batch_size: int = 100_000,
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
