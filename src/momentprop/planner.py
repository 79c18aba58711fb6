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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import sysspec
from .compiler import MomentStateSystem
from .distmoments import DisturbanceModel, Distribution
from .oracle import rollouts
from .propagator import MomentState, MomentTrajectory, PropagationError, init_deterministic, mean_cov, propagate
from .sysspec import SystemSpec


# -- geometry -----------------------------------------------------------------


@dataclass(frozen=True)
class Polytope:
    """Convex obstacle as an intersection of half-spaces a.p + b <= 0."""

    halfspaces: tuple[tuple[tuple[float, float], float], ...]

    def __post_init__(self):
        if len(self.halfspaces) < 3:
            raise ValueError("bounded obstacles need at least three half-spaces")
        for (ax, ay), _ in self.halfspaces:
            if ax * ax + ay * ay == 0.0:
                raise ValueError("degenerate half-space normal")

    @classmethod
    def from_vertices(cls, vertices: Sequence[tuple[float, float]]) -> "Polytope":
        """Build from a counterclockwise vertex list (unit outward normals)."""
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
        return cls(tuple(halfspaces))

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
        """Face rows ax, ay, b, ax*ax, 2*ax*ay, ay*ay of all obstacles, and each one's first column."""
        faces = [
            (ax, ay, b, ax * ax, 2.0 * ax * ay, ay * ay)
            for obs in self.obstacles
            for (ax, ay), b in obs.halfspaces
        ]
        starts = np.cumsum([0] + [len(obs.halfspaces) for obs in self.obstacles[:-1]])
        return np.array(faces, dtype=float).T, starts


def parse_environment(text: str) -> Environment:
    """Parse the line-oriented environment format.

    Lines: `bounds xmin ymin xmax ymax`, `start x y heading`,
    `goal x y radius`, and one `obstacle x1 y1 x2 y2 ...` per polygon
    (counterclockwise winding).  '#' starts a comment.
    """
    bounds = start = goal = None
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
        if head == "bounds" and len(values) == 4:
            bounds = tuple(values)
        elif head == "start" and len(values) == 3:
            start = tuple(values)
        elif head == "goal" and len(values) == 3:
            goal = tuple(values)
        elif head == "obstacle" and len(values) >= 6 and len(values) % 2 == 0:
            vertices = list(zip(values[::2], values[1::2]))
            obstacles.append(Polytope.from_vertices(vertices))
        else:
            raise ValueError(f"environment line {line_no}: bad declaration {head!r}")
    if bounds is None or start is None or goal is None:
        raise ValueError("environment needs 'bounds', 'start' and 'goal' lines")
    return Environment(bounds, start, goal, tuple(obstacles))


# -- risk bounds ----------------------------------------------------------------


def cantelli_bound(mean: float, variance: float) -> float:
    """One-sided tail bound on P(g <= 0) from the mean and variance of g.

    Valid for every distribution with these two moments.  The bound is 1
    when the mean is negative (the average case already violates), and the
    zero-mean zero-variance corner is defined as 0.
    """
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    if mean < 0:
        return 1.0
    if variance == 0.0:
        return 0.0
    return variance / (variance + mean * mean)


def obstacle_risk(mu: np.ndarray, sigma: np.ndarray, obstacle: Polytope) -> float:
    """Upper bound on P(position inside obstacle): least risky face wins."""
    best = 1.0
    for (ax, ay), b in obstacle.halfspaces:
        mean = ax * mu[0] + ay * mu[1] + b
        var = (
            ax * ax * sigma[0, 0]
            + 2.0 * ax * ay * sigma[0, 1]
            + ay * ay * sigma[1, 1]
        )
        best = min(best, cantelli_bound(mean, max(var, 0.0)))
    return best


def trajectory_risk(traj: MomentTrajectory, env: Environment, position=("x", "y")) -> float:
    """Union bound over steps t = 1..T and obstacles; may exceed 1.

    Equals summing :func:`obstacle_risk` step by step, then obstacle by
    obstacle, left to right: the bounds of all steps and faces come from one
    array expression that keeps the scalar association order and the rules
    of :func:`cantelli_bound`, and the total is a sequential cumulative sum.
    """
    if not env.obstacles:
        return 0.0
    means, covs = mean_cov(traj, position)
    (ax, ay, b, axx, axy2, ayy), starts = env._faces
    mu0, mu1 = means[1:, 0:1], means[1:, 1:2]
    s00, s01, s11 = covs[1:, 0, 0:1], covs[1:, 0, 1:2], covs[1:, 1, 1:2]
    mean = ax * mu0 + ay * mu1 + b
    var = np.maximum(axx * s00 + axy2 * s01 + ayy * s11, 0.0)
    bound = np.divide(var, var + mean * mean, out=np.zeros_like(var), where=var != 0.0)
    bound[mean < 0] = 1.0
    # Least risky face per obstacle; fmin skips NaN as min(1.0, ...) over faces does.
    risks = np.fmin(np.fmin.reduceat(bound, starts, axis=1), 1.0)
    return float(np.cumsum(risks)[-1]) if risks.size else 0.0


# -- deterministic shortest bounded-curvature paths -------------------------------


def _mod2pi(angle: float) -> float:
    return angle % (2.0 * math.pi)


_GEOM_EPS = 1e-9


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
        return sum(length for _, length in self.segments)


def dubins_shortest_path(
    from_pose: Sequence[float], to_pose: Sequence[float], radius: float
) -> DubinsPath:
    """Shortest of the six standard word types between planar poses."""
    if radius <= 0:
        raise ValueError("turn radius must be positive")
    x0, y0, h0 = from_pose
    x1, y1, h1 = to_pose
    dx, dy = x1 - x0, y1 - y0
    dist = math.hypot(dx, dy)
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
        raise ValueError("no feasible bounded-curvature path")
    _, t, p, q, word = best
    segments = []
    for mode, n_units in zip(word, (t, p, q)):
        length = n_units * radius
        if length > 1e-12:
            segments.append((mode, length))
    return DubinsPath(tuple(segments), radius)


def simulate_controls(
    pose: Sequence[float], controls: np.ndarray, speed: float
) -> np.ndarray:
    """Discrete rollout of the noise-free unicycle: returns poses, t = 0..N."""
    out = np.empty((len(controls) + 1, 3))
    out[0] = pose
    x, y, h = pose
    for k, u in enumerate(controls):
        x += speed * math.cos(h)
        y += speed * math.sin(h)
        h += u
        out[k + 1] = (x, y, h)
    return out


def dubins_steer(
    from_pose: Sequence[float],
    to_pose: Sequence[float],
    speed: float,
    radius: float,
) -> np.ndarray:
    """Per-step heading increments tracking the shortest path at constant speed.

    Step count is ceil(length / speed); increments are bounded by
    speed / radius.  Returns an empty array when the poses coincide.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    path = dubins_shortest_path(from_pose, to_pose, radius)
    length = path.length
    if length <= 1e-12:
        return np.zeros(0)
    n_steps = max(1, math.ceil(length / speed))
    # Heading at each step's arc length s, segment by segment: each segment
    # turns by min(remaining s, its length) / radius.
    s = np.minimum(np.arange(n_steps + 1) * speed, length)
    headings = np.full(n_steps + 1, float(from_pose[2]))
    for mode, seg_length in path.segments:
        take = np.minimum(s, seg_length)
        if mode == "L":
            headings = headings + take / radius
        elif mode == "R":
            headings = headings - take / radius
        s = s - take
    return np.diff(headings)


# -- stochastic steering -----------------------------------------------------------


def steered_disturbance(msys: MomentStateSystem, name: str | None = None) -> str:
    """The disturbance that steering offsets (the angular noise source)."""
    sources = [p.source for p in msys.dist_pairs if p.source is not None]
    if name is not None:
        if name not in sources:
            raise KeyError(f"{name!r} is not an angular disturbance of this system")
        return name
    if len(sources) != 1:
        raise ValueError(
            f"system has {len(sources)} angular disturbances; name the steered one explicitly"
        )
    return sources[0]


def stochastic_steer(
    state: MomentState,
    controls: np.ndarray,
    msys: MomentStateSystem,
    distributions: Mapping[str, Distribution],
    steer_source: str | None = None,
) -> MomentTrajectory:
    """Propagate moments along an edge, offsetting the angular noise by the controls.

    The control schedule is edge-local: its first entry applies to the first
    step out of `state` regardless of how many steps led up to it.
    """
    source = steered_disturbance(msys, steer_source)
    model = DisturbanceModel(msys, distributions, shifts={source: np.asarray(controls, dtype=float)})
    edge_start = MomentState(state.values, 0)
    return propagate(msys, edge_start, model, len(controls))


# -- tree construction ---------------------------------------------------------------


@dataclass
class PlannerConfig:
    """Steering and sampling parameters (none are dictated by the math).

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
    heading_weight: float | None = None  # defaults to turn_radius
    initial_speed: float | None = None  # defaults to speed

    def weight(self) -> float:
        return self.turn_radius if self.heading_weight is None else self.heading_weight


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
    iterations: int
    seed: int
    epsilon: float

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


def _angle_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2.0 * math.pi))


def build_rrt(
    env: Environment,
    msys: MomentStateSystem,
    distributions: Mapping[str, Distribution],
    epsilon: float,
    iterations: int,
    seed: int,
    config: PlannerConfig | None = None,
    steer_source: str | None = None,
) -> RrtResult:
    """Grow a risk-bounded tree; deterministic for a fixed seed.

    A candidate edge is accepted only when (edge risk bound) + (risk to its
    parent) <= epsilon; accepted nodes store the arrival mean, covariance
    and accumulated bound.  The returned goal node, when found, is the
    accepted node with the smallest bound whose mean position lies inside
    the goal disc.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("chance constraint must lie in (0, 1)")
    cfg = config or PlannerConfig()
    rng = np.random.Generator(np.random.PCG64(seed))
    xmin, ymin, xmax, ymax = env.bounds
    gx, gy, g_radius = env.goal

    v0 = cfg.speed if cfg.initial_speed is None else cfg.initial_speed
    sx, sy, sh = env.start
    root_state = init_deterministic(
        msys, {"x": sx, "y": sy, "v": v0, **_heading_init(msys, sh)}
    )
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
    goal_node: int | None = None

    for _ in range(iterations):
        sample = (
            rng.uniform(xmin, xmax),
            rng.uniform(ymin, ymax),
            rng.uniform(-math.pi, math.pi),
        )
        weight = cfg.weight()
        nearest = min(
            range(len(nodes)),
            key=lambda i: math.hypot(sample[0] - nodes[i].pose[0], sample[1] - nodes[i].pose[1])
            + weight * _angle_diff(sample[2], nodes[i].pose[2]),
        )
        parent = nodes[nearest]
        try:
            controls = dubins_steer(parent.pose, sample, cfg.speed, cfg.turn_radius)
        except ValueError:
            continue
        if len(controls) == 0:
            continue
        controls = controls[: cfg.max_edge_steps]
        try:
            traj = stochastic_steer(parent.moment_state, controls, msys, distributions, steer_source)
        except PropagationError:
            continue
        edge_risk = trajectory_risk(traj, env)
        new_risk = parent.risk_to_node + edge_risk
        if new_risk > epsilon:
            continue
        means, covs = mean_cov(traj, ("x", "y"))
        heading = _heading_mean(msys, traj)
        node = TreeNode(
            pose=(float(means[-1, 0]), float(means[-1, 1]), heading),
            moment_state=traj.state(traj.n_steps),
            risk_to_node=new_risk,
            parent=nearest,
            controls=controls,
            mean=means[-1],
            cov=covs[-1],
        )
        nodes.append(node)
        if math.hypot(node.mean[0] - gx, node.mean[1] - gy) <= g_radius:
            if goal_node is None or new_risk < nodes[goal_node].risk_to_node:
                goal_node = len(nodes) - 1
    return RrtResult(nodes, goal_node, iterations, seed, epsilon)


def _heading_init(msys: MomentStateSystem, heading: float) -> dict[str, float]:
    if not msys.state_pairs:
        return {}
    pair = msys.state_pairs[0]
    if pair.source is not None:
        return {pair.source: heading}
    return {pair.cos_var: math.cos(heading), pair.sin_var: math.sin(heading)}


def _heading_mean(msys: MomentStateSystem, traj: MomentTrajectory) -> float:
    """Mean heading at arrival, recovered as atan2(E[sin], E[cos])."""
    pair = msys.state_pairs[0]
    c = traj.moment_series(pair.cos_var)[-1]
    s = traj.moment_series(pair.sin_var)[-1]
    return math.atan2(s, c)


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
    any step after the start.  An unknown `steer_source` raises KeyError.
    """
    sx, sy, sh = env.start
    x0 = {"x": sx, "y": sy, "v": initial_speed}
    for name in spec.angle_vars:
        x0[name] = sh
    model = DisturbanceModel(sysspec.trig_encode(spec), distributions, {steer_source: controls})
    hit_count = 0
    for nb, states in rollouts(spec, model, x0, len(controls), n_rollouts, seed, batch_size):
        collided = np.zeros(nb, dtype=bool)
        for state in itertools.islice(states, 1, None):
            for obs in env.obstacles:
                collided |= obs.contains(state["x"], state["y"])
        hit_count += int(np.sum(collided))
    return hit_count / n_rollouts


def plan_to_csv(result: RrtResult, metadata: Mapping[str, str] | None = None) -> str:
    """CSV of the root-to-goal path: pose, accumulated bound, mean and covariance."""
    lines = [f"# {k}: {v}" for k, v in (metadata or {}).items()]
    lines.append("node,x,y,heading,risk_to_node,mu_x,mu_y,sigma_xx,sigma_xy,sigma_yy")
    for i in result.path_indices():
        n = result.nodes[i]
        lines.append(
            f"{i},{n.pose[0]:.17g},{n.pose[1]:.17g},{n.pose[2]:.17g},{n.risk_to_node:.17g},"
            f"{n.mean[0]:.17g},{n.mean[1]:.17g},"
            f"{n.cov[0, 0]:.17g},{n.cov[0, 1]:.17g},{n.cov[1, 1]:.17g}"
        )
    return "\n".join(lines) + "\n"


def tree_to_csv(result: RrtResult) -> str:
    """Edge list (parent and child poses) for external plotting."""
    lines = ["parent,child,x_parent,y_parent,x_child,y_child"]
    for parent, child in result.edges():
        p, c = result.nodes[parent], result.nodes[child]
        lines.append(
            f"{parent},{child},{p.pose[0]:.17g},{p.pose[1]:.17g},{c.pose[0]:.17g},{c.pose[1]:.17g}"
        )
    return "\n".join(lines) + "\n"
