"""Risk-bounded RRT with moments propagated through the nonlinear dynamics.

Plans through a compact cluttered workspace under small actuation noise
(N(0, 1e-8) on both channels) with a 0.1 chance constraint for the whole
open-loop horizon, then validates the plan with Monte Carlo rollouts of
the original trigonometric dynamics.  Writes a PNG of the tree and path
if matplotlib is available.
"""

import numpy as np

from momentprop import planner, presets

EPSILON = 0.1
SEED = 11

env = planner.parse_environment(presets.PLANNER_ENV)
msys = presets.compile_dubins()
noise = presets.planner_noise()

result = planner.build_rrt(env, msys, noise, epsilon=EPSILON, iterations=400, seed=SEED)
print(f"tree: {len(result.nodes)} nodes, plan found: {result.found}")
if not result.found:
    raise SystemExit("increase the iteration budget")

path = result.path_indices()
print(f"\npath with {len(path)} nodes (accumulated risk bound <= {EPSILON}):")
for i in path:
    n = result.nodes[i]
    sd = np.sqrt(max(n.cov[0, 0], n.cov[1, 1], 0.0))
    print(
        f"  node {i:3d}: ({n.pose[0]:5.2f}, {n.pose[1]:5.2f}, {n.pose[2]:+5.2f} rad) "
        f"bound {n.risk_to_node:.4f}  position sd {sd:.2e}"
    )

controls = result.path_controls()
freq = planner.estimate_plan_collision(
    presets.dubins_spec(), noise, env, controls,
    n_rollouts=100_000, seed=5, steer_source="wt", initial_speed=0.05,
)
print(f"\nopen-loop schedule: {len(controls)} steps")
print(f"Monte Carlo collision frequency (100k rollouts): {freq:.2e} <= {EPSILON}")

# The plotted geometry, computed whether or not matplotlib is installed.
edges = [(result.nodes[parent].pose, result.nodes[child].pose) for parent, child in result.edges()]
px = [result.nodes[i].pose[0] for i in path]
py = [result.nodes[i].pose[1] for i in path]
# Obstacles are stored as half-spaces; redraw from the preset vertex lists.
obstacles = []
for raw in presets.PLANNER_ENV.splitlines():
    if raw.startswith("obstacle"):
        vals = [float(v) for v in raw.split()[1:]]
        obstacles.append(list(zip(vals[::2], vals[1::2])))
(gx, gy, gr), (sx, sy, _), (xmin, ymin, xmax, ymax) = env.goal, env.start, env.bounds

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    from matplotlib.patches import Circle, Polygon
except ImportError:
    print("matplotlib not installed; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(6, 6))
    for p, c in edges:
        ax.plot([p[0], c[0]], [p[1], c[1]], color="0.8", lw=0.8)
    ax.plot(px, py, "o-", color="tab:blue", lw=2, label="plan")
    for vertices in obstacles:
        ax.add_patch(Polygon(vertices, color="tab:red", alpha=0.4))
    ax.add_patch(Circle((gx, gy), gr, fill=False, color="tab:green", lw=2, label="goal"))
    ax.plot(sx, sy, "ks", label="start")
    ax.set_xlim(xmin, xmax)
    ax.set_ylim(ymin, ymax)
    ax.set_aspect("equal")
    ax.legend(loc="lower right")
    ax.set_title(f"risk-bounded tree (chance constraint {EPSILON})")
    fig.tight_layout()
    fig.savefig("risk_bounded_planning.png", dpi=120)
    print("wrote risk_bounded_planning.png")
