"""Ready-made planar unicycle (Dubins car) benchmark system.

The model has position (x, y), speed v and heading theta, with actuation
noise entering the speed and heading increments:

    x'     = x + v*cos(theta)
    y'     = y + v*sin(theta)
    v'     = v + wv
    theta' = theta + wt

Speed depends only on the wv history and the heading pair only on the wt
history, so v is declared independent of theta; x and y stay dependent on
everything.  Encoding replaces theta with the state pair (c, s) and wt with
the disturbance pair (cos wt, sin wt).
"""

from __future__ import annotations

from . import compiler, distmoments, sysspec

DUBINS_SPEC = """\
# Planar unicycle with actuation noise in speed and heading.
state x y v theta
angle theta
disturbance wv wt

dyn x'     = x + v*cos(theta)
dyn y'     = y + v*sin(theta)
dyn v'     = v + wv
dyn theta' = theta + wt

independent {v} {theta}

moments x y x*y x^2 y^2

dist wv = beta(10, 1000)
dist wt = gaussian(0.04, 0.03)
"""


def dubins_spec() -> sysspec.SystemSpec:
    return sysspec.parse_spec(DUBINS_SPEC)


def dubins_system() -> sysspec.PolynomialSystem:
    return sysspec.trig_encode(dubins_spec())


def compile_dubins(reduced: bool = True) -> compiler.MomentStateSystem:
    system = dubins_system()
    return compiler.compile_moment_system(system, system.target_moments, reduced=reduced)


def benchmark_noise() -> dict[str, distmoments.Distribution]:
    """Speed noise Beta(10, 1000), heading noise N(mean 0.04, variance 0.03)."""
    return dict(dubins_spec().distributions)


def planner_noise() -> dict[str, distmoments.Distribution]:
    """Small actuation noise N(0, 1e-8) on both channels, for planning demos."""
    return {
        "wv": distmoments.Gaussian(0.0, 1e-8),
        "wt": distmoments.Gaussian(0.0, 1e-8),
    }


PLANNER_ENV = """\
# Compact workspace: position variance grows cubically in the step count,
# so risk-bounded plans must stay within a few hundred steps.
bounds 0 0 2.5 2.5
start 0.3 0.3 0
goal 2.1 2.1 0.25
obstacle 0.8 0.8  1.4 0.8  1.4 1.4  0.8 1.4
obstacle 0.4 1.6  1.0 1.6  1.0 2.1  0.4 2.1
"""
