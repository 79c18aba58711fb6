"""From a textual system spec to closed-form moment equations.

Walks the front half of the pipeline on the noisy planar unicycle:
parse, encode sines/cosines away, compile a complete moment basis, and
inspect the resulting exact update equations (including the affine form
of the un-reduced system).
"""

import numpy as np

from momentprop import compiler, distmoments, presets, sysspec

# 1. Parse the spec: four states, one of them an angle, two noise channels.
spec = sysspec.parse_spec(presets.DUBINS_SPEC)
print("state vars:      ", spec.state_vars)
print("angle vars:      ", spec.angle_vars)
print("disturbances:    ", spec.disturbance_vars)
print("independences OK:", sysspec.validate_independence(spec) == [])

# 2. Encode: theta becomes the pair (c_theta, s_theta), the angular noise wt
#    becomes the disturbance pair (c_wt, s_wt), and all dynamics turn polynomial.
system = sysspec.trig_encode(spec)
print("\nencoded state:   ", system.vars)
print("encoded noise:   ", system.dist_vars)
for name, poly in zip(system.vars, system.f):
    print(f"  {name}' = {poly}")

# 3. Compile. The seed asks for position means and second moments; the
#    completion search pulls in whatever else those moments depend on.
reduced = compiler.compile_moment_system(system, system.target_moments, reduced=True)
unreduced = compiler.compile_moment_system(system, system.target_moments, reduced=False)
print(f"\nreduced completion: {len(reduced.basis)} moments")
print(f"un-reduced:         {len(unreduced.basis)} moments")

print("\nexact update equations (reduced):")
print(compiler.render_equations(reduced))

# 4. The un-reduced system is affine in its moment state once disturbance
#    moments are fixed: extract m' = A m + b at the benchmark noise levels.
model = distmoments.DisturbanceModel(unreduced, presets.benchmark_noise())
row = model.moment_table(unreduced.dist_requirements, 1)[0]
values = dict(zip(unreduced.dist_requirements, row.tolist()))
A, b = compiler.ltv_matrices(unreduced, values)
eigs = np.sort(np.abs(np.linalg.eigvals(A)))
print(f"\naffine step map: A is {A.shape[0]}x{A.shape[1]}, largest |eig| = {eigs[-1]:.6f}")

# 5. The compiled artifact serializes to a small text file and round-trips.
text = compiler.dumps(reduced)
assert compiler.loads(text) == reduced
print(f"serialized form: {len(text.splitlines())} lines, round-trips losslessly")
