"""Tour of the three loss families: blocking curves, inversion, utilization."""

import math

from sliceforge import LossSpec, loss, utilization, utilization_integral, utilization_measure

ERLANG = LossSpec("erlang_b")
LINEAR = LossSpec("linear_clip")
EXP = LossSpec("exp_overflow")

# Blocking as a function of offered load at a fixed capacity of 5.
print("blocking at capacity 5")
print(f"{'rho':>6} {'erlang_b':>10} {'linear_clip':>12} {'exp_overflow':>13}")
for rho in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
    row = [float(loss(spec, rho, 5.0)) for spec in (ERLANG, LINEAR, EXP)]
    print(f"{rho:6.1f} {row[0]:10.5f} {row[1]:12.5f} {row[2]:13.5f}")

# erlang_b is continuous in the capacity argument, not just at integers.
print("\nerlang_b blocking at rho=4 for fractional capacities")
for cap in (3.0, 3.5, 4.0, 4.5, 5.0):
    print(f"  C={cap:3.1f}  B={float(loss(ERLANG, 4.0, cap)):.6f}")

# U(y, C) inverts the loss curve: the offered load that produces log-loss
# y = -log(1-B), times the survival probability -- i.e. the carried load.
y = 0.7
print(f"\nutilization U(y={y}, C=3)")
for spec in (ERLANG, LINEAR, EXP):
    print(f"  {spec.kind:12s} U = {utilization(spec, y, 3.0):.6f}")
print("  (linear_clip pins U = C for every y: carried load saturates at capacity)")

# H = Int_0^y U(z,C) dz drives the concave surrogate.  utilization_integral
# takes the log-loss y; utilization_measure takes the blocking probability
# B = 1-e^-y that the fixed point reports.  They are one computation, so the
# two parameterizations give the same area under the utilization curve.
b = -math.expm1(-y)
print(f"\nutilization integral to y={y} (equivalently B={b:.4f}), C=3")
for spec in (ERLANG, LINEAR, EXP):
    via_y = utilization_integral(spec, y, 3.0)
    via_b = utilization_measure(spec, b, 3.0)
    print(f"  {spec.kind:12s} H(y) {via_y:.8f}   H at B {via_b:.8f}   diff {abs(via_y - via_b):.1e}")
print(f"  (linear_clip equals C*y = {3.0 * y:g} exactly)")
