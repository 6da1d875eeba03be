"""Locating the BP instability of the 2D Ising model.

The symmetric message fixed point of the Ising network loses linear
stability at beta = log(2)/2 ~ 0.3466, where the dominant eigenvalue of
the message update map, 3*tanh(beta), crosses 1.  The script probes the
growth factor numerically across a range of couplings and bisects to the
threshold.  It also shows the loop-weight decay rate c(beta) =
-log(tanh(beta)) shrinking as beta grows toward the thermodynamic
critical point beta_c ~ 0.4407, which is what makes the series expansion
harder near criticality.

Run:  python3 demos/04_stability_and_criticality.py
"""

import math

from bptn.bp import stability_probe
from bptn.loops import enumerate_loops, evaluate_weights, loop_decay_profile
from bptn.models import (IsingParams, ising_network,
                         ising_paramagnetic_messages)


def growth(beta):
    p = IsingParams(L=4, beta=beta)
    tn = ising_network(p)
    ms = ising_paramagnetic_messages(p, tn)
    verdict, g = stability_probe(ms, seed=0)
    return verdict, g


print(f"{'beta':>6} {'growth':>10} {'3 tanh(beta)':>13} {'verdict':>12}")
for beta in (0.25, 0.30, 0.34, 0.36, 0.40):
    verdict, g = growth(beta)
    print(f"{beta:6.2f} {g:10.6f} {3 * math.tanh(beta):13.6f} {verdict:>12}")

lo, hi = 0.30, 0.40
while hi - lo > 5e-4:
    mid = 0.5 * (lo + hi)
    lo, hi = (mid, hi) if growth(mid)[1] < 1.0 else (lo, mid)
print(f"\ninstability bracketed in [{lo:.6f}, {hi:.6f}]; "
      f"log(2)/2 = {math.log(2) / 2:.6f}")

print(f"\n{'beta':>6} {'c_even(4)':>10}  (loop decay rate, smaller = slower)")
tn0 = ising_network(IsingParams(L=4, beta=0.2))
loops = enumerate_loops(tn0.graph, 6)
for beta in (0.20, 0.30, 0.40, 0.44):
    p = IsingParams(L=4, beta=beta)
    tn = ising_network(p)
    ms = ising_paramagnetic_messages(p, tn)
    rows, _ = loop_decay_profile(evaluate_weights(ms, loops))
    print(f"{beta:6.2f} {rows[0]['c_estimate']:10.6f}")
