"""Loop-series corrections to the Bethe free energy of the 2D Ising model.

On the 4x4 torus at beta = 0.2 the uniform messages are an exact BP fixed
point, each loop weight is tanh(beta)^|l|, and the truncated cluster
series converges rapidly to the exact free energy (known from the
transfer matrix).  The table shows the relative error improving by one to
two orders of magnitude with each truncation step.

Run:  python3 demos/02_loop_series_ising.py
"""

import math

from bptn.clusters import free_energy_truncated
from bptn.loops import enumerate_loops, evaluate_weights
from bptn.models import (IsingParams, ising_exact_logZ, ising_network,
                         ising_paramagnetic_messages)

p = IsingParams(L=4, beta=0.2)
tn = ising_network(p)
ms = ising_paramagnetic_messages(p, tn)
loops = enumerate_loops(tn.graph, 8)
table = evaluate_weights(tn, ms, loops)

print(f"{len(loops)} generalized loops up to weight 8")
print(f"plaquette weight {table[loops[0].key].real:.8f} "
      f"(tanh(beta)^4 = {math.tanh(p.beta) ** 4:.8f})")

f_exact = -ising_exact_logZ(p)
print(f"\n{'m':>3} {'F_m':>16} {'rel. error':>12}")
for m in (0, 4, 6, 8):
    fr = free_energy_truncated(tn, ms, loops, m, weight_table=table)
    f = fr.f_bp if m == 0 else fr.f_m
    print(f"{m:>3} {f.real:16.10f} {abs(f - f_exact) / abs(f_exact):12.2e}")
print(f"  exact {f_exact:14.10f}")
