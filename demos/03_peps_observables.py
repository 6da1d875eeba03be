"""Observable estimators on a random PEPS, checked against the exact
statevector.

Builds a 2x3 PEPS close to a product state, converges BP on its norm
network, and evaluates a single-site observable with every estimator the
engine provides.  Because the lattice is small the exact answer is
available by brute-force contraction, so each estimator's error is shown
directly as the truncation grows.

Run:  python3 demos/03_peps_observables.py
"""

import numpy as np

from bptn.bp import bp_iterate, uniform_messages
from bptn.models import random_peps
from bptn.network import build_norm_network, exact_contract, peps_replacements
from bptn.observables import (InsertionProblem, expval_bp_tensors,
                              expval_cumulant_tensors,
                              expval_derivative_tensors, expval_ratio_tensors,
                              expval_region_sum_tensors)

SZ = np.diag([1.0, -1.0])

peps = random_peps(2, 3, D=2, perturbation=0.25, seed=11)
tn = build_norm_network(peps)
res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
print(f"BP on the norm network: {res.iterations} sweeps, "
      f"residual {res.residual:.1e}")

repl = peps_replacements(peps, {"0,1": SZ})
exact = exact_contract(tn.replace_tensors(repl)) / exact_contract(tn)
print(f"exact <sigma_z> at site (0,1): {exact.real:.10f}\n")

# one expansion object shared by every estimator and truncation
prob = InsertionProblem(tn, res.messages, repl)
print(f"{'estimator':>16} {'value':>14} {'abs. error':>12}")
e = expval_bp_tensors(prob)
print(f"{'BP':>16} {e.value.real:14.10f} {abs(e.value - exact):12.2e}")
for m in (4, 6, 8):
    for fn in (expval_ratio_tensors, expval_derivative_tensors,
               expval_cumulant_tensors):
        e = fn(prob, m)
        print(f"{e.method:>16} {e.value.real:14.10f} "
              f"{abs(e.value - exact):12.2e}")
for k in (2, 4, 6):
    e = expval_region_sum_tensors(prob, k)
    print(f"{e.method:>16} {e.value.real:14.10f} "
          f"{abs(e.value - exact):12.2e}")
