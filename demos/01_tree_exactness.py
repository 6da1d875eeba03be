"""Belief propagation is exact on trees.

Runs BP on a few random tree tensor networks and compares the BP
partition-function estimate with the exact contraction.  The match is to
machine precision: on a tree the message fixed point reproduces the full
contraction, and every correction term in the loop series vanishes
because there are no loops.

Run:  python3 demos/01_tree_exactness.py
"""

import cmath

from bptn.bp import bp_iterate, bp_log_partition, uniform_messages
from bptn.loops import enumerate_loops
from bptn.models import random_tree_network
from bptn.network import exact_contract

for n, D, seed in ((8, 2, 0), (14, 3, 1), (20, 4, 2)):
    tn = random_tree_network(n, D=D, seed=seed)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
    z_bp = cmath.exp(bp_log_partition(res.messages))
    z = exact_contract(tn)
    n_loops = len(enumerate_loops(tn.graph, n))
    print(f"tree n={n:2d} D={D}: converged in {res.iterations:3d} sweeps, "
          f"|Z_BP - Z|/|Z| = {abs(z_bp - z) / abs(z):.2e}, "
          f"loops found: {n_loops}")
