"""Reference forms of the cumulant expansion that the tests compare the
engine against; the program itself never evaluates them."""

from bptn.bp import bp_log_partition
from bptn.cumulants import counting_numbers, guarded_log, restricted_partition


def mobius_subset(A, B) -> int:
    """Moebius function of the subset lattice: (-1)^{|B|-|A|} if A <= B,
    for loop sequences A and B."""
    sa, sb = set(A), set(B)
    if not sa <= sb:
        return 0
    return -1 if (len(sb) - len(sa)) % 2 else 1


def counting_number_free_energy(tn, messages, subsets, weight_table):
    """Equivalent counting-number form: F = F_BP - sum b(B) log Xi(B)."""
    b = counting_numbers({s.key: frozenset(s.loops) for s in subsets})
    corr = 0.0 + 0j
    for s in subsets:
        if b[s.key] == 0:
            continue
        corr += b[s.key] * guarded_log(
            restricted_partition(s.loops, weight_table), "Xi(B)")
    f_bp = -bp_log_partition(tn, messages)
    return f_bp - corr, corr
