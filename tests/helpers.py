"""Small helpers shared by the tests."""

import itertools
import math

from thzlink.modem import MODULATIONS, symbol_error_prob


def tail_sigma(stats) -> float:
    """Binomial standard error of a `ResidualStats`' theoretical exceed rate."""
    p = stats.theoretical_tail
    return math.sqrt(p * (1.0 - p) / stats.generations)


def distance_at(trace, now: float) -> float:
    """Distance of a `MobilityTrace` at time `now`."""
    return trace.phases[trace.phase_index_at(now)].distance_at(now)


def brute_force_selection(table, distance, rates, params):
    """The optimizer's choice at `distance` by full enumeration.

    Scans every MDPC (m, n) with 2^(n-1) - 1 == t_mdpc and every RS (s, L),
    keeps those whose expected error units stay within the budget, and
    takes the highest throughput; ties go to the higher code rate, then RS
    over MDPC, then the higher-order modulation. Returns (scheme,
    modulation, k_bits, r_bits), or None when nothing is feasible.
    """
    n = next(n for n in itertools.count(2) if 2 ** (n - 1) - 1 == params.t_mdpc)
    entries = []
    for mod in MODULATIONS:
        p = table.lookup(distance, mod)
        for m in range(2, params.m_max + 1):
            if (m + 1) ** n * p <= params.t_mdpc:
                k = m ** n
                entries.append(("MDPC", mod, k, (m + 1) ** n - k))
        for s in range(params.s_min, params.s_max + 1):
            p_sym = symbol_error_prob(p, s)
            for length in range(2 ** (s - 1), 2 ** s):
                if length * p_sym > params.t_rs or length < 2 * params.t_rs + 1:
                    continue
                entries.append(("RS", mod, s * (length - 2 * params.t_rs),
                                2 * s * params.t_rs))
    if not entries:
        return None

    def key(entry):
        scheme, mod, k, r = entry
        rate = k / (k + r)
        return (rate * rates[mod], rate, 1 if scheme == "RS" else 0,
                mod.bits_per_symbol)

    return max(entries, key=key)
