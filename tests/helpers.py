"""Small helpers shared by the tests."""

import contextlib
import itertools
import math
import signal
import tracemalloc
from collections.abc import Mapping
from dataclasses import fields

from thzlink.config import RunSpec
from thzlink.control import SCHEME_MDPC, SCHEME_RS, LinkConfig, map_key
from thzlink.mdpc import MdpcCodec
from thzlink.modem import (DEFAULT_DATA_RATES_GBPS, MODULATIONS, BerTable, Modulation,
                           symbol_error_prob)


def tail_sigma(stats) -> float:
    """Binomial standard error of a `ResidualStats`' theoretical exceed rate."""
    p = stats.theoretical_tail
    return math.sqrt(p * (1.0 - p) / stats.generations)


def rs_config(s: int, r: int, length: int) -> LinkConfig:
    """BPSK RS words of `length` s-bit symbols, r of them parity."""
    return LinkConfig(SCHEME_RS, Modulation.BPSK, s * (length - r), s * r,
                      DEFAULT_DATA_RATES_GBPS[Modulation.BPSK], s=s)


def mdpc_config(m: int, n: int) -> LinkConfig:
    """BPSK MDPC(m, n) words."""
    return LinkConfig(SCHEME_MDPC, Modulation.BPSK, m ** n, MdpcCodec(m, n).r_bits,
                      DEFAULT_DATA_RATES_GBPS[Modulation.BPSK], m=m, n=n)


def emit_spec(spec: RunSpec) -> str:
    """`spec` in the flat key-value format, one line per key in field order;
    a per-modulation map gives one ``map_key`` line per modulation."""
    lines = []
    for f in fields(RunSpec):
        value = getattr(spec, f.name)
        if isinstance(value, Mapping):
            lines += (f"{map_key(f.name, mod)} = {value[mod]}" for mod in MODULATIONS)
        else:
            lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def traced_peak(fn, *args, **kwargs):
    """(peak bytes tracemalloc saw while `fn(*args, **kwargs)` ran, its result)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def within_seconds(seconds: int):
    """Fail the block with TimeoutError unless it ends within `seconds`, so
    a test of a call that used to hang fails instead of hanging (POSIX)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def distance_at(trace, now: float) -> float:
    """Distance of a `MobilityTrace` at time `now`."""
    return trace.phases[trace.phase_index_at(now)].distance_at(now)


def table_between(table, lo: float, hi: float) -> BerTable:
    """The rows of `table` whose distance lies in [lo, hi]."""
    keep = (table.distances >= lo) & (table.distances <= hi)
    return BerTable(table.distances[keep],
                    {mod: table.column(mod)[keep] for mod in MODULATIONS})


def _feasible_codes(table, distance, params):
    """Every code within its budget at `distance`, by full enumeration.

    Scans every MDPC (m, n) with 2^(n-1) - 1 == t_mdpc and every RS (s, L),
    and yields (scheme, modulation, k_bits, r_bits, s, m, n) for those whose
    expected error units stay within the budget.
    """
    n = next(n for n in itertools.count(2) if 2 ** (n - 1) - 1 == params.t_mdpc)
    for mod in MODULATIONS:
        p = table.lookup(distance, mod)
        for m in range(2, params.m_max + 1):
            if (m + 1) ** n * p <= params.t_mdpc:
                k = m ** n
                yield ("MDPC", mod, k, (m + 1) ** n - k, None, m, n)
        for s in range(params.s_min, params.s_max + 1):
            p_sym = symbol_error_prob(p, s)
            for length in range(2 ** (s - 1), 2 ** s):
                if length * p_sym > params.t_rs or length < 2 * params.t_rs + 1:
                    continue
                yield ("RS", mod, s * (length - 2 * params.t_rs),
                       2 * s * params.t_rs, s, None, None)


def _ranking(rates):
    """Highest throughput; ties go to the higher code rate, then RS over
    MDPC, then the higher-order modulation."""
    def key(code):
        scheme, mod, k, r = code[:4]
        rate = k / (k + r)
        return (rate * rates[mod], rate, 1 if scheme == "RS" else 0,
                mod.bits_per_symbol)
    return key


def brute_force_candidates(table, distance, rates, params):
    """The optimizer's candidate per (scheme, modulation) by full enumeration.

    Maps each pair, MDPC first and then RS, each in modulation order, to the
    (k_bits, r_bits, s, m, n) its feasible codes rank highest, or None.
    """
    key = _ranking(rates)
    best = {(scheme, mod): None for scheme in ("MDPC", "RS") for mod in MODULATIONS}
    for code in _feasible_codes(table, distance, params):
        pair = code[:2]
        if best[pair] is None or key(code) > key(best[pair]):
            best[pair] = code
    return {pair: code and code[2:] for pair, code in best.items()}


def brute_force_selection(table, distance, rates, params):
    """The optimizer's choice at `distance` by full enumeration.

    Takes the highest-ranked code over every scheme and modulation. Returns
    (scheme, modulation, k_bits, r_bits), or None when nothing is feasible.
    """
    codes = list(_feasible_codes(table, distance, params))
    if not codes:
        return None
    return max(codes, key=_ranking(rates))[:4]
