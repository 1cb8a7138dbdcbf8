"""Span tracer that times calls into thzlink's public functions from outside.

The library is not edited: while a `Tracer` is installed, the functions and
methods listed in `install` are replaced by wrappers that record a span per
call and a few counters read from the call's arguments and results. A span's
self time is its duration minus the time covered by the spans it caused, so
when the whole workload body runs inside one root span the self times of all
spans add up to the traced wall time.

`thzlink.sim` imports `sample_flip_mask`, `transmit`, `bits_to_symbols`,
`symbols_to_bits` and `write_metrics_csv` by name, so those names are patched
in `thzlink.sim` as well as in their home module; patching only the home
module would leave the simulator's calls untimed.
"""

import contextlib
from collections import defaultdict
from time import perf_counter

import numpy as np

# Span name -> per-layer metric that receives its self time.
SELF_TIME_METRICS = {
    "sim.body": "sim.self_s",
    "sim.write_metrics": "sim.write_metrics_s",
    "modem.flip": "modem.flip_s",
    "modem.transmit": "modem.transmit_s",
    "rs.build": "rs.build_s",
    "rs.pack": "rs.pack_s",
    "rs.encode": "rs.encode_s",
    "rs.syndromes": "rs.syndromes_s",
    "rs.decode": "rs.decode_self_s",
    "mdpc.encode": "mdpc.encode_s",
    "mdpc.decode": "mdpc.decode_s",
    "control.update": "control.update_s",
    "trace.count": "trace.count_s",
}

# Spans timed during set-up, outside the root span.
SETUP_METRICS = {
    "config.parse": "config.parse_s",
    "modem.table_load": "modem.table_load_s",
    "sim.trace": "sim.trace_s",
}


class Tracer:
    """Collects span self times and counters in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.update_starts: list[float] = []
        self._stack: list[float] = []  # child time covered, per open span

    def _close(self, name: str, dur: float) -> None:
        self.self_s[name] += dur - self._stack.pop()
        if self._stack:
            self._stack[-1] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, perf_counter() - t0)

    def wrap(self, name: str, fn, count=None):
        """Wrap `fn` in a span; `count(counts, args, result)` runs after it.

        Counting happens outside the layer's span, in a `trace.count` span of
        its own, so bookkeeping neither inflates the layer nor escapes the
        self-time sum.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, perf_counter() - t0)
            if count is not None:
                tracer._stack.append(0.0)
                t1 = perf_counter()
                count(tracer.counts, args, result)
                tracer._close("trace.count", perf_counter() - t1)
            return result

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Patch the traced names for the duration of the block."""
        from thzlink import control, mdpc, modem, rs, sim

        threshold = modem.SPARSE_FLIP_THRESHOLD

        def count_flip(c, args, mask):
            shape, p_e = args[0], args[1]
            size = int(np.prod(shape))
            c["modem.flip_calls"] += 1
            c["modem.flip_mbit"] += size / 1e6
            c["modem.flips"] += int(np.count_nonzero(mask))
            if p_e <= 0.0:
                c["modem.intervals_zero"] += 1
            elif p_e * size <= threshold:
                c["modem.intervals_sparse"] += 1
            else:
                c["modem.intervals_dense"] += 1

        def count_pack(c, args, result):
            c["rs.pack_mbit"] += np.asarray(args[0]).size / 1e6

        def count_unpack(c, args, bits):
            c["rs.pack_mbit"] += bits.size / 1e6

        def count_encode(c, args, result):
            c["rs.encode_rows"] += result.shape[0]

        def count_syndromes(c, args, result):
            c["rs.syndromes_calls"] += 1

        def count_rs_decode(c, args, result):
            _, corrected, ok = result
            c["rs.decode_calls"] += 1
            c["rs.decode_rows"] += ok.size
            c["rs.dirty_rows"] += int(np.count_nonzero((corrected > 0) | ~ok))
            c["rs.failed_rows"] += int(np.count_nonzero(~ok))

        def count_mdpc_decode(c, args, result):
            _, iterations, _, ok = result
            c["mdpc.decode_rows"] += ok.size
            c["mdpc.iterations"] += int(iterations.sum())
            c["mdpc.failed_rows"] += int(np.count_nonzero(~ok))

        def count_update(c, args, action):
            c["control.updates"] += 1
            if action.kind == "config":
                c["control.configs"] += 1
            elif action.kind == "cleared":
                c["control.cleared"] += 1

        def count_rs_build(c, args, result):
            c["rs.codec_builds"] += 1

        update = self.wrap("control.update",
                           control.AdaptiveController.on_ber_update, count_update)
        starts = self.update_starts

        def on_ber_update(*args, **kwargs):
            starts.append(perf_counter())
            return update(*args, **kwargs)

        flip = self.wrap("modem.flip", modem.sample_flip_mask, count_flip)
        transmit = self.wrap("modem.transmit", modem.transmit)
        pack = self.wrap("rs.pack", rs.bits_to_symbols, count_pack)
        unpack = self.wrap("rs.pack", rs.symbols_to_bits, count_unpack)
        patches = [
            (modem, "sample_flip_mask", flip),
            (sim, "sample_flip_mask", flip),
            (modem, "transmit", transmit),
            (sim, "transmit", transmit),
            (rs, "bits_to_symbols", pack),
            (sim, "bits_to_symbols", pack),
            (rs, "symbols_to_bits", unpack),
            (sim, "symbols_to_bits", unpack),
            (sim, "write_metrics_csv",
             self.wrap("sim.write_metrics", sim.write_metrics_csv)),
            (rs.ReedSolomonCodec, "__init__",
             self.wrap("rs.build", rs.ReedSolomonCodec.__init__, count_rs_build)),
            (rs.ReedSolomonCodec, "encode_batch",
             self.wrap("rs.encode", rs.ReedSolomonCodec.encode_batch, count_encode)),
            (rs.ReedSolomonCodec, "syndromes_batch",
             self.wrap("rs.syndromes", rs.ReedSolomonCodec.syndromes_batch,
                       count_syndromes)),
            (rs.ReedSolomonCodec, "decode_symbols_batch",
             self.wrap("rs.decode", rs.ReedSolomonCodec.decode_symbols_batch,
                       count_rs_decode)),
            (mdpc.MdpcCodec, "encode_batch",
             self.wrap("mdpc.encode", mdpc.MdpcCodec.encode_batch)),
            (mdpc.MdpcCodec, "decode_batch",
             self.wrap("mdpc.decode", mdpc.MdpcCodec.decode_batch,
                       count_mdpc_decode)),
            (control.AdaptiveController, "on_ber_update", on_ber_update),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
