"""Adaptive coding and modulation toolkit for short-range THz links."""

from .config import RunSpec, SpecError, emit_spec, load_spec, parse_spec
from .control import (AdaptiveController, BerMessage, ControlAction, LinkConfig,
                      OptimizerParams, candidates, complexity_units,
                      estimate_distance, optimize_for_distance, select_config)
from .gf import GF, get_field
from .mdpc import MdpcCodec
from .modem import (DEFAULT_DATA_RATES_GBPS, MODULATIONS, BerTable, Modulation,
                    symbol_error_prob, transmit)
from .rs import ReedSolomonCodec
from .sim import (LinkSimulation, MetricsRecord, MobilityTrace, ResidualStats,
                  generate_trace, residual_error_experiment, run_simulation)
from .tablegen import TableModel, generate_table

__version__ = "0.1.0"

__all__ = [
    "AdaptiveController", "BerMessage", "BerTable", "ControlAction",
    "DEFAULT_DATA_RATES_GBPS", "GF", "LinkConfig", "LinkSimulation",
    "MODULATIONS", "MdpcCodec", "MetricsRecord", "MobilityTrace", "Modulation",
    "OptimizerParams", "ReedSolomonCodec", "ResidualStats", "RunSpec",
    "SpecError", "TableModel", "candidates", "complexity_units", "emit_spec",
    "estimate_distance", "generate_table", "generate_trace", "get_field",
    "load_spec", "optimize_for_distance", "parse_spec",
    "residual_error_experiment", "run_simulation", "select_config",
    "symbol_error_prob", "transmit",
]
