"""Adaptive coding and modulation toolkit for short-range THz links."""

__version__ = "0.1.0"
