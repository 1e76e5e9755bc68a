"""Hierarchical hardware-aware CNN configuration search for edge accelerators."""

__version__ = "0.1.0"
