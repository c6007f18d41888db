"""Federated learning simulator with mixed-precision quantization."""

__version__ = "0.1.0"
