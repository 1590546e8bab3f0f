"""Motion-to-motion latency measurement, simulation, and reporting toolkit."""

__version__ = "0.1.0"
