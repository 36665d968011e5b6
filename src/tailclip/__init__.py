"""Clipped stochastic gradient methods under heavy-tailed noise."""

__version__ = "0.1.0"
