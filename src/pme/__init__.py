"""Radial porous-medium-equation solver and certificate toolkit."""

__version__ = "0.1.0"
