"""Advice complexity toolkit for asymmetric string guessing."""

__version__ = "0.1.0"
