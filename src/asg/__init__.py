"""Advice complexity toolkit for asymmetric string guessing."""

from asg.core import (
    MINUS_INF,
    PLUS_INF,
    AdviceTape,
    RunResult,
    Variant,
    asg_opt,
    asg_score,
    dominates,
    run_asg,
)

__version__ = "0.1.0"
