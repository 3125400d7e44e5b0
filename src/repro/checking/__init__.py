"""Consistency checkers: decide whether a history is allowed by a model.

The registry (:mod:`repro.checking.models`) maps every model name to the
kernel search or to one of the TSO deciders kept here; the search itself
and the result types live in :mod:`repro.kernel`.
"""

from repro.checking.axiomatic_tso import check_axiomatic_tso
from repro.checking.models import (
    MODELS,
    MemoryModel,
    PAPER_MODELS,
    check,
    classify,
    get_model,
    model_names,
    resolve_models,
)
from repro.checking.tso import check_tso
from repro.checking.witness import validate_witness

__all__ = [
    "check",
    "check_axiomatic_tso",
    "check_tso",
    "classify",
    "get_model",
    "MemoryModel",
    "MODELS",
    "model_names",
    "PAPER_MODELS",
    "resolve_models",
    "validate_witness",
]
