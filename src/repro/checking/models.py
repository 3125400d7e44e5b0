"""The model registry: one :class:`MemoryModel` per registered memory.

:data:`repro.spec.registry.ALL_SPECS` is the list of models: every spec
is a model of the same name, decided by the kernel's
:func:`~repro.kernel.search.check_with_spec`.  Two pieces sit on top of
it: :data:`_FAST_PATHS`, the hand-written TSO strategy (EXPERIMENTS.md
E20), and the one spec-less model, the axiomatic TSO reference.
:func:`get_model` and :func:`resolve_models` are the one lookup every
surface (CLI, service, engine, fuzzer) goes through; ``check`` and
``classify`` are the top-level entry points most client code uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.checking.axiomatic_tso import check_axiomatic_tso
from repro.checking.tso import check_tso
from repro.core.errors import CheckerError
from repro.core.history import SystemHistory
from repro.kernel.results import CheckResult
from repro.kernel.search import SearchBudget, check_with_spec
from repro.spec.model_spec import MemoryModelSpec
from repro.spec.registry import ALL_SPECS, spec_names, suggest_names

__all__ = [
    "MemoryModel",
    "MODELS",
    "PAPER_MODELS",
    "check",
    "classify",
    "get_model",
    "model_names",
    "resolve_models",
]


@dataclass(frozen=True)
class MemoryModel:
    """A named memory model bound to its decision procedure.

    Attributes
    ----------
    name:
        Canonical model name (the spec's name where one exists).
    spec:
        The declarative three-parameter description, or ``None`` for the
        axiomatic TSO reference model which lives outside the framework.
    fast:
        A hand-written decision procedure preferred over the kernel, or
        ``None`` to decide with ``check_with_spec(spec, history)``.
    """

    name: str
    spec: MemoryModelSpec | None
    fast: Callable[[SystemHistory], CheckResult] | None = None

    def check(self, history: SystemHistory) -> CheckResult:
        """Decide whether ``history`` is allowed by this model."""
        if self.fast is not None:
            return self.fast(history)
        return self.check_generic(history)

    def allows(self, history: SystemHistory) -> bool:
        """Boolean form of :meth:`check`."""
        return self.check(history).allowed

    def check_generic(
        self, history: SystemHistory, budget: SearchBudget | None = None
    ) -> CheckResult:
        """Decide via the generic spec-driven kernel (for cross-validation).

        Raises
        ------
        CheckerError
            For models with no framework spec (axiomatic TSO).
        """
        if self.spec is None:
            raise CheckerError(f"{self.name} has no framework specification")
        return check_with_spec(self.spec, history, budget)


#: The hand-written strategies kept beside the kernel: TSO places reads
#: greedily per shared write order (E20).  Every other spec model,
#: SC and PRAM included (E30), is decided by the kernel alone.
_FAST_PATHS: dict[str, Callable[[SystemHistory], CheckResult]] = {
    "TSO": check_tso,
}


def _registry() -> dict[str, MemoryModel]:
    models = [MemoryModel(s.name, s, _FAST_PATHS.get(s.name)) for s in ALL_SPECS]
    # The axiomatic TSO reference keeps its place between the paper's
    # memories and the session/partition families.
    models.insert(
        spec_names().index("read-your-writes"),
        MemoryModel("TSO-axiomatic", None, check_axiomatic_tso),
    )
    return {m.name: m for m in models}


MODELS: dict[str, MemoryModel] = _registry()

#: The memories Figure 5 relates (the paper's core comparison set).
PAPER_MODELS: tuple[str, ...] = ("SC", "TSO", "PC", "Causal", "PRAM")


def model_names() -> tuple[str, ...]:
    """Names of every registered model."""
    return tuple(MODELS)


def get_model(name: str, *, spec_only: bool = False) -> MemoryModel:
    """The registered model called ``name`` (exact match).

    Raises
    ------
    CheckerError
        If no model has that name — the message names near misses
        (``'ryw'`` suggests ``read-your-writes``) plus the full registry —
        or, with ``spec_only``, if the model has no framework spec.
    """
    try:
        model = MODELS[name]
    except KeyError:
        suggestions = suggest_names(name)
        hint = f" did you mean {' or '.join(suggestions)}?" if suggestions else ""
        raise CheckerError(
            f"unknown model {name!r};{hint} known: {', '.join(MODELS)}"
        ) from None
    if spec_only and model.spec is None:
        raise CheckerError(
            f"spec-less model {name!r}: only spec-backed models apply here"
        )
    return model


def resolve_models(
    selector: str | Sequence[str] | None, *, spec_only: bool = False
) -> tuple[str, ...]:
    """A concrete model tuple from an alias, a comma list or a sequence.

    ``None`` and ``"paper"`` mean :data:`PAPER_MODELS`, ``"spec"`` every
    spec-backed model and ``"all"`` every registered model; any other
    string is a comma-separated list of names, each resolved by
    :func:`get_model`.  With ``spec_only`` the result must be spec-backed:
    ``"all"`` means ``"spec"`` and a spec-less name is an error.

    Raises
    ------
    CheckerError
        On an unknown or (with ``spec_only``) spec-less name, an empty
        selection, or a selector that is neither a string nor a sequence
        of strings.
    """
    if selector is None or selector == "paper":
        return PAPER_MODELS
    if selector == "spec" or (selector == "all" and spec_only):
        return spec_names()
    if selector == "all":
        return model_names()
    if isinstance(selector, str):
        selector = selector.split(",")
    elif not isinstance(selector, (list, tuple)) or not all(
        isinstance(name, str) for name in selector
    ):
        raise CheckerError(f"bad model set: {selector!r}")
    names = tuple(name.strip() for name in selector if name.strip())
    if not names:
        raise CheckerError("empty model set: name at least one model")
    for name in names:
        get_model(name, spec_only=spec_only)
    return names


def check(history: SystemHistory, model: str) -> CheckResult:
    """Decide whether ``history`` is allowed by the named model.

    Raises
    ------
    CheckerError
        If the model name is unknown.
    """
    return get_model(model).check(history)


def classify(
    history: SystemHistory, models: tuple[str, ...] | None = None
) -> dict[str, bool]:
    """Verdicts of several models on one history (default: Figure 5's set)."""
    names = models if models is not None else PAPER_MODELS
    return {name: check(history, name).allowed for name in names}
