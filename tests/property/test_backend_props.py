"""Property-based checks of the mask gate (hypothesis).

The gate's contract as properties: for *any* mask plane — not just the
ones the search happens to produce — its transitive closure and
acyclicity verdict equal a brute-force reachability reference, the fused
gate agrees with its two components, and a batch gates row by row; and
for any random history, the full ``check_with_spec`` result (verdict,
witness views, reason, exploration count) is identical under an
instrumenting backend installed with ``use_backend``, for every
spec-backed model.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checking.models import MODELS, resolve_models
from repro.core.serialization import check_result_to_dict
from repro.kernel.backend import (
    active_backend,
    close_masks,
    masks_acyclic,
    use_backend,
)
from repro.kernel.search import check_with_spec

from tests.kernel.test_backend import (
    _CountingBackend,
    reference_acyclic,
    reference_closure,
)
from tests.property.test_history_strategies import history_strategy

RELAXED = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SPEC_MODELS = resolve_models("spec")


@st.composite
def mask_plane(draw, max_n=12):
    """A random predecessor-mask plane: ``(masks, n)``, bits < n only.

    Self-loops and cycles are deliberately *allowed* — the gate's whole
    job is to reject them, so the strategy must produce them.
    """
    n = draw(st.integers(0, max_n))
    masks = [draw(st.integers(0, (1 << n) - 1)) if n else 0 for _ in range(n)]
    return masks, n


@st.composite
def mask_batch(draw, max_rows=6):
    n = draw(st.integers(0, 10))
    rows = draw(st.integers(0, max_rows))
    return [
        [draw(st.integers(0, (1 << n) - 1)) if n else 0 for _ in range(n)]
        for _ in range(rows)
    ], n


@given(mask_plane())
@RELAXED
def test_closure_parity(plane):
    masks, n = plane
    assert close_masks(masks) == reference_closure(masks, n)


@given(mask_plane())
@RELAXED
def test_acyclicity_parity(plane):
    masks, n = plane
    assert masks_acyclic(masks, n) == reference_acyclic(masks, n)


@given(mask_plane())
@RELAXED
def test_gate_consistency(plane):
    # The fused gate must agree with its two components.
    masks, n = plane
    gated = active_backend().gate(masks, n)
    if masks_acyclic(masks, n):
        assert gated == close_masks(masks)
    else:
        assert gated is None


@given(mask_batch())
@RELAXED
def test_batch_parity(batch):
    rows, n = batch
    backend = active_backend()
    assert backend.gate_batch(rows, n) == [backend.gate(m, n) for m in rows]


@given(history_strategy())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_check_results_identical_across_backends(history):
    for name in SPEC_MODELS:
        spec = MODELS[name].spec
        ref = check_result_to_dict(check_with_spec(spec, history))
        with use_backend(_CountingBackend()):
            got = check_result_to_dict(check_with_spec(spec, history))
        assert ref == got, f"backend divergence under {name}"
