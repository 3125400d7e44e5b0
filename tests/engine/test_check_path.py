"""Every engine path decides with ``repro.checking.check`` alone.

A sweep record must equal a direct :func:`repro.checking.check` of the
same history under the same model: the verdict, the ``explored`` count
and, with ``store_views``, the witness views.  The same holds for
:meth:`CheckEngine.classify`, :meth:`CheckEngine.map_classify` and
:func:`repro.lattice.classify_histories`, in-process and on a two-worker
pool, over the litmus catalog under every spec-backed model.
"""

import pytest

from repro.checking import check
from repro.checking.models import resolve_models
from repro.core.serialization import view_to_dict
from repro.engine import CheckEngine, SweepSpec
from repro.lattice import classify_histories

SPEC_MODELS = resolve_models("spec")
CATALOG_SWEEP = SweepSpec(source="catalog", models=SPEC_MODELS)


@pytest.fixture(scope="module")
def jobs_and_expected():
    """The catalog sweep's jobs, and ``check()`` of each under each model."""
    jobs = list(CATALOG_SWEEP.jobs())
    expected = {
        job.key: {name: check(job.history, name) for name in SPEC_MODELS}
        for job in jobs
    }
    return jobs, expected


def _views(result):
    return [view_to_dict(result.views[proc]) for proc in sorted(result.views, key=str)]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_records_equal_check(workers, jobs_and_expected):
    jobs, expected = jobs_and_expected
    report = CheckEngine(jobs=workers, store_views=True).run(CATALOG_SWEEP)
    assert [r["key"] for r in report.results] == [job.key for job in jobs]
    for record in report.results:
        want = expected[record["key"]]
        assert record["models"] == {m: r.allowed for m, r in want.items()}
        assert record["explored"] == {m: r.explored for m, r in want.items()}
        assert record["views"] == {m: _views(r) for m, r in want.items() if r.views}


@pytest.mark.parametrize("workers", [1, 2])
def test_map_classify_equals_check(workers, jobs_and_expected):
    jobs, expected = jobs_and_expected
    rows = CheckEngine(jobs=workers).map_classify(
        [job.history for job in jobs], SPEC_MODELS
    )
    assert rows == [
        {m: r.allowed for m, r in expected[job.key].items()} for job in jobs
    ]


def test_classify_equals_check(jobs_and_expected):
    jobs, expected = jobs_and_expected
    engine = CheckEngine(jobs=1)
    for job in jobs:
        want = {m: r.allowed for m, r in expected[job.key].items()}
        assert engine.classify(job.history, SPEC_MODELS) == want


def test_classify_histories_equals_check(jobs_and_expected):
    jobs, expected = jobs_and_expected
    result = classify_histories([job.history for job in jobs], SPEC_MODELS)
    for name in SPEC_MODELS:
        assert result.allowed[name] == {
            i for i, job in enumerate(jobs) if expected[job.key][name].allowed
        }


def test_metrics_time_only_the_check_phase():
    report = CheckEngine(jobs=1).run(CATALOG_SWEEP)
    metrics = report.metrics
    assert set(metrics.phase_seconds) == {"check"}
    assert metrics.prepass_decided == 0
    assert "pre-pass" not in metrics.render()
    assert "prepass_decided" not in metrics.to_dict()
