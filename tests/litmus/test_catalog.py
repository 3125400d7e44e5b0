"""Every catalog expectation must match the checkers — Figures 1-4 included.

This is the machine-checked version of the paper's litmus figures: each
``expected`` entry is asserted against the corresponding checker.
"""

import pytest

from repro.checking import check
from repro.litmus import (
    CATALOG,
    catalog_names,
    get_test,
    paper_figures,
    parse_history,
)

CASES = [
    (name, model, expected)
    for name, t in CATALOG.items()
    for model, expected in t.expected.items()
]


@pytest.mark.parametrize(
    "name,model,expected", CASES, ids=[f"{n}:{m}" for n, m, _ in CASES]
)
def test_catalog_expectation(name, model, expected):
    history = CATALOG[name].history
    result = check(history, model)
    assert result.allowed == expected, (
        f"{name} under {model}: paper/catalog expects "
        f"{'allowed' if expected else 'rejected'}, measured "
        f"{'allowed' if result.allowed else 'rejected'} ({result.reason})"
    )


def test_paper_figures_present():
    figs = paper_figures()
    assert len(figs) == 4
    assert [f.name for f in figs] == [
        "fig1-sb",
        "fig2-pc-not-tso",
        "fig3-pram-not-tso",
        "fig4-causal-not-tso",
    ]


def test_all_catalog_histories_have_distinct_write_values():
    for name in catalog_names():
        assert get_test(name).history.has_distinct_write_values(), name


def test_all_catalog_entries_have_sources():
    for name in catalog_names():
        assert get_test(name).source, f"{name} lacks a provenance note"


def test_get_test_unknown_raises():
    with pytest.raises(KeyError):
        get_test("no-such-test")


def test_history_is_parsed_once_and_shared():
    for entry in CATALOG.values():
        assert entry.history is entry.history, entry.name
        assert entry.history == parse_history(entry.text), entry.name
