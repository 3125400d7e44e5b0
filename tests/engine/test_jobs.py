"""Tests for the declarative sweep specs and their job expansion."""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checking import model_names
from repro.core.errors import EngineError
from repro.core.serialization import history_to_dict
from repro.engine import SweepSpec
from repro.litmus import CATALOG


class TestValidation:
    def test_unknown_source(self):
        with pytest.raises(EngineError, match="unknown history source"):
            SweepSpec(source="nope")

    def test_empty_models(self):
        with pytest.raises(EngineError, match="at least one model"):
            SweepSpec(models=())

    def test_unknown_model(self):
        with pytest.raises(EngineError, match="unknown model"):
            SweepSpec(models=("SC", "Nonsense"))

    def test_degenerate_shape(self):
        with pytest.raises(EngineError, match="degenerate"):
            SweepSpec(source="space", procs=0)
        with pytest.raises(EngineError, match="degenerate"):
            SweepSpec(source="space", ops_per_proc=0)

    def test_empty_locations(self):
        with pytest.raises(EngineError, match="location"):
            SweepSpec(source="space", locations=())

    def test_random_bad_count(self):
        with pytest.raises(EngineError, match="count"):
            SweepSpec(source="random", count=0)

    def test_random_bad_p_write(self):
        with pytest.raises(EngineError, match="p_write"):
            SweepSpec(source="random", p_write=1.5)

    @pytest.mark.parametrize("loc", ["x,y", "x:y", "", "1x", "x y", 1])
    def test_bad_location_name(self, loc):
        with pytest.raises(EngineError, match="location"):
            SweepSpec(source="random", locations=(loc,))

    @pytest.mark.parametrize("source", ["catalog", "space", "random"])
    def test_duplicate_locations(self, source):
        # A repeated name would yield every space history twice and key
        # the same histories under a second shape tag.
        with pytest.raises(EngineError, match="duplicate location"):
            SweepSpec(source=source, locations=("x", "x"))


class TestModelResolution:
    def test_all_expands_to_registry(self):
        assert SweepSpec().resolved_models() == model_names()

    def test_explicit_names_kept_in_order(self):
        spec = SweepSpec(models=("TSO", "SC"))
        assert spec.resolved_models() == ("TSO", "SC")


class TestCatalogJobs:
    def test_one_job_per_entry(self):
        jobs = list(SweepSpec(source="catalog").jobs())
        assert len(jobs) == len(CATALOG)
        assert {j.key for j in jobs} == {f"catalog:{n}" for n in CATALOG}

    def test_deterministic_order(self):
        spec = SweepSpec(source="catalog", models=("SC",))
        assert [j.key for j in spec.jobs()] == [j.key for j in spec.jobs()]


class TestSpaceJobs:
    def test_canonical_dedup(self):
        from repro.lattice.enumeration import canonical_key

        jobs = list(SweepSpec(source="space", models=("SC",)).jobs())
        keys = [canonical_key(j.history) for j in jobs]
        assert len(keys) == len(set(keys)) == 210  # the 2x2 canonical count

    def test_stable_indices(self):
        spec = SweepSpec(source="space", models=("SC",))
        first = [j.key for j in spec.jobs()]
        assert first[0] == "space:2x2:x,y:000000"
        assert first == [j.key for j in spec.jobs()]

    def test_2x3_job_stream_pinned(self):
        # Stored sweeps resume by key, so the 2x3 stream's keys, histories
        # and order must never drift.  The digest is that of the stream
        # enumerate_histories + first-seen canonical_key produces.
        spec = SweepSpec(source="space", procs=2, ops_per_proc=3, models=("SC",))
        digest = hashlib.sha256()
        count = 0
        for job in spec.jobs():
            line = json.dumps(
                [job.key, history_to_dict(job.history)],
                sort_keys=True,
                separators=(",", ":"),
            )
            digest.update(line.encode() + b"\n")
            count += 1
        assert count == 12189
        assert digest.hexdigest() == (
            "30880be036d048f80b65357f77984989f146438fa0256d843af9f578b4559104"
        )


class TestRandomJobs:
    def test_seeded_and_sized(self):
        spec = SweepSpec(source="random", models=("SC",), count=5, seed=9)
        a = list(spec.jobs())
        b = list(spec.jobs())
        assert len(a) == 5
        assert [j.key for j in a] == [
            f"random:2x2:x,y:p0.5:9:{i:06d}" for i in range(5)
        ]
        assert [j.history for j in a] == [j.history for j in b]

    def test_keys_embed_shape(self):
        # Keys are injective across specs: different shapes (or write
        # probabilities) with the same seed must never share a key,
        # or shared-store resume would serve one spec's records to
        # another's jobs.
        base = dict(source="random", models=("SC",), count=3, seed=7)
        variants = [
            SweepSpec(procs=2, ops_per_proc=2, **base),
            SweepSpec(procs=3, ops_per_proc=2, **base),
            SweepSpec(procs=2, ops_per_proc=3, **base),
            SweepSpec(procs=2, ops_per_proc=2, locations=("x", "y", "z"), **base),
            SweepSpec(procs=2, ops_per_proc=2, p_write=0.25, **base),
        ]
        key_sets = [{j.key for j in spec.jobs()} for spec in variants]
        for i, a in enumerate(key_sets):
            for b in key_sets[i + 1 :]:
                assert a.isdisjoint(b)

    def test_seed_changes_histories(self):
        h0 = [j.history for j in SweepSpec(source="random", count=5, seed=0).jobs()]
        h1 = [j.history for j in SweepSpec(source="random", count=5, seed=1).jobs()]
        assert h0 != h1


class TestDescribe:
    def test_catalog_omits_shape(self):
        d = SweepSpec(source="catalog", models=("SC",)).describe()
        assert d == {"source": "catalog", "models": ["SC"]}

    def test_random_records_generator_params(self):
        d = SweepSpec(source="random", count=7, seed=3, p_write=0.25).describe()
        assert d["count"] == 7 and d["seed"] == 3 and d["p_write"] == 0.25


# Small pools keep near-identical specs common; the location alphabet
# includes the key separators "," and ":".
_FIELDS = {
    "source": st.sampled_from(["catalog", "space", "random"]),
    "procs": st.integers(1, 2),
    "ops_per_proc": st.integers(1, 2),
    "locations": st.lists(
        st.one_of(
            st.sampled_from(["x", "y", "x,y"]),
            st.text(alphabet="xy,:[]_", min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=2,
        unique=True,
    ).map(tuple),
    "seed": st.integers(0, 2),
    "count": st.integers(1, 3),
    "p_write": st.sampled_from([0.0, 0.5, 1.0]),
}


def _regrouped(locations: tuple[str, ...]):
    """Location tuples whose comma-joined rendering equals ``locations``'s."""
    parts = ",".join(locations).split(",")

    def regroup(cuts: list[bool]) -> tuple[str, ...]:
        groups = [parts[0]]
        for cut, part in zip(cuts, parts[1:]):
            if cut:
                groups.append(part)
            else:
                groups[-1] += "," + part
        return tuple(groups)

    n = len(parts) - 1
    return st.lists(st.booleans(), min_size=n, max_size=n).map(regroup)


def _histories_by_key(args: dict) -> dict[str, dict]:
    """Job key -> history wire dict; a rejected spec has no jobs."""
    try:
        spec = SweepSpec(models=("SC",), **args)
    except EngineError:
        return {}
    return {job.key: history_to_dict(job.history) for job in spec.jobs()}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_equal_keys_imply_equal_histories(data):
    # Job keys are a sweep's only history identity (store resume, serve
    # job ids), so they must be injective across every pair of specs.
    # Keys can only collide between specs that agree on most fields, so
    # the second spec redraws at most two of the first's fields, and its
    # locations are often a regrouping that renders to the same key text.
    a = data.draw(st.fixed_dictionaries(_FIELDS))
    changed = data.draw(st.sets(st.sampled_from(sorted(_FIELDS)), max_size=2))
    b = {**a, **{name: data.draw(_FIELDS[name]) for name in changed}}
    b["locations"] = data.draw(
        st.one_of(st.just(b["locations"]), _regrouped(a["locations"]))
    )
    left, right = _histories_by_key(a), _histories_by_key(b)
    for key in left.keys() & right.keys():
        assert left[key] == right[key], key
