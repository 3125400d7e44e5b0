"""Tests for the model-spec registry and spec validation."""

import pytest

from repro.core import SpecError
from repro.spec import (
    ALL_SPECS,
    CAUSAL,
    LabeledDiscipline,
    MemoryModelSpec,
    MutualConsistency,
    OperationSet,
    PO,
    get_spec,
    spec_names,
)

def _parameters(spec):
    """Every parameter axis of ``spec``, partition arity last."""
    return (
        spec.operation_set,
        spec.mutual_consistency,
        spec.ordering,
        spec.labeled_discipline,
        spec.bracketing,
        spec.ordering_own_view_only,
        spec.partition_blocks,
    )


class TestRegistry:
    def test_all_paper_models_present(self):
        names = set(spec_names())
        for expected in ("SC", "TSO", "PC", "PRAM", "Causal", "RC_sc", "RC_pc"):
            assert expected in names

    def test_lookup_case_insensitive(self):
        assert get_spec("tso").name == "TSO"
        assert get_spec("RC_SC").name == "RC_sc"

    def test_unknown_name_raises(self):
        with pytest.raises(SpecError):
            get_spec("nonsense")

    def test_all_specs_have_descriptions(self):
        for spec in ALL_SPECS:
            assert spec.description, f"{spec.name} lacks provenance text"

    def test_spec_parameters_match_the_paper(self):
        sc = get_spec("SC")
        assert sc.operation_set is OperationSet.ALL_REMOTE
        assert sc.mutual_consistency is MutualConsistency.IDENTICAL
        tso = get_spec("TSO")
        assert tso.mutual_consistency is MutualConsistency.TOTAL_WRITE_ORDER
        assert tso.ordering.name == "ppo"
        pram = get_spec("PRAM")
        assert pram.mutual_consistency is MutualConsistency.NONE
        assert pram.ordering.name == "po"
        causal = get_spec("Causal")
        assert causal.ordering.name == "causal"
        pc = get_spec("PC")
        assert pc.mutual_consistency is MutualConsistency.COHERENCE
        assert pc.ordering.name == "sem"

    def test_rc_specs(self):
        rc_sc = get_spec("RC_sc")
        assert rc_sc.labeled_discipline is LabeledDiscipline.SC
        assert rc_sc.bracketing and rc_sc.is_release_consistent
        rc_pc = get_spec("RC_pc")
        assert rc_pc.labeled_discipline is LabeledDiscipline.PC

    def test_str_rendering(self):
        assert "δ_p" in str(get_spec("TSO"))
        assert "labeled=sc" in str(get_spec("RC_sc"))


class TestSpecValidation:
    def test_bracketing_requires_discipline(self):
        with pytest.raises(SpecError):
            MemoryModelSpec(
                name="bad",
                operation_set=OperationSet.REMOTE_WRITES,
                mutual_consistency=MutualConsistency.NONE,
                ordering=PO,
                bracketing=True,
            )

    def test_identical_views_require_all_remote(self):
        with pytest.raises(SpecError):
            MemoryModelSpec(
                name="bad",
                operation_set=OperationSet.REMOTE_WRITES,
                mutual_consistency=MutualConsistency.IDENTICAL,
                ordering=PO,
            )

    def test_sem_requires_coherence_mutual(self):
        from repro.spec import SEMI_CAUSAL

        with pytest.raises(SpecError):
            MemoryModelSpec(
                name="bad",
                operation_set=OperationSet.REMOTE_WRITES,
                mutual_consistency=MutualConsistency.NONE,
                ordering=SEMI_CAUSAL,
            )

    def test_custom_recombination_allowed(self):
        # Section 7's recipe: causal + coherence is a valid new memory.
        spec = MemoryModelSpec(
            name="custom",
            operation_set=OperationSet.REMOTE_WRITES,
            mutual_consistency=MutualConsistency.COHERENCE,
            ordering=CAUSAL,
        )
        assert not spec.is_release_consistent


class TestModelZoo:
    """The session-guarantee and Partition Consistency families."""

    def test_zoo_members_present(self):
        names = set(spec_names())
        for expected in (
            "read-your-writes",
            "monotonic-reads",
            "monotonic-writes",
            "writes-follow-reads",
            "session-causal",
            "partition-2",
            "partition-3",
        ):
            assert expected in names

    def test_session_specs_have_no_mutual_consistency(self):
        for name in ("read-your-writes", "session-causal"):
            spec = get_spec(name)
            assert spec.mutual_consistency is MutualConsistency.NONE
            assert spec.ordering.name.startswith("session(")

    def test_partition_specs_carry_their_arity(self):
        for blocks in (2, 3):
            spec = get_spec(f"partition-{blocks}")
            assert spec.mutual_consistency is MutualConsistency.PARTITION
            assert spec.partition_blocks == blocks
            assert spec.ordering.name == f"po-block({blocks})"

    def test_cache_keys_pairwise_distinct(self):
        # No two registered specs share every parameter: such a pair would
        # be one model under two names.
        seen = {}
        for spec in ALL_SPECS:
            params = _parameters(spec)
            assert params not in seen, f"{spec.name} duplicates {seen[params]}"
            seen[params] = spec.name

    def test_cache_key_embeds_partition_arity(self):
        # The parameter tuple carries the partition arity, so partition-2
        # and partition-3 are told apart on it.
        two, three = get_spec("partition-2"), get_spec("partition-3")
        assert _parameters(two)[-1] == 2
        assert _parameters(three)[-1] == 3
        assert _parameters(two) != _parameters(three)

    def test_spec_names_ordering_is_stable(self):
        # spec_names() is the registry's presentation order (the order
        # model_names() shows): the paper's models first, then the zoo
        # growth — deterministic across calls.
        names = spec_names()
        assert names == spec_names()
        assert names == tuple(spec.name for spec in ALL_SPECS)
        assert names.index("SC") < names.index("CoherentCausal")
        assert names.index("CoherentCausal") < names.index("read-your-writes")
        assert names.index("read-your-writes") < names.index("partition-2")

    def test_get_spec_suggests_near_misses(self):
        from repro.spec import suggest_names

        assert suggest_names("ryw") == ("read-your-writes",)
        with pytest.raises(SpecError, match="did you mean read-your-writes"):
            get_spec("ryw")
        with pytest.raises(SpecError, match="did you mean"):
            get_spec("monotonic")
        # Hopeless queries still list the registry without a guess.
        with pytest.raises(SpecError, match="known: "):
            get_spec("zzzzqqq")
