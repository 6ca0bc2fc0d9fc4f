"""Tests for the MOESI state model (paper section 3.1, Figures 3-4)."""

import pytest

from repro.core.states import (
    INTERVENIENT_STATES,
    NON_EXCLUSIVE_STATES,
    SOLE_COPY_STATES,
    STATE_SYNONYMS,
    UNOWNED_STATES,
    VALID_STATES,
    LineState,
    StateCharacteristics,
    parse_state,
    state_from_characteristics,
    states_holding_copy,
)

M, O, E, S, I = (
    LineState.MODIFIED,
    LineState.OWNED,
    LineState.EXCLUSIVE,
    LineState.SHAREABLE,
    LineState.INVALID,
)


class TestCharacteristics:
    """The three-bit (validity, exclusiveness, ownership) decomposition."""

    @pytest.mark.parametrize(
        "state,valid,exclusive,owned",
        [
            (M, True, True, True),
            (O, True, False, True),
            (E, True, True, False),
            (S, True, False, False),
        ],
    )
    def test_valid_state_bits(self, state, valid, exclusive, owned):
        assert state.valid is valid
        assert state.exclusive is exclusive
        assert state.owned is owned

    def test_invalid_has_no_exclusiveness(self):
        assert not I.valid
        with pytest.raises(ValueError):
            _ = I.exclusive

    def test_invalid_has_no_ownership(self):
        with pytest.raises(ValueError):
            _ = I.owned

    def test_five_states_exactly(self):
        assert len(list(LineState)) == 5

    @pytest.mark.parametrize("state", list(LineState))
    def test_letter_roundtrip(self, state):
        assert parse_state(state.letter) is state

    def test_letters_spell_moesi(self):
        letters = "".join(
            s.letter for s in (M, O, E, S, I)
        )
        assert letters == "MOESI"


class TestStateFromCharacteristics:
    """Eight combinations collapse to five states (section 3.1.4)."""

    @pytest.mark.parametrize(
        "valid,exclusive,owned,expected",
        [
            (True, True, True, M),
            (True, False, True, O),
            (True, True, False, E),
            (True, False, False, S),
            (False, False, False, I),
            (False, True, False, I),
            (False, False, True, I),
            (False, True, True, I),
        ],
    )
    def test_mapping(self, valid, exclusive, owned, expected):
        assert state_from_characteristics(valid, exclusive, owned) is expected

    def test_roundtrip_for_valid_states(self):
        for state in VALID_STATES:
            assert (
                state_from_characteristics(
                    True, state.exclusive, state.owned
                )
                is state
            )


class TestStatePairs:
    """Figure 4's four pairwise groupings."""

    def test_intervenient_pair(self):
        assert INTERVENIENT_STATES == {M, O}

    def test_sole_copy_pair(self):
        assert SOLE_COPY_STATES == {M, E}

    def test_unowned_pair(self):
        assert UNOWNED_STATES == {E, S}

    def test_non_exclusive_pair(self):
        assert NON_EXCLUSIVE_STATES == {O, S}

    @pytest.mark.parametrize("state", [M, O])
    def test_intervenient_predicate(self, state):
        assert state.intervenient

    @pytest.mark.parametrize("state", [E, S, I])
    def test_not_intervenient_predicate(self, state):
        assert not state.intervenient

    @pytest.mark.parametrize("state", [M, E])
    def test_sole_copy_predicate(self, state):
        assert state.sole_copy

    @pytest.mark.parametrize("state", list(LineState))
    def test_pair_attributes_match_characteristics(self, state):
        """``intervenient``/``sole_copy`` are plain per-member attributes
        equal to the section 3.1 formulas and to the Figure 4 sets."""
        assert "intervenient" in vars(state)
        assert "sole_copy" in vars(state)
        assert state.intervenient == (state.valid and state.owned)
        assert state.sole_copy == (state.valid and state.exclusive)
        assert state.intervenient == (state in INTERVENIENT_STATES)
        assert state.sole_copy == (state in SOLE_COPY_STATES)

    @pytest.mark.parametrize("state", [O, S])
    def test_must_announce_writes(self, state):
        """S and O data require a bus message before local modification."""
        assert state.must_announce_writes

    @pytest.mark.parametrize("state", [M, E, I])
    def test_silent_write_states(self, state):
        assert not state.must_announce_writes

    def test_pairs_cover_all_valid_states(self):
        union = INTERVENIENT_STATES | SOLE_COPY_STATES | UNOWNED_STATES
        assert union == VALID_STATES


class TestSynonyms:
    """The paper's three equivalent naming schemes."""

    def test_modified_synonyms(self):
        assert STATE_SYNONYMS[M] == (
            "Modified",
            "Exclusive modified",
            "Exclusive owned",
        )

    def test_owned_synonyms(self):
        assert STATE_SYNONYMS[O] == (
            "Owned",
            "Shareable modified",
            "Shareable owned",
        )

    @pytest.mark.parametrize("state", list(LineState))
    def test_parse_all_synonyms(self, state):
        for name in STATE_SYNONYMS[state]:
            assert parse_state(name) is state

    def test_parse_case_insensitive(self):
        assert parse_state("m") is M
        assert parse_state("SHAREABLE") is S

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown MOESI state"):
            parse_state("F")


class TestHelpers:
    def test_states_holding_copy(self):
        assert states_holding_copy([M, I, S, I, E]) == [M, S, E]

    def test_characteristics_equality_and_hash(self):
        a = StateCharacteristics(True, False, True)
        b = StateCharacteristics(True, False, True)
        assert a == b and hash(a) == hash(b)
        assert a != StateCharacteristics(True, True, True)

    def test_str_is_letter(self):
        assert str(M) == "M" and str(I) == "I"
