from fractions import Fraction
from typing import NamedTuple

from hypothesis import given, settings, strategies as st

from sncalc.reports import display, normalize


def isinstance_display(value) -> str:
    """`display` as the plain isinstance chain, with a Fraction branch."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(isinstance_display(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}={isinstance_display(v)}" for k, v in value.items()) + "}"
    return str(value)


def isinstance_normalize(value):
    """`normalize` as the plain isinstance chain, with no early return for
    the exact scalar types."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else value.numerator
    if isinstance(value, tuple):
        return [isinstance_normalize(v) for v in value]
    if isinstance(value, list):
        return [isinstance_normalize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): isinstance_normalize(v) for k, v in value.items()}
    return value


class Pair(NamedTuple):
    first: object
    second: object


scalars = st.one_of(
    st.integers(), st.booleans(), st.text(max_size=4), st.fractions(max_denominator=12)
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers()), inner, max_size=3),
        st.builds(Pair, inner, inner),
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_display_and_normalize_match_the_isinstance_chain(value):
    # repr tells True from 1 and a tuple from a list, which == would not
    assert display(value) == isinstance_display(value)
    assert repr(normalize(value)) == repr(isinstance_normalize(value))


def test_bools_inside_lists_and_named_tuples():
    value = [True, 1, (False, Fraction(3, 1)), Pair(Fraction(1, 2), {"k": [0, True]})]
    assert display(value) == "[true, 1, [false, 3], [1/2, {k=[0, true]}]]"
    assert normalize(value) == [True, 1, [False, 3], ["1/2", {"k": [0, True]}]]
    assert [type(x) for x in normalize(value)[:2]] == [bool, int]
