"""Seeded fuzzing of the two line-based parsers: every input either parses
or raises GraphParseError carrying the number of an input line."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sncalc.errors import GraphParseError
from sncalc.graphs import parse_graph
from sncalc.lattice import parse_arrangement

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ids = ["a", "b", "c", "d", "e1"]
names = st.sampled_from(ids)
numbers = st.one_of(st.integers(-6, 6), st.integers()).map(str)
vocabulary = st.sampled_from(
    ["vertex", "edge", "curve", "blowup", "at", "w=", "degree=", "#", ",", "w=x", "degree=1.5"]
)
tokens = st.one_of(
    vocabulary,
    names,
    numbers.map("w={}".format),
    numbers.map("degree={}".format),
    st.lists(names, max_size=4).map(",".join),
    st.text(max_size=8),
)
noise = st.lists(tokens, min_size=1, max_size=5).map(" ".join)
breaks = st.sampled_from(["\n", "\r\n", "\n\n", "  # note\n"])


def _splice(pairs, extra, at: int) -> str:
    lines = [text + end for text, end in pairs]
    if extra is not None:
        lines.insert(at, extra + "\n")
    return "".join(lines)


def _texts(header, line, min_size=0):
    """Files of distinct well-formed directive lines after an optional header,
    with at most one line of token noise spliced in and mixed line ends."""
    body = st.lists(
        st.tuples(line, breaks), min_size=min_size, max_size=10, unique_by=lambda lb: lb[0]
    )
    noisy = st.one_of(st.none(), noise)
    return st.builds(_splice, body, noisy, st.integers(0, 10)).map(header.__add__)


vertex = st.builds("vertex {} w={}".format, names, numbers)
pairs = [(a, b) for a in ids for b in ids if a < b]
edge = st.one_of(
    st.sampled_from(pairs).map(lambda ab: "edge {} {}".format(*ab)),
    st.builds("edge {} {}".format, names, names),
)
# declaring every name first lets the edges go on to close cycles
declared = "".join(f"vertex {v} w=-2\n" for v in ids)
graph_texts = st.one_of(_texts(declared, edge, 3), _texts("", st.one_of(edge, vertex)))

curve = st.builds("curve {} degree={}".format, names, numbers)
blowup = st.builds(
    "blowup {} at {}".format, names, st.lists(names, min_size=1, max_size=3).map(",".join)
)
arrangement_texts = _texts("", st.one_of(curve, blowup, st.builds("blowup {}".format, names)))


def _parses_or_names_a_line(parse, text: str) -> None:
    try:
        parse(text)
    except GraphParseError as exc:
        assert exc.lineno is not None, exc
        assert 1 <= exc.lineno <= len(text.split("\n")), exc
        assert str(exc).startswith(f"line {exc.lineno}: ")


@FUZZ
@given(graph_texts)
def test_parse_graph_fuzz(text):
    _parses_or_names_a_line(parse_graph, text)


@FUZZ
@given(arrangement_texts)
def test_parse_arrangement_fuzz(text):
    _parses_or_names_a_line(parse_arrangement, text)


@pytest.mark.parametrize(
    "parse, text, lineno, needle",
    [
        (parse_graph, "vertex a w=1\x0cvertex b w=x\n", 1, "expected 'vertex"),
        (parse_graph, "vertex a w=1\u2028\r\nvertex b w=x\n", 2, "bad weight"),
        (parse_arrangement, "curve L degree=1\x0bcurve M degree=1\n", 1, "expected 'curve"),
        (parse_arrangement, "curve L degree=1\x85\ncurve L degree=1\n", 2, "already declared"),
    ],
)
def test_line_numbers_count_newlines_only(parse, text, lineno, needle):
    # other characters that str.splitlines breaks at are whitespace inside a line
    with pytest.raises(GraphParseError) as exc:
        parse(text)
    assert exc.value.lineno == lineno and needle in str(exc.value)
