"""Hostile input to the SQL and DDL front ends.

Whatever text a client submits — arbitrary characters, or a soup of
tokens from the SQL lexicon that almost parses — ``parse_query``,
``parse_ddl`` and ``canonical_query`` must end, within a deadline, in a
result or in the library's own :class:`~repro.errors.XDataError`.  Any
other exception (``IndexError``, ``RecursionError``, ``AttributeError``
...) or a hang is a front-end defect: the service turns an
``XDataError`` into a 400 answer, anything else into a 500.
"""

from __future__ import annotations

import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import XDataError
from repro.schema.ddl import parse_ddl
from repro.service.fingerprint import canonical_query
from repro.sql.lexer import KEYWORDS
from repro.sql.parser import parse_query

#: Wall-clock bound per call; the inputs are at most a few hundred bytes.
DEADLINE_S = 2.0

FRONT_ENDS = {
    "parse_query": parse_query,
    "parse_ddl": parse_ddl,
    "canonical_query": canonical_query,
}

#: Tokens a query or DDL text is made of, plus near-misses.
LEXICON = sorted(KEYWORDS) + [
    "(", ")", ",", ".", ";", "*", "+", "-", "/",
    "=", "<>", "!=", "<", "<=", ">", ">=",
    "r", "s", "emp", "e", "a", "b", "id", "x1", '"Quoted"', '""',
    "0", "1", "42", "-7", "2.5", ".5", "1e3", "'s'", "''", "'it''s'",
    "'open", "--", "/*", "?", "@", "`", "[", "]", "\\", "\t", "\n",
]


class _Overran(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Overran()


def within_deadline(function, text: str) -> None:
    """Call ``function(text)``; fail on a hang or a foreign exception."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        function(text)
    except XDataError:
        pass
    except _Overran:
        pytest.fail(f"{function.__name__} ran past {DEADLINE_S} s on {text!r}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


token_soup = st.lists(st.sampled_from(LEXICON), max_size=40).map(" ".join)

#: A valid query with a few tokens dropped, doubled or swapped in.
VALID = (
    "SELECT e.id, COUNT(DISTINCT e.a) AS n FROM emp e "
    "LEFT OUTER JOIN r ON e.id = r.a WHERE e.b > 1 AND r.b IS NULL "
    "GROUP BY e.id HAVING SUM(e.a) >= 2"
).split()
VALID_DDL = (
    "CREATE TABLE r ( a INT PRIMARY KEY , b VARCHAR(10) ) ; "
    "CREATE TABLE s ( a INT , r_a INT REFERENCES r ( a ) , "
    "PRIMARY KEY ( a ) , FOREIGN KEY ( r_a ) REFERENCES r ( a ) )"
).split()


@st.composite
def near_misses(draw, words: list[str]):
    out = list(words)
    for _ in range(draw(st.integers(1, 4))):
        index = draw(st.integers(0, len(out) - 1)) if out else 0
        action = draw(st.sampled_from(["drop", "double", "swap"]))
        if not out:
            break
        if action == "drop":
            del out[index]
        elif action == "double":
            out.insert(index, out[index])
        else:
            out[index] = draw(st.sampled_from(LEXICON))
    return " ".join(out)


hostile_text = st.one_of(
    st.text(max_size=200),
    token_soup,
    near_misses(VALID),
    near_misses(VALID_DDL),
)

SETTINGS = settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("name", sorted(FRONT_ENDS))
@SETTINGS
@given(text=hostile_text)
def test_front_end_ends_in_result_or_library_error(name, text):
    within_deadline(FRONT_ENDS[name], text)


@pytest.mark.parametrize("name", sorted(FRONT_ENDS))
def test_deep_nesting_and_long_soup_end_in_time(name):
    for text in (
        "(" * 5000,
        "SELECT " + "(" * 3000 + "1" + ")" * 3000 + " FROM r",
        "SELECT * FROM r WHERE " + " AND ".join(["r.a = 1"] * 3000),
        "CREATE TABLE t (" + ", ".join(f"c{i} INT" for i in range(3000)) + ")",
        "SELECT * FROM " + " JOIN ".join(["r"] * 2000),
    ):
        within_deadline(FRONT_ENDS[name], text)
