"""The one-pass regular-expression tokenizer against the character loop it
replaced.

``model._tokenize`` matches one compiled pattern over the text and keeps
each token's character offset; the line and column are worked out from
the offset only when an error is raised.  The oracle below is the loop
as it was before, which counts lines and columns as it goes, with one
change: it advances the column over a comment, so that its end-of-input
token sits at ``len(text)`` as the new one does (the one intended change
of behaviour, pinned in ``tests/test_model.py``).  Both must give the
same ``(kind, value, line, col)`` tokens or the same ``ParseError`` on
texts drawn from fragments of the grammar and on every built-in problem.
"""

from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from intprop import bench, model
from intprop.model import ParseError

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

_SYMBOLS = ("<=", ">=", "!=", "..", "<", ">", "=", ";", "^", "*", "+", "-",
            "(", ")", "[", "]")

_DIGITS = "0123456789"


def tokenize_oracle(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > model._MAX_DIGITS:
                raise ParseError("an integer literal has at most %d digits"
                                 % model._MAX_DIGITS, line, col)
            lit = text[i:j]
            tokens.append(("int", int(lit) if j - i <= 640
                           else int(Decimal(lit)), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(("eof", None, line, col))
    return tokens


def tokens_with_positions(text):
    out = []
    for kind, value, offset in model._tokenize(text):
        at = model._error_at(text, offset, "")
        out.append((kind, value, at.line, at.col))
    return out


def outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as e:
        return str(e)


def assert_same_tokens(text):
    assert (outcome(tokens_with_positions, text)
            == outcome(tokenize_oracle, text))


# grammar fragments, and characters that sit at the edges of the token
# rules: a superscript two (a digit to str.isdigit and a word character to
# the regular expressions, but not a letter), an Arabic-Indic three (a
# decimal digit, but not ASCII), a letter beyond ASCII, a no-break space
# and a vertical tab (whitespace to str.isspace only)
FRAGMENTS = ["var", "in", "[", "]", "..", "Z", "constraint", "=", "!=",
             "<", "<=", ">", ">=", "^", "*", "+", "-", "(", ")", ";",
             "solve all", "maximize", "#", "# a comment", "\n", " ", "\t",
             "\r", "_", "1" * 641, "2" * 4301]
EDGES = ["\u00b2", "\u0663", "\u00e9", "\xa0", "\x0b", "!", "."]

texts = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.sampled_from(EDGES),
              st.integers(0, 10 ** 6).map(str),
              st.from_regex(r"[a-z_][a-z0-9_]{0,3}", fullmatch=True)),
    max_size=30).map("".join)


@SETTINGS
@given(texts)
def test_tokens_match_the_oracle(text):
    assert_same_tokens(text)


def test_builtin_problem_texts_match_the_oracle(monkeypatch):
    seen = []
    monkeypatch.setattr(bench, "parse", seen.append)
    for name, builder in bench.BENCHMARKS.items():
        builder()
        if name != "fractions":
            builder(2)
    assert len(seen) == 9
    for text in seen:
        assert_same_tokens(text)
