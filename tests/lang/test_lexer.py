"""MiniC lexer tests."""

import hashlib
from pathlib import Path

import pytest

from repro.lang.lexer import LexError, tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)]


def values(src):
    return [t.value for t in tokenize(src)[:-1]]


def test_keywords_vs_identifiers():
    toks = tokenize("int x while whilex")
    assert [t.kind for t in toks[:-1]] == ["kw", "id", "kw", "id"]


def test_numbers():
    toks = tokenize("0 42 12345")
    assert [t.value for t in toks[:-1]] == [0, 42, 12345]
    assert all(t.kind == "num" for t in toks[:-1])


def test_float_literals():
    toks = tokenize("1.5 0.25 3.0")
    assert [t.kind for t in toks[:-1]] == ["fnum", "fnum", "fnum"]
    assert toks[0].value == 1.5


def test_integer_followed_by_dot_method():
    # "1." without digits is an int then an error char, not a float.
    with pytest.raises(LexError):
        tokenize("1.")


def test_char_literals_and_escapes():
    toks = tokenize(r"'a' '\n' '\t' '\0' '\\'")
    assert [t.value for t in toks[:-1]] == [97, 10, 9, 0, 92]
    assert all(t.kind == "num" for t in toks[:-1])


def test_unterminated_char():
    with pytest.raises(LexError):
        tokenize("'a")


def test_maximal_munch_operators():
    toks = tokenize("a<<=b")  # '<<' then '=' (no <<= operator)
    assert [t.kind for t in toks[:-1]] == ["id", "<<", "=", "id"]
    toks = tokenize("a<=b")
    assert [t.kind for t in toks[:-1]] == ["id", "<=", "id"]


def test_logical_operators():
    assert kinds("a && b || !c")[:-1] == ["id", "&&", "id", "||", "!",
                                          "id"]


def test_comments_are_skipped():
    toks = tokenize("a // line comment\nb /* block\ncomment */ c")
    assert [t.value for t in toks[:-1]] == ["a", "b", "c"]


def test_unterminated_block_comment():
    with pytest.raises(LexError):
        tokenize("/* never ends")


def test_line_numbers_advance():
    toks = tokenize("a\nb\n\nc")
    assert [t.line for t in toks[:-1]] == [1, 2, 4]


def test_unexpected_character():
    with pytest.raises(LexError):
        tokenize("a $ b")


def test_eof_token_present():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind == "eof"


#: SHA-256 over ``repr(tokenize(src))`` of every paper workload, every
#: corpus entry and the first 40 generated programs of seed 1, taken
#: from the lexer that scanned the operator list in order
TOKENS_GOLDEN = \
    "bfbd0ed4db0b98971a87e6a457c6663c4694777f2e76570592af22e608433785"


def test_token_lists_are_pinned():
    from repro.fuzz.generator import generate_case
    from repro.workloads.base import all_workloads
    corpus = Path(__file__).resolve().parents[2] / "corpus"
    sources = [w.source for w in all_workloads()]
    sources += [p.read_text() for p in sorted(corpus.glob("*/case.c"))]
    sources += [generate_case(1, i).source for i in range(40)]
    assert len(sources) == 73
    digest = hashlib.sha256()
    for source in sources:
        digest.update(repr(tokenize(source)).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == TOKENS_GOLDEN
