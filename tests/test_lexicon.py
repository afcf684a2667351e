import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfdetox.data import tokenize
from cfdetox.errors import ParseError, ValidationError
from cfdetox.lexicon import (
    Lexicon,
    load_lexicon,
    match_biased_tokens,
    save_lexicon,
)


def write_lexicon(tmp_path, text):
    path = tmp_path / "lex.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_single_identity_entry(tmp_path):
    lex = load_lexicon(write_lexicon(tmp_path, "gay,nOI\n"))
    assert len(lex.entries) == 1
    assert lex.category("gay") == "nOI"


def test_load_empty_file_is_valid(tmp_path):
    lex = load_lexicon(write_lexicon(tmp_path, ""))
    assert len(lex.entries) == 0
    assert not match_biased_tokens(["anything"], lex)


def test_load_masked_swear(tmp_path):
    lex = load_lexicon(write_lexicon(tmp_path, "f*ck,OnI\n"))
    assert lex.category("f*ck") == "OnI"


@pytest.mark.parametrize("line", ["zorp!,nOI", '"grax",OI', "¿que,OnI", "«mot»,OI", "-x,OI", "ok.,OI"])
def test_load_rejects_surface_with_edge_punctuation(tmp_path, line):
    # tokenization strips edge punctuation, so such a surface never matches
    with pytest.raises(ValidationError, match=r"lex\.csv:2: .*starts or ends with punctuation"):
        load_lexicon(write_lexicon(tmp_path, f"gay,nOI\n{line}\n"))


@given(surface=st.text(st.characters(exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp"), exclude_characters=",#"),
                       min_size=1, max_size=6))
def test_load_accepts_exactly_the_surfaces_tokenization_keeps(tmp_path_factory, surface):
    # lexicon cannot import data, so its edge rule is checked against
    # tokenize here: a surface loads iff it tokenizes to itself
    assume(not any(ch.isspace() for ch in surface) and not surface.startswith("\ufeff"))
    path = tmp_path_factory.mktemp("lex") / "lex.csv"
    path.write_text(f"{surface},OI\n", encoding="utf-8")
    try:
        loaded = set(load_lexicon(path).entries)
    except ValidationError:
        loaded = set()
    keeps = tokenize(surface) == [surface.lower()]
    assert loaded == ({surface.lower()} if keeps else set())


def test_load_comments_and_blank_lines(tmp_path):
    lex = load_lexicon(write_lexicon(tmp_path, "# comment\n\ngay,nOI\n"))
    assert len(lex.entries) == 1


def test_load_uppercase_surface_is_lowercased(tmp_path):
    lex = load_lexicon(write_lexicon(tmp_path, "Gay,nOI\n"))
    assert "gay" in lex.entries


def test_load_skips_leading_byte_order_mark(tmp_path):
    lex = load_lexicon(write_lexicon(tmp_path, "\ufeffzorp,nOI\ngrax,OI\n"))
    assert match_biased_tokens(("the", "zorp", "grax"), lex) == ("zorp", "grax")


def test_load_malformed_line_reports_line_number(tmp_path):
    with pytest.raises(ParseError, match=":2:"):
        load_lexicon(write_lexicon(tmp_path, "gay,nOI\nnot-a-pair\n"))


def test_load_unknown_category(tmp_path):
    with pytest.raises(ValidationError, match="unknown category"):
        load_lexicon(write_lexicon(tmp_path, "gay,xyz\n"))


def test_load_conflicting_duplicate(tmp_path):
    with pytest.raises(ValidationError, match="both"):
        load_lexicon(write_lexicon(tmp_path, "gay,nOI\ngay,OI\n"))


def test_load_consistent_duplicate_ok(tmp_path):
    lex = load_lexicon(write_lexicon(tmp_path, "gay,nOI\ngay,nOI\n"))
    assert len(lex.entries) == 1


def test_save_load_round_trip(tmp_path, tiny_lexicon):
    path = tmp_path / "out.csv"
    save_lexicon(path, tiny_lexicon, header="test")
    assert load_lexicon(path).entries == tiny_lexicon.entries


def test_match_swears_in_order(tiny_lexicon):
    tokens = ["my", "ex", "so", "ugly", "...", "hoe", "ass"]
    matched = match_biased_tokens(tokens, tiny_lexicon)
    assert matched == ("hoe", "ass")
    assert set(map(tiny_lexicon.category, matched)) == {"OnI"}


def test_match_nothing(tiny_lexicon):
    assert match_biased_tokens(["hello", "world"], tiny_lexicon) == ()


def test_match_case_insensitive_keeps_duplicates(tiny_lexicon):
    matched = match_biased_tokens(["Black", "BLACK"], tiny_lexicon)
    assert matched == ("black", "black")
    assert set(map(tiny_lexicon.category, matched)) == {"nOI"}


def test_match_no_substring_matching(tiny_lexicon):
    # "class" must not match "ass"
    assert not match_biased_tokens(["class"], tiny_lexicon)


def _brute_force(tokens, lexicon):
    out = []
    for tok in tokens:
        for surface in lexicon.entries:
            if tok.lower() == surface:
                out.append(surface)
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(
    tokens=st.lists(st.text(alphabet="abczorpBZOR*", min_size=1, max_size=6), max_size=12),
    surfaces=st.sets(st.text(alphabet="abczorp*", min_size=1, max_size=4), max_size=5),
)
def test_match_agrees_with_brute_force(tokens, surfaces):
    lexicon = Lexicon({s: "OnI" for s in surfaces})
    matched = match_biased_tokens(tokens, lexicon)
    assert matched == _brute_force(tokens, lexicon)
    assert all(t in lexicon.entries for t in matched)


@settings(max_examples=100, deadline=None)
@given(tokens=st.lists(st.sampled_from(["hoe", "ass", "black", "other", "HOE"]), max_size=8))
def test_match_idempotent_under_self_union(tokens, ):
    lex = Lexicon({"hoe": "OnI", "ass": "OnI", "black": "nOI"})
    doubled = Lexicon(dict(lex.entries))  # union with itself
    assert match_biased_tokens(tokens, lex) == match_biased_tokens(tokens, doubled)
