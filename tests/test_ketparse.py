import io
import json
import math
import re
import sys
import tracemalloc
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etensor import ketparse
from etensor import states as states_module
from etensor.ketparse import (
    KetFormatError,
    KetSyntaxError,
    load_ket_json,
    parse_amplitudes,
    parse_ket,
    save_ket_json,
    state_document,
    state_from_dict,
    state_to_dict,
    write_json,
)
from etensor.states import (
    NormalizationError,
    PartyStructure,
    StateVector,
    flat_index,
    random_state,
)


class TestGrammar:
    def test_epr(self):
        state = parse_ket("(|0,0> + |1,1>)/sqrt(2)")
        assert state.structure.dims == (2, 2)
        root_half = 1 / math.sqrt(2)
        assert state.amplitude((0, 0)) == pytest.approx(root_half, abs=1e-15)
        assert state.amplitude((1, 1)) == pytest.approx(root_half, abs=1e-15)
        assert state.amplitude((0, 1)) == 0

    def test_w3(self):
        state = parse_ket("(|1,0,0> + |0,1,0> + |0,0,1>)/sqrt(3)")
        assert state.structure.dims == (2, 2, 2)
        third = 1 / math.sqrt(3)
        for tup in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert state.amplitude(tup) == pytest.approx(third, abs=1e-15)

    def test_unnormalized_rejected_with_norm_in_message(self):
        with pytest.raises(NormalizationError, match="0.666666"):
            parse_ket("(|0,0,0> + |1,1,1>)/sqrt(3)")

    def test_normalize_flag(self):
        state = parse_ket("(|0,0,0> + |1,1,1>)/sqrt(3)", normalize=True)
        assert state.amplitude((0, 0, 0)) == pytest.approx(1 / math.sqrt(2))

    def test_minus_and_leading_sign(self):
        state = parse_ket("-(|0,0> - |1,1>)/sqrt(2)")
        assert state.amplitude((0, 0)) == pytest.approx(-1 / math.sqrt(2))
        assert state.amplitude((1, 1)) == pytest.approx(1 / math.sqrt(2))

    def test_imaginary_coefficient(self):
        state = parse_ket("(|0,1> + i*|1,0>)/sqrt(2)")
        assert state.amplitude((1, 0)) == pytest.approx(1j / math.sqrt(2))

    def test_decimal_and_fraction_scalars(self):
        state = parse_ket("0.6|0,0> + 0.8|1,1>")
        assert state.amplitude((0, 0)) == pytest.approx(0.6)
        state = parse_ket("3/5*|0,0> + 4/5*|1,1>")
        assert state.amplitude((1, 1)) == pytest.approx(0.8)

    def test_scalar_products(self):
        state = parse_ket("(sqrt(2)*i*|0,1> + sqrt(2)*|1,0>)/2")
        assert state.amplitude((0, 1)) == pytest.approx(1j / math.sqrt(2))

    def test_repeated_kets_are_summed(self):
        state = parse_ket("(|0,0> + |0,0> + |1,1> + |1,1>)/sqrt(8)")
        assert state.amplitude((0, 0)) == pytest.approx(1 / math.sqrt(2))

    def test_zero_vector(self):
        with pytest.raises(NormalizationError, match="zero vector"):
            parse_ket("|0,0> - |0,0>")

    def test_division_at_state_level(self):
        state = parse_ket("|0,0>/1")
        assert state.amplitude((0, 0)) == 1.0

    def test_qudit_digits(self):
        state = parse_ket("(|0,0> + |2,1>)/sqrt(2)")
        assert state.structure.dims == (3, 2)

    @pytest.mark.parametrize("ket", [
        "|0,\n1>", "|0,\r\n1>", "|0,\u00a01>", "|0 ,\t1>", "|\n0,1\n>",
        "|0\x0b,\x0c1>", "|0\n1>",
    ])
    def test_whitespace_inside_a_ket(self, ket):
        state = parse_ket(f"(|1,0> + {ket})/sqrt(2)")
        assert state.structure.dims == (2, 2)
        assert state.amplitude((0, 1)) == state.amplitude((1, 0)) == pytest.approx(
            1 / math.sqrt(2))

    def test_positions_after_a_ket_across_lines(self):
        with pytest.raises(KetSyntaxError) as err:
            parse_ket("(|0,\n1> + |1,0>)/0")
        assert (err.value.reason, err.value.line, err.value.col) == (
            "division by zero", 2, 12)

    def test_bad_ket_keeps_its_whitespace_in_the_message(self):
        with pytest.raises(KetSyntaxError) as err:
            parse_ket("|0,\na>")
        assert err.value.reason == "ket components must be integers, got |0,\na>"


class TestCompactForm:
    def test_compact_qubits(self):
        state = parse_ket("(|0110> + |1001>)/sqrt(2)")
        assert state.structure.dims == (2, 2, 2, 2)
        assert state.amplitude((0, 1, 1, 0)) == pytest.approx(1 / math.sqrt(2))

    def test_compact_rejects_qudit_digit(self):
        with pytest.raises(KetSyntaxError, match="compact"):
            parse_ket("|012>")

    def test_compact_rejected_under_qudit_hint(self):
        hint = PartyStructure((2, 3))
        with pytest.raises(KetSyntaxError, match="compact"):
            parse_ket("(|00> + |11>)/sqrt(2)", structure_hint=hint)

    def test_single_digit_is_one_party(self):
        state = parse_ket("(|0> + |3>)/sqrt(2)")
        assert state.structure.dims == (4,)


class TestErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(KetSyntaxError) as err:
            parse_ket("(|0,0> + ")
        assert err.value.line == 1
        assert err.value.col == 10

    def test_unterminated_ket(self):
        with pytest.raises(KetSyntaxError, match="unterminated"):
            parse_ket("|0,0")

    def test_bad_character(self):
        with pytest.raises(KetSyntaxError, match="unexpected character"):
            parse_ket("|0,0> ^ |1,1>")

    def test_bad_ket_contents(self):
        with pytest.raises(KetSyntaxError, match="integers"):
            parse_ket("|0,a>")

    def test_arity_mismatch(self):
        with pytest.raises(KetSyntaxError, match="arity"):
            parse_ket("|0,0> + |0,0,0>")

    def test_hint_dimension_violation(self):
        hint = PartyStructure((2, 2))
        with pytest.raises(KetSyntaxError, match="exceeds hinted dimension"):
            parse_ket("|0,2>", structure_hint=hint)

    def test_hint_arity_violation(self):
        hint = PartyStructure((2, 2, 2))
        with pytest.raises(KetSyntaxError, match="parties"):
            parse_ket("(|0,0> + |1,1>)/sqrt(2)", structure_hint=hint)

    # these checks run after parsing, and were all placed at 1:1
    @pytest.mark.parametrize("text, dims, error", [
        ("(|0,0> +\n\n |0,0,0>)/sqrt(2)", None,
         ("inconsistent ket arity: found both 2 and 3 parties", 3, 2)),
        ("\n (|0,1> + |1,1>)/sqrt(2)", (2, 2, 2),
         ("expression has 2 parties but the structure hint has 3", 2, 3)),
        ("|0,1> +\n |0,2>", (2, 2),
         ("digit 2 exceeds hinted dimension 2 for party 2", 2, 2)),
        ("|0,1> + |01> + |10>", (2, 3),
         ("compact kets require every party dimension to be 2", 1, 9)),
    ], ids=["arity", "hint-arity", "hint-digit", "compact-under-hint"])
    def test_checks_after_parsing_are_placed_at_their_ket(self, text, dims, error):
        hint = None if dims is None else PartyStructure(dims)
        with pytest.raises(KetSyntaxError) as err:
            parse_amplitudes(text, hint)
        assert (err.value.reason, err.value.line, err.value.col) == error

    def test_trailing_garbage(self):
        with pytest.raises(KetSyntaxError, match="trailing"):
            parse_ket("|0,0> |1,1>")

    def test_division_by_zero(self):
        with pytest.raises(KetSyntaxError, match="zero"):
            parse_ket("|0,0>/0")

    @pytest.mark.parametrize("text, col", [
        ("|0,0>/0", 6), ("(|0> + |1>)/0", 12), ("((|0> + |1>)/0)/2", 13),
    ])
    def test_division_by_zero_is_placed_at_its_slash(self, text, col):
        with pytest.raises(KetSyntaxError) as err:
            parse_ket(text)
        assert (err.value.reason, err.value.col) == ("division by zero", col)

    # str.isdigit accepts these, but int() fails on "²" and reads "٣" as 3
    @pytest.mark.parametrize("text, reason, col", [
        ("²|0,0>+|1,1>", "unexpected character '²'", 1),
        ("|0>/²", "unexpected character '²'", 5),
        ("1²|0>", "unexpected character '²'", 2),
        ("٣|0>", "unexpected character '٣'", 1),
        ("0.٣|0>", "unexpected character '٣'", 3),
        ("|²>", "ket components must be integers, got |²>", 1),
        ("|0,٣>", "ket components must be integers, got |0,٣>", 1),
    ])
    def test_digits_are_ascii(self, text, reason, col):
        with pytest.raises(KetSyntaxError) as err:
            parse_ket(text, normalize=True)
        assert (err.value.reason, err.value.line, err.value.col) == (reason, 1, col)

    @pytest.mark.parametrize("text, col", [
        ("sqrt(1" + "0" * 400 + ")|0>", 1),
        ("|1> + 1" + "0" * 400 + "|0>", 7),
        ("1" + "0" * 400 + "/3|0>", 1),
    ], ids=["sqrt", "coefficient", "fraction"])
    def test_integer_past_the_float_range(self, text, col):
        with pytest.raises(KetSyntaxError) as err:
            parse_ket(text, normalize=True)
        assert (err.value.reason, err.value.col) == ("number too large for a float", col)

    # int() refuses decimal strings past sys.get_int_max_str_digits() (4300)
    @pytest.mark.parametrize("text, col", [
        ("1" * 5000 + "|0>", 1),
        ("|1> + sqrt(" + "1" * 5000 + ")|0>", 12),
        ("(|0> + |1,0," + "1" * 5000 + ">)/2", 8),
        ("2/" + "1" * 5000 + "|0>", 3),
        ("(|0> + |1>)/" + "1" * 5000, 13),
    ], ids=["coefficient", "sqrt", "ket", "denominator", "divisor"])
    def test_integer_past_the_digit_limit(self, text, col):
        with pytest.raises(KetSyntaxError) as err:
            parse_ket(text, normalize=True)
        assert (err.value.reason, err.value.col) == (
            "integer literal of 5,000 digits is too long", col)


@dataclass(frozen=True)
class _ReferenceToken:
    kind: str
    text: str
    line: int
    col: int


_REFERENCE_PUNCT = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH",
                    "(": "LPAREN", ")": "RPAREN"}


def reference_tokenize(text: str) -> list[_ReferenceToken]:
    """The per-character tokenizer the compiled scanner replaced."""
    tokens: list[_ReferenceToken] = []
    i = 0
    line, col = 1, 1
    n = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch.isspace():
            advance(1)
            continue
        start_line, start_col = line, col
        if ch in _REFERENCE_PUNCT:
            tokens.append(_ReferenceToken(_REFERENCE_PUNCT[ch], ch, start_line, start_col))
            advance(1)
            continue
        if ch == "|":
            j = text.find(">", i + 1)
            if j < 0:
                raise KetSyntaxError("unterminated ket", start_line, start_col)
            inner = text[i + 1 : j]
            tokens.append(_ReferenceToken("KET", inner, start_line, start_col))
            advance(j + 1 - i)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(_ReferenceToken("DECIMAL" if seen_dot else "INT",
                                          text[i:j], start_line, start_col))
            advance(j - i)
            continue
        if text.startswith("sqrt", i):
            tokens.append(_ReferenceToken("SQRT", "sqrt", start_line, start_col))
            advance(4)
            continue
        if ch == "i" or ch == "I":
            tokens.append(_ReferenceToken("IMAG", ch, start_line, start_col))
            advance(1)
            continue
        raise KetSyntaxError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_ReferenceToken("EOF", "", line, col))
    return tokens


class _PositionedToken(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def positioned_tokens(text: str) -> list[_PositionedToken]:
    """``ketparse._tokenize``'s tokens, each placed as an error there would be.

    A ket's text is shown without its bars, as ``reference_tokenize`` has it.
    """
    texts, kinds = ketparse._tokenize(text)
    return [_PositionedToken(kind, token[1:-1] if kind == "KET" else token,
                             *ketparse._place(text, index))
            for index, (token, kind) in enumerate(zip(texts, kinds))]


def _tokens_or_error(tokenize, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except KetSyntaxError as exc:
        return ("error", exc.reason, exc.line, exc.col)


# ---------------------------------------------------------------------------
# the parser of the positioned-token scanner, kept as the reference


def _reference_integer(text: str, tok: _ReferenceToken) -> int:
    """``int(text)``; past Python's digit limit it is a parse error at ``tok``."""
    try:
        return int(text)
    except ValueError:
        raise KetSyntaxError(f"integer literal of {len(text):,} digits is too "
                             "long", tok.line, tok.col) from None


_ReferenceTerms = list[tuple[complex, tuple[int, ...]]]


class _ReferenceParser:
    def __init__(self, text: str):
        self.tokens = reference_tokenize(text)
        self.pos = 0
        self.compact_used = False

    def peek(self) -> _ReferenceToken:
        return self.tokens[self.pos]

    def take(self, kind: str | None = None) -> _ReferenceToken:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise KetSyntaxError(
                f"expected {kind}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col,
            )
        self.pos += 1
        return tok

    def parse(self) -> _ReferenceTerms:
        terms = self.parse_state()
        tok = self.peek()
        if tok.kind != "EOF":
            raise KetSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.line, tok.col
            )
        return terms

    def parse_state(self) -> _ReferenceTerms:
        terms: _ReferenceTerms = []
        sign = 1.0
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = -1.0 if self.take().kind == "MINUS" else 1.0
        terms.extend((sign * c, k) for c, k in self.parse_term())
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = -1.0 if self.take().kind == "MINUS" else 1.0
            terms.extend((sign * c, k) for c, k in self.parse_term())
        return self.divided(terms)

    def divided(self, terms: _ReferenceTerms) -> _ReferenceTerms:
        if self.peek().kind != "SLASH":
            return terms
        slash = self.take()
        divisor = self.parse_scalar()
        if divisor == 0:
            raise KetSyntaxError("division by zero", slash.line, slash.col)
        return [(c / divisor, k) for c, k in terms]

    def parse_term(self) -> _ReferenceTerms:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.take()
            terms = self.parse_state()
            self.take("RPAREN")
            return self.divided(terms)
        coeff = complex(1.0)
        if tok.kind in ("INT", "DECIMAL", "SQRT", "IMAG"):
            coeff = self.parse_scalar()
            if self.peek().kind == "STAR":
                self.take()
        ket_tok = self.take("KET")
        return [(coeff, self._ket_components(ket_tok))]

    def parse_scalar(self) -> complex:
        value = self._scalar_atom()
        while self.peek().kind == "STAR" and self.tokens[self.pos + 1].kind in (
            "INT", "DECIMAL", "SQRT", "IMAG",
        ):
            self.take()
            value *= self._scalar_atom()
        return value

    def _scalar_atom(self) -> complex:
        tok = self.take()
        if tok.kind == "DECIMAL":
            return complex(float(tok.text))
        if tok.kind == "IMAG":
            return 1j
        try:
            if tok.kind == "INT":
                if (
                    self.peek().kind == "SLASH"
                    and self.tokens[self.pos + 1].kind == "INT"
                ):
                    self.take()
                    denom_tok = self.take("INT")
                    denom = _reference_integer(denom_tok.text, denom_tok)
                    if denom == 0:
                        raise KetSyntaxError("division by zero", tok.line, tok.col)
                    return complex(_reference_integer(tok.text, tok) / denom)
                return complex(_reference_integer(tok.text, tok))
            if tok.kind == "SQRT":
                self.take("LPAREN")
                arg = self.take("INT")
                self.take("RPAREN")
                return complex(math.sqrt(_reference_integer(arg.text, arg)))
        except OverflowError:
            raise KetSyntaxError(
                "number too large for a float", tok.line, tok.col
            ) from None
        raise KetSyntaxError(
            f"expected a scalar, found {tok.text or 'end of input'!r}",
            tok.line, tok.col,
        )

    def _ket_components(self, tok: _ReferenceToken) -> tuple[int, ...]:
        # the one change from the scanner's parser: every whitespace
        # character is stripped, where it stripped only spaces and tabs
        inner = "".join(tok.text.split())
        if not inner:
            raise KetSyntaxError("empty ket", tok.line, tok.col)
        if "," in inner:
            parts = inner.split(",")
            if not inner.isascii() or not all(map(str.isdigit, parts)):
                raise KetSyntaxError(
                    f"ket components must be integers, got |{tok.text}>",
                    tok.line, tok.col,
                )
            return tuple(_reference_integer(p, tok) for p in parts)
        if not (inner.isascii() and inner.isdigit()):
            raise KetSyntaxError(
                f"ket components must be integers, got |{tok.text}>",
                tok.line, tok.col,
            )
        if len(inner) == 1:
            return (int(inner),)
        if any(c not in "01" for c in inner):
            raise KetSyntaxError(
                "compact kets are for qubits only; use the comma form "
                f"for |{tok.text}>",
                tok.line, tok.col,
            )
        self.compact_used = True
        return tuple(int(c) for c in inner)


def reference_parse_amplitudes(
    text: str, structure_hint: PartyStructure | None = None
) -> tuple[PartyStructure, np.ndarray]:
    parser = _ReferenceParser(text)
    terms = parser.parse()
    if not terms:
        raise KetSyntaxError("empty expression", 1, 1)
    if (
        parser.compact_used
        and structure_hint is not None
        and any(n != 2 for n in structure_hint.dims)
    ):
        raise KetSyntaxError(
            "compact kets require every party dimension to be 2", 1, 1
        )
    arity = len(terms[0][1])
    for _, ket in terms:
        if len(ket) != arity:
            raise KetSyntaxError(
                f"inconsistent ket arity: found both {arity} and {len(ket)} parties",
                1, 1,
            )
    if structure_hint is not None:
        if structure_hint.num_parties != arity:
            raise KetSyntaxError(
                f"expression has {arity} parties but the structure hint has "
                f"{structure_hint.num_parties}",
                1, 1,
            )
        structure = structure_hint
        for _, ket in terms:
            for party, (k, n) in enumerate(zip(ket, structure.dims)):
                if k >= n:
                    raise KetSyntaxError(
                        f"digit {k} exceeds hinted dimension {n} for party "
                        f"{party + 1}",
                        1, 1,
                    )
    else:
        dims = tuple(
            max(2, 1 + max(ket[j] for _, ket in terms)) for j in range(arity)
        )
        structure = PartyStructure(dims)
    amps = ketparse._zero_amplitudes(structure)
    for coeff, ket in terms:
        amps[flat_index(structure, ket)] += coeff
    return structure, amps


# the grammar's characters, whitespace including a newline, two non-ASCII
# digits (a superscript and an Arabic-Indic digit, which int() reads) and a
# few characters the grammar refuses
KET_ALPHABET = list("0123456789|<>,+-*/().sqrtiI x\n\t\r\u00a0²٣")


class TestTokenizerAgainstReference:
    @given(st.text(alphabet=KET_ALPHABET, max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_tokens_and_errors_match(self, text):
        got = _tokens_or_error(positioned_tokens, text)
        if text.isascii() or not any(c.isdigit() for c in text if not c.isascii()):
            assert got == _tokens_or_error(reference_tokenize, text)
        elif got[0] != "error":
            # outside a ket, a non-ASCII digit is never part of a number
            assert all(kind == "KET" or tok.isascii() for kind, tok, *_ in got)

    def test_token_is_a_named_tuple(self):
        assert positioned_tokens("2|0>")[0] == ("INT", "2", 1, 1)

    @pytest.mark.parametrize("text", [
        "(|0,0>\n + |1,\n1>)/sqrt(2)\n", "\n\n  |0>  \n", "|0>\n^", "\t|0",
        "1.5.2|0>", ".|0>", "sqr", "",
    ])
    def test_positions_across_lines(self, text):
        assert (_tokens_or_error(positioned_tokens, text)
                == _tokens_or_error(reference_tokenize, text))


# scalar atoms of the grammar, as token lists
_SCALAR_ATOMS = st.one_of(
    st.integers(0, 12).map(lambda n: [str(n)]),
    st.builds("{}.{}".format, st.integers(0, 9),
              st.sampled_from(["", "5", "25", "125"])).map(lambda t: [t]),
    st.integers(0, 99).map(lambda n: [f".{n}"]),
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(
        lambda f: [str(f[0]), "/", str(f[1])]),
    st.integers(0, 9).map(lambda n: ["sqrt", "(", str(n), ")"]),
    st.sampled_from([["i"], ["I"]]),
)
_SEPARATORS = st.sampled_from(["", " ", " ", "\n", " \n\t", "\r\n", "\u00a0"])


@st.composite
def ket_sums(draw):
    """Sums of terms in the grammar, with whitespace between any two tokens.

    Signs, decimals, fractions, ``sqrt(n)``, ``i``, scalar products, nested
    parentheses and ``/ scalar``; kets may hold whitespace or be compact.
    One token in four texts is dropped, for errors at every depth.
    """
    arity = draw(st.integers(1, 4))
    tokens: list[str] = []

    def scalar():
        for n, atom in enumerate(draw(st.lists(_SCALAR_ATOMS, min_size=1,
                                               max_size=3))):
            tokens.extend((["*"] if n else []) + atom)

    def ket():
        digits = draw(st.lists(st.integers(0, 2), min_size=arity,
                               max_size=arity))
        if arity > 1 and draw(st.integers(0, 5)) == 0:
            tokens.append("|" + "".join(str(min(d, 1)) for d in digits) + ">")
            return
        comma = draw(st.sampled_from([",", ",", ", ", ",\n", " ,\t"]))
        tokens.append("|" + comma.join(map(str, digits)) + ">")

    def state(depth):
        for n in range(draw(st.integers(1, 3))):
            sign = draw(st.sampled_from(["+", "-"] if n else ["", "", "+", "-"]))
            tokens.extend([sign] if sign else [])
            if depth < 3 and draw(st.integers(0, 3)) == 0:
                tokens.append("(")
                state(depth + 1)
                tokens.append(")")
            else:
                if draw(st.booleans()):
                    scalar()
                    tokens.extend(draw(st.sampled_from([[], ["*"]])))
                ket()
        if draw(st.integers(0, 2)) == 0:
            tokens.append("/")
            scalar()

    state(0)
    if draw(st.integers(0, 3)) == 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    return "".join(draw(_SEPARATORS) + token for token in tokens) + draw(_SEPARATORS)


def _parsed(parse, text, hint=None):
    """Dims and amplitude bits, or the error, of ``parse(text, hint)``."""
    try:
        structure, amps = parse(text, hint)
    except KetSyntaxError as exc:
        return ("error", exc.reason, exc.line, exc.col)
    except KetFormatError as exc:  # over the test's amplitude budget
        return ("format error", str(exc))
    return structure.dims, amps.tobytes()


def offending_ket(text: str, reason: str) -> tuple[int, int] | None:
    """Line and column of the ket that a check after parsing names in ``reason``.

    The reference places these four errors at 1:1; ``parse_amplitudes``
    places them at the ket, found here from ``positioned_tokens``.  None for
    every other reason.
    """
    if not re.match(r"inconsistent ket arity|expression has|digit \d+ exceeds|"
                    r"compact kets require", reason):
        return None
    kets = [(t.line, t.col, "".join(t.text.split()))
            for t in positioned_tokens(text) if t.kind == "KET"]

    def parts(inner):
        return inner.split(",") if "," in inner else list(inner)

    if match := re.fullmatch(r"inconsistent ket arity: found both \d+ and (\d+) "
                             r"parties", reason):
        return next((line, col) for line, col, inner in kets
                    if len(parts(inner)) == int(match[1]))
    if re.fullmatch(r"expression has \d+ parties but the structure hint has \d+",
                    reason):
        return kets[0][:2]
    if match := re.fullmatch(r"digit \d+ exceeds hinted dimension (\d+) for "
                             r"party (\d+)", reason):
        dim, party = int(match[1]), int(match[2]) - 1
        return next((line, col) for line, col, inner in kets
                    if int(parts(inner)[party]) >= dim)
    if reason == "compact kets require every party dimension to be 2":
        return next((line, col) for line, col, inner in kets
                    if "," not in inner and len(inner) > 1)
    return None


class TestParserAgainstReference:
    """``parse_amplitudes`` against the positioned-token parser above.

    Dims, amplitude bits and reasons must be the reference's, and so must
    every position but those of the four checks after parsing, which must
    be at the offending ket.
    """

    @staticmethod
    def assert_same(text, hint=None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(states_module, "MAX_TOTAL_DIM", 4096)
            got = _parsed(parse_amplitudes, text, hint)
            want = _parsed(reference_parse_amplitudes, text, hint)
        if want[0] == "error" and (place := offending_ket(text, want[1])):
            want = (*want[:2], *place)
        assert got == want, text

    @given(st.text(alphabet=KET_ALPHABET, max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_alphabet_texts(self, text):
        # reference_tokenize reads a non-ASCII digit outside a ket as a digit
        if text.isascii() or not any(c.isdigit() for c in text if not c.isascii()):
            self.assert_same(text)

    @given(ket_sums())
    @settings(max_examples=300, deadline=None)
    def test_sums_of_terms(self, text):
        self.assert_same(text)

    @given(ket_sums(), st.lists(st.sampled_from([2, 3]), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_sums_of_terms_under_a_hint(self, text, dims):
        self.assert_same(text, PartyStructure(tuple(dims)))

    @pytest.mark.parametrize("text", [
        "-(\n3/5*|0,1>\n - 4/5 * i *|1,0>\n)",
        "((|0,0> + |1,\n1>)/sqrt\n(\n2\n) - .5*I|1,0>)/1.25",
        "(|0110>\n+|1001>)\n/sqrt(2)",
        "(|0,0>\n + |1,1>)\n/ sqrt(2) + |2,2>",
        "(|0,0>\n +\n |1,1> ^)/sqrt(2)",
        "(|0,0>\n +\n 2 * *|1,1>)",
        "|0>\n\n/0",
    ])
    def test_examples_across_lines(self, text):
        self.assert_same(text)


class TestPositionsOnlyOnError:
    """Token positions are worked out only when an error is raised."""

    W7 = ("(|1,0,0,0,0,0,0> + |0,1,0,0,0,0,0>\n + |0,0,1,0,0,0,0> + "
          "|0,0,0,1,0,0,0>\n + |0,0,0,0,1,0,0> + |0,0,0,0,0,1,0>\n"
          " + |0,0,0,0,0,0,1>)/sqrt(7)\n")

    @pytest.fixture
    def placed(self, monkeypatch):
        calls = []
        place = ketparse._place

        def counted(text, index):
            calls.append(index)
            return place(text, index)

        monkeypatch.setattr(ketparse, "_place", counted)
        return calls

    def test_valid_expression_places_no_token(self, placed):
        state = parse_ket(self.W7)
        assert state.structure.dims == (2,) * 7
        assert placed == []

    @pytest.mark.parametrize("old, new, error", [
        ("(7)\n", "(7) ^", ("unexpected character '^'", 4, 29)),
        ("sqrt(7)", "0", ("division by zero", 4, 20)),
        ("|0,1,0,0,0,0,0>", "|0,1,0,0,0,0,x>", (
            "ket components must be integers, got |0,1,0,0,0,0,x>", 1, 20)),
    ])
    def test_an_error_places_one_token(self, placed, old, new, error):
        with pytest.raises(KetSyntaxError) as err:
            parse_ket(self.W7.replace(old, new))
        assert (err.value.reason, err.value.line, err.value.col) == error
        assert len(placed) == 1


class TestLinearity:
    @given(
        st.integers(1, 9), st.integers(1, 9),
        st.integers(2, 9), st.integers(2, 9),
    )
    @settings(max_examples=40)
    def test_raw_parse_is_linear(self, a_num, a_den, b_num, b_den):
        expr = f"{a_num}/{a_den}*|0,1> + {b_num}/{b_den}*|1,0>"
        _, amps = parse_amplitudes(expr)
        _, e1 = parse_amplitudes("|0,1>", PartyStructure((2, 2)))
        _, e2 = parse_amplitudes("|1,0>", PartyStructure((2, 2)))
        expected = (a_num / a_den) * e1 + (b_num / b_den) * e2
        assert np.array_equal(amps, expected)


class TestJsonFormat:
    def test_round_trip_bit_for_bit(self, tmp_path):
        exprs = [
            "(|0,0> + |1,1>)/sqrt(2)",
            "(|1,0,0> + i*|0,1,0> - |0,0,1>)/sqrt(3)",
            "0.6|0,0> + 0.8|1,1>",
        ]
        for i, expr in enumerate(exprs):
            state = parse_ket(expr)
            path = tmp_path / f"case{i}.ket.json"
            save_ket_json(state, str(path))
            loaded = load_ket_json(str(path))
            assert loaded.structure.dims == state.structure.dims
            assert np.array_equal(loaded.amplitudes, state.amplitudes)

    def test_dict_round_trip(self):
        state = parse_ket("(|0,2> + |1,0>)/sqrt(2)")
        again = state_from_dict(state_to_dict(state))
        assert np.array_equal(again.amplitudes, state.amplitudes)

    def test_omitted_indices_are_zero(self):
        doc = {"dims": [2, 2],
               "amplitudes": [{"index": [0, 0], "re": 1.0, "im": 0.0}]}
        state = state_from_dict(doc)
        assert state.amplitude((1, 1)) == 0

    def test_duplicate_index_rejected(self):
        doc = {"dims": [2, 2], "amplitudes": [
            {"index": [0, 0], "re": 0.7, "im": 0.0},
            {"index": [0, 0], "re": 0.7, "im": 0.0},
        ]}
        with pytest.raises(KetFormatError, match="duplicate"):
            state_from_dict(doc)

    def test_bad_dims_rejected(self):
        with pytest.raises(KetFormatError):
            state_from_dict({"dims": [1, 2], "amplitudes": []})
        with pytest.raises(KetFormatError):
            state_from_dict({"amplitudes": []})

    @pytest.mark.parametrize("amplitudes", [None, 3, True])
    def test_non_list_amplitudes_rejected(self, amplitudes):
        doc = {"dims": [2, 2], "amplitudes": amplitudes}
        with pytest.raises(KetFormatError, match="invalid 'amplitudes' field"):
            state_from_dict(doc)

    def test_out_of_range_index_rejected(self):
        doc = {"dims": [2, 2],
               "amplitudes": [{"index": [0, 2], "re": 1.0, "im": 0.0}]}
        with pytest.raises(KetFormatError):
            state_from_dict(doc)

    def test_norm_still_enforced(self):
        doc = {"dims": [2, 2],
               "amplitudes": [{"index": [0, 0], "re": 0.5, "im": 0.0}]}
        with pytest.raises(NormalizationError):
            state_from_dict(doc)
        state = state_from_dict(doc, normalize=True)
        assert state.amplitude((0, 0)) == 1.0


# ---------------------------------------------------------------------------
# the per-entry JSON conversion, kept verbatim as the reference


def reference_state_to_dict(state: StateVector) -> dict[str, Any]:
    """Sparse JSON-ready document; exact zeros are omitted."""
    entries = []
    dims = state.structure.dims
    tensor = state.tensor
    for index in np.argwhere(tensor != 0):
        value = tensor[tuple(index)]
        entries.append(
            {"index": [int(k) for k in index], "re": float(value.real),
             "im": float(value.imag)}
        )
    return {"dims": list(dims), "amplitudes": entries}


def reference_state_from_dict(data: Any, normalize: bool = False) -> StateVector:
    if not isinstance(data, dict):
        raise KetFormatError("coefficient document must be a JSON object")
    try:
        dims = tuple(int(n) for n in data["dims"])
    except (KeyError, TypeError, ValueError) as exc:
        raise KetFormatError("missing or invalid 'dims' field") from exc
    try:
        structure = PartyStructure(dims)
    except ValueError as exc:
        raise KetFormatError(str(exc)) from exc
    amps = np.zeros(structure.total_dim, dtype=np.complex128)
    seen: set[int] = set()
    for entry in data.get("amplitudes", []):
        try:
            index = tuple(int(k) for k in entry["index"])
            re = float(entry.get("re", 0.0))
            im = float(entry.get("im", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise KetFormatError(f"invalid amplitude entry {entry!r}") from exc
        try:
            flat = flat_index(structure, index)
        except ValueError as exc:
            raise KetFormatError(str(exc)) from exc
        if flat in seen:
            raise KetFormatError(f"duplicate amplitude index {list(index)}")
        seen.add(flat)
        amps[flat] = complex(re, im)
    if not np.any(amps):
        raise KetFormatError("document holds the zero vector")
    return StateVector(structure, amps, normalize=normalize)


def _outcome(convert, doc, normalize):
    try:
        return convert(doc, normalize=normalize)
    except Exception as exc:  # the exception itself is the outcome compared
        return exc


def assert_same_as_reference(doc, normalize=True):
    got = _outcome(state_from_dict, doc, normalize)
    want = _outcome(reference_state_from_dict, doc, normalize)
    if isinstance(want, OverflowError):
        # the per-entry code let this escape; it is now a format error
        assert isinstance(got, KetFormatError), got
        assert str(got).startswith(("invalid amplitude entry",
                                    "missing or invalid 'dims'"))
    elif isinstance(want, Exception):
        assert type(got) is type(want), got
        assert str(got) == str(want)
    else:
        assert isinstance(got, StateVector), got
        assert got.structure == want.structure
        assert np.array_equal(got.amplitudes, want.amplitudes)


_numbers = st.sampled_from([0.6, -0.8, 1.0, -0.5, 0.25, 3.0, 1e-300, 0.0, -0.0])
_junk = st.sampled_from([None, "x", [1.0], {"a": 1}, True, "2", 1.5,
                         float("nan"), float("inf"), 10**400])


@st.composite
def coefficient_documents(draw):
    """Valid and invalid documents, mostly over small dims."""
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    valid_index = st.tuples(*(st.integers(0, n - 1) for n in dims)).map(list)
    bad_index = st.one_of(
        st.lists(st.integers(0, 1), max_size=len(dims) + 2).filter(
            lambda ix: len(ix) != len(dims)),
        valid_index.flatmap(lambda ix: st.integers(0, len(ix) - 1).flatmap(
            lambda party: st.sampled_from([-1, dims[party], 9, 2**63, -(10**30)])
            .map(lambda k: ix[:party] + [k] + ix[party + 1:]))),
        _junk,
    )
    entries: list = [
        {"index": index, "re": draw(_numbers), "im": draw(_numbers)}
        for index in draw(st.lists(valid_index, min_size=1, max_size=8,
                                   unique_by=tuple))
    ]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ["bad index"] * 2
            + ["duplicate", "missing", "junk value", "not an entry"]))
        if kind == "duplicate" and entries:
            previous = draw(st.sampled_from(entries))
            index = previous.get("index") if isinstance(previous, dict) else 0
            entry = {"index": index, "re": draw(_numbers)}
        elif kind == "bad index":
            entry = {"index": draw(bad_index), "re": draw(_numbers)}
        elif kind == "missing":
            entry = {"index": draw(valid_index), "re": 1.0, "im": 0.0}
            del entry[draw(st.sampled_from(["index", "re", "im"]))]
        elif kind == "junk value":
            entry = {"index": draw(valid_index),
                     draw(st.sampled_from(["re", "im"])): draw(_junk)}
        else:
            entry = draw(st.one_of(_junk, st.lists(st.integers(0, 1))))
        entries.insert(draw(st.integers(0, len(entries))), entry)
    doc: dict = {"dims": dims, "amplitudes": entries}
    shape = draw(st.sampled_from(["plain"] * 8 + [
        "no amplitudes", "empty", "bad dims", "junk amplitudes"]))
    if shape == "no amplitudes":
        del doc["amplitudes"]
    elif shape == "empty":
        doc["amplitudes"] = []
    elif shape == "bad dims":
        doc["dims"] = draw(st.one_of(_junk, st.just([2, 1])))
    elif shape == "junk amplitudes":
        doc["amplitudes"] = draw(st.one_of(st.just({"index": [0]}),
                                           st.just("ab"), st.just([[0]])))
    return doc


class TestJsonAgainstReference:
    """The array checks of ``state_from_dict`` and the mask of
    ``state_to_dict`` against the per-entry code above."""

    @given(coefficient_documents(), st.sampled_from([True, True, False]))
    @settings(max_examples=400, deadline=None)
    def test_documents_match_reference(self, doc, normalize):
        assert_same_as_reference(doc, normalize)

    @pytest.mark.parametrize("entries", [
        # a duplicate after an out-of-range entry: the range error comes first
        [[0, 0], [0, 5], [0, 0]],
        # a duplicate before an out-of-range entry: the duplicate comes first
        [[0, 0], [0, 0], [0, 5]],
        # wrong arity after a duplicate, and before one
        [[1, 1], [1, 1], [0]],
        [[1, 1], [0], [1, 1]],
        # an unparsable entry after an error the array checks find
        [[0, 0], [0, 2**63], "junk"],
        [[0, 0], [0, 1], "junk", [0, 0]],
        # components past int64 on both sides
        [[0, 0], [-(10**30), 0]],
        [[0, 0], [1, 10**30]],
        [],
    ])
    def test_first_offending_entry_is_reported(self, entries):
        doc = {"dims": [2, 2], "amplitudes": [
            {"index": ix, "re": 0.6} if isinstance(ix, list) else ix
            for ix in entries
        ]}
        assert_same_as_reference(doc)

    def test_overflow_is_a_format_error(self):
        doc = {"dims": [2], "amplitudes": [{"index": [float("inf")]}]}
        with pytest.raises(KetFormatError, match="invalid amplitude entry"):
            state_from_dict(doc)
        doc = {"dims": [2], "amplitudes": [{"index": [0], "re": 10**400}]}
        with pytest.raises(KetFormatError, match="invalid amplitude entry"):
            state_from_dict(doc)
        with pytest.raises(KetFormatError, match="invalid 'dims'"):
            state_from_dict({"dims": [float("inf")], "amplitudes": []})

    @given(st.lists(st.integers(2, 4), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1), st.sampled_from(["haar", "sparse"]),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_dict_text_matches_reference(self, dims, seed, kind, signed_zeros):
        rng = np.random.default_rng(seed)
        amps = random_state(PartyStructure(tuple(dims)), rng).amplitudes.copy()
        if kind == "sparse":
            amps[rng.random(amps.size) < 0.7] = 0.0
            amps[rng.integers(amps.size)] = 1.0
        if signed_zeros:
            amps.real[rng.random(amps.size) < 0.3] = -0.0
            amps.imag[rng.random(amps.size) < 0.3] = -0.0
            amps[0] = complex(0.5, -0.0)
        state = StateVector(PartyStructure(tuple(dims)), amps, normalize=True)
        got = json.dumps(state_to_dict(state), indent=1)
        assert got == json.dumps(reference_state_to_dict(state), indent=1)
        if signed_zeros:
            assert "-0.0" in got
        again = state_from_dict(json.loads(got))
        assert np.array_equal(again.amplitudes, state.amplitudes)
        # the text writer, with the state document at every nesting depth
        want, doc = state_to_dict(state), state_document(state)
        for depth in range(4):
            assert _written(doc) == json.dumps(want, indent=1) + "\n"
            want, doc = ({"x": 1, "state": want}, {"x": 1, "state": doc}) \
                if depth % 2 else ([want, 0.5], [doc, 0.5])


def reference_round_floats(obj: Any) -> Any:
    """The CLI's display rounding: a walk that rebuilds the document.

    A float whose 15-digit rounding is not finite is kept as it is.
    """
    if isinstance(obj, float):
        rounded = float(f"{obj:.15g}")
        return rounded if math.isfinite(rounded) else obj
    if isinstance(obj, dict):
        return {key: reference_round_floats(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [reference_round_floats(value) for value in obj]
    return obj


def _written(doc: Any, **kwargs) -> str:
    out = io.StringIO()
    write_json(doc, out, **kwargs)
    return out.getvalue()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
               float("inf"), float("-inf"), float("nan"), 0.1, 1 / 3, 123456789012345.67]
json_leaves = (
    st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
    | st.floats() | st.sampled_from(EDGE_FLOATS) | st.floats().map(np.float64)
    | st.text() | st.text(alphabet=st.characters(max_codepoint=0x40))
)


def json_documents(tuples: bool):
    def nest(children):
        containers = st.lists(children, max_size=4) | st.dictionaries(
            st.text(max_size=4), children, max_size=4)
        return containers | st.lists(children, max_size=3).map(tuple) if tuples else containers
    return st.recursive(json_leaves, nest, max_leaves=30)


class TestJsonWriter:
    """``write_json`` against the standard library's ``indent=1`` encoder."""

    @given(json_documents(tuples=True))
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps(self, doc):
        assert _written(doc) == json.dumps(doc, indent=1) + "\n"

    @given(json_documents(tuples=False))
    @settings(max_examples=150, deadline=None)
    def test_rounded_matches_reference(self, doc):
        assert (_written(doc, round_floats=True)
                == json.dumps(reference_round_floats(doc), indent=1) + "\n")

    @pytest.mark.parametrize("value", [
        1.7976931348623151e308, 1.7976931348623153e308, -1.7976931348623157e308,
    ])
    def test_rounding_past_the_largest_double_keeps_the_float(self, value):
        # 15 digits of these round to 1.79769313486232e308, past the largest
        # double; json.dumps would write Infinity
        assert math.isinf(float(f"{value:.15g}"))
        assert _written([value], round_floats=True) == f"[\n {value!r}\n]\n"
        assert _written([1.7976931348623e308], round_floats=True) == (
            "[\n 1.7976931348623e+308\n]\n")

    @pytest.mark.parametrize("doc", [
        [object()], {"a": np.int64(3)}, {"a": {1, 2}}, [b"bytes"], 1j,
    ], ids=["object", "numpy-int", "set", "bytes", "complex"])
    def test_unsupported_types_raise(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=1)
        with pytest.raises(TypeError):
            write_json(doc, io.StringIO())

    def test_keys_are_str_only(self):
        # json.dump would write 1 as "1"; no CLI document has such a key
        with pytest.raises(TypeError, match="keys must be str, not int"):
            write_json({1: 2}, io.StringIO())

    def test_one_write(self):
        class Recorder(io.StringIO):
            calls = 0

            def write(self, text):
                Recorder.calls += 1
                return super().write(text)

        write_json({"a": [1, 2.5, None, "x"], "b": {}}, Recorder())
        assert Recorder.calls == 1


class TestColumnReader:
    """``state_from_dict`` reads whole columns and stops at the first refusal."""

    @pytest.mark.parametrize("entries", [
        # a component past int64 and a junk value in the same entry: the
        # per-entry check refuses the value first
        [{"index": [0, 0]}, {"index": [0, 2**63], "re": "x"}],
        # a component past int64, then an unparsable entry
        [{"index": [0, 1]}, {"index": [2**64, 0]}, "junk"],
        # an unparsable entry, then a duplicate
        [{"index": [0, 1]}, {"index": [0, "x"]}, {"index": [0, 1]}],
        # the column of "im" stops after the others read on
        [{"index": [1, 1], "re": 0.6}, {"index": [0, 0], "im": None},
         {"index": [1, 0]}],
        # index lists that are strings, dicts, floats or empty
        [{"index": "01", "re": 0.6}, {"index": [1.7, 0.2], "re": 0.8}],
        [{"index": {"1": 0, "0": 1}, "re": 1.0}],
        [{"index": [], "re": 1.0}],
        [{"index": [0, 0], "re": 1.0}, {"index": 5}],
        [{"index": [0, 0], "re": 1.0}, {"re": 1.0}],
    ])
    def test_first_refusal_matches_reference(self, entries):
        assert_same_as_reference({"dims": [2, 2], "amplitudes": entries})

    def test_any_iterable_of_entries(self):
        entries = [{"index": [0, 0], "re": 0.6}, {"index": [1, 1], "re": 0.8}]
        for amplitudes in (tuple(entries), iter(entries)):
            state = state_from_dict({"dims": [2, 2], "amplitudes": amplitudes})
            assert state.amplitudes.tolist() == [0.6, 0, 0, 0.8]

    @staticmethod
    def _profiled_calls(doc: dict) -> int:
        events = 0

        def count(frame, event, arg):
            nonlocal events
            events += 1

        sys.setprofile(count)
        try:
            state_from_dict(doc, normalize=True)
        finally:
            sys.setprofile(None)
        return events

    def test_no_python_step_per_entry(self):
        # every call from Python code, to a Python or a builtin function, is
        # a profiler event; converters called by C iterators are not
        dense = state_to_dict(random_state(PartyStructure((2,) * 10),
                                           np.random.default_rng(0)))
        sparse = {**dense, "amplitudes": dense["amplitudes"][::256]}
        assert len(sparse["amplitudes"]) == 4
        assert self._profiled_calls(sparse) == self._profiled_calls(dense)

    def test_peak_memory(self):
        # 2^14 entries; the per-entry reader peaked at 7.15 MiB here
        state = random_state(PartyStructure((2,) * 14), np.random.default_rng(0))
        doc = json.loads(json.dumps(state_to_dict(state)))
        tracemalloc.start()
        try:
            again = state_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(again.amplitudes, state.amplitudes)
        assert peak < 3.5 * 2**20

    @pytest.mark.parametrize("round_floats", [False, True])
    def test_float_texts_match_one_at_a_time(self, round_floats):
        near_max = [1.7976931348623151e308, -1.7976931348623157e308]
        for values in (EDGE_FLOATS, EDGE_FLOATS[:6] + near_max, [0.1, 1 / 3]):
            assert ketparse.float_texts(values, round_floats) == [
                ketparse.float_text(v, round_floats) for v in values]
            assert _written(values, round_floats=round_floats) == "[\n " + \
                ",\n ".join(ketparse.float_texts(values, round_floats)) + "\n]\n"


class TestInputBudget:
    """``MAX_TOTAL_DIM`` is checked before the dense vector is allocated."""

    @pytest.fixture
    def no_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the budget")

        monkeypatch.setattr(states_module, "MAX_TOTAL_DIM", 4)
        monkeypatch.setattr(np, "zeros", refuse)

    def test_json_document(self, no_allocation):
        doc = {"dims": [2, 3], "amplitudes": [{"index": [0, 0], "re": 1.0}]}
        with pytest.raises(KetFormatError,
                           match="total dimension 6 exceeds the limit of 4"):
            state_from_dict(doc)

    def test_expression(self, no_allocation):
        with pytest.raises(KetFormatError,
                           match="total dimension 8 exceeds the limit of 4"):
            parse_amplitudes("|0,0,1>")

    def test_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(states_module, "MAX_TOTAL_DIM", 4)
        assert parse_ket("(|0,0> + |1,1>)/sqrt(2)").structure.total_dim == 4
        doc = {"dims": [4], "amplitudes": [{"index": [3], "re": 1.0}]}
        assert state_from_dict(doc).amplitude((3,)) == 1.0
