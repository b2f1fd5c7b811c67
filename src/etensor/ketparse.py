"""Parser for ket expressions and the JSON coefficient file format.

The expression grammar (whitespace is insignificant):

    state   := ["+"|"-"] term (("+"|"-") term)* ("/" scalar)?
    term    := (scalar "*"?)? ket | "(" state ")" ("/" scalar)?
    ket     := "|" digits ("," digits)* ">"
    scalar  := decimal | integer | "sqrt(" integer ")" | integer "/" integer
             | "i" | scalar "*" scalar

Comma-separated kets are canonical, one integer per party: ``|1,0,2>``.
A comma-free multi-digit ket such as ``|0110>`` is the compact qubit form -
one digit per party - and is accepted only when every party is a qubit.
Terms naming the same ket are summed before any normalization check, and the
parsed vector must already be normalized unless an explicit rescale is
requested.

The JSON format stores the same data sparsely::

    {"dims": [2, 2], "amplitudes": [{"index": [0, 0], "re": 0.707..., "im": 0.0}, ...]}

Indices absent from the list are zero.  The canonical file extension is
``.ket.json``; plain ``.ket`` files hold an expression in the grammar above.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from . import states
from .states import NormalizationError, PartyStructure, StateVector, flat_index


class KetSyntaxError(ValueError):
    """Expression rejected by the grammar; carries the offending position."""

    def __init__(self, reason: str, line: int, col: int):
        self.reason = reason
        self.line = line
        self.col = col
        super().__init__(f"{reason} at {line}:{col}")


class KetFormatError(ValueError):
    """Coefficient JSON document is malformed or inconsistent."""


def _zero_amplitudes(structure: PartyStructure) -> np.ndarray:
    """Dense zero vector for ``structure``, refused above ``MAX_TOTAL_DIM``."""
    total = structure.total_dim
    if total > states.MAX_TOTAL_DIM:
        raise KetFormatError(
            f"total dimension {total} exceeds the limit of "
            f"{states.MAX_TOTAL_DIM} amplitudes"
        )
    return np.zeros(total, dtype=np.complex128)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH",
          "(": "LPAREN", ")": "RPAREN"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, start_line, start_col))
            advance(1)
            continue
        if ch == "|":
            j = text.find(">", i + 1)
            if j < 0:
                raise KetSyntaxError("unterminated ket", start_line, start_col)
            inner = text[i + 1 : j]
            tokens.append(_Token("KET", inner, start_line, start_col))
            advance(j + 1 - i)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(
                _Token("DECIMAL" if seen_dot else "INT", text[i:j], start_line, start_col)
            )
            advance(j - i)
            continue
        if text.startswith("sqrt", i):
            tokens.append(_Token("SQRT", "sqrt", start_line, start_col))
            advance(4)
            continue
        if ch == "i" or ch == "I":
            tokens.append(_Token("IMAG", ch, start_line, start_col))
            advance(1)
            continue
        raise KetSyntaxError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.compact_used = False

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str | None = None) -> _Token:
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise KetSyntaxError(
                f"expected {kind}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col,
            )
        self.pos += 1
        return tok

    # terms accumulate as (coefficient, ket component tuple) pairs
    def parse(self) -> list[tuple[complex, tuple[int, ...]]]:
        terms = self.parse_state()
        tok = self.peek()
        if tok.kind != "EOF":
            raise KetSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.line, tok.col
            )
        return terms

    def parse_state(self) -> list[tuple[complex, tuple[int, ...]]]:
        terms: list[tuple[complex, tuple[int, ...]]] = []
        sign = 1.0
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = -1.0 if self.take().kind == "MINUS" else 1.0
        terms.extend((sign * c, k) for c, k in self.parse_term())
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = -1.0 if self.take().kind == "MINUS" else 1.0
            terms.extend((sign * c, k) for c, k in self.parse_term())
        if self.peek().kind == "SLASH":
            self.take()
            divisor = self.parse_scalar()
            if divisor == 0:
                tok = self.peek()
                raise KetSyntaxError("division by zero", tok.line, tok.col)
            terms = [(c / divisor, k) for c, k in terms]
        return terms

    def parse_term(self) -> list[tuple[complex, tuple[int, ...]]]:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.take()
            terms = self.parse_state()
            self.take("RPAREN")
            if self.peek().kind == "SLASH":
                self.take()
                divisor = self.parse_scalar()
                if divisor == 0:
                    raise KetSyntaxError("division by zero", tok.line, tok.col)
                terms = [(c / divisor, k) for c, k in terms]
            return terms
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
        if tok.kind == "INT":
            # "a/b" directly after an integer is a fraction, not state division
            if (
                self.peek().kind == "SLASH"
                and self.tokens[self.pos + 1].kind == "INT"
            ):
                self.take()
                denom = int(self.take("INT").text)
                if denom == 0:
                    raise KetSyntaxError("division by zero", tok.line, tok.col)
                return complex(int(tok.text) / denom)
            return complex(int(tok.text))
        if tok.kind == "SQRT":
            self.take("LPAREN")
            arg = self.take("INT")
            self.take("RPAREN")
            return complex(math.sqrt(int(arg.text)))
        if tok.kind == "IMAG":
            return 1j
        raise KetSyntaxError(
            f"expected a scalar, found {tok.text or 'end of input'!r}",
            tok.line, tok.col,
        )

    def _ket_components(self, tok: _Token) -> tuple[int, ...]:
        inner = tok.text.replace(" ", "").replace("\t", "")
        if not inner:
            raise KetSyntaxError("empty ket", tok.line, tok.col)
        if "," in inner:
            parts = inner.split(",")
            if any(not p.isdigit() for p in parts):
                raise KetSyntaxError(
                    f"ket components must be integers, got |{tok.text}>",
                    tok.line, tok.col,
                )
            return tuple(int(p) for p in parts)
        if not inner.isdigit():
            raise KetSyntaxError(
                f"ket components must be integers, got |{tok.text}>",
                tok.line, tok.col,
            )
        if len(inner) == 1:
            return (int(inner),)
        # compact qubit form, one digit per party
        if any(c not in "01" for c in inner):
            raise KetSyntaxError(
                "compact kets are for qubits only; use the comma form "
                f"for |{tok.text}>",
                tok.line, tok.col,
            )
        self.compact_used = True
        return tuple(int(c) for c in inner)


def parse_amplitudes(
    text: str, structure_hint: PartyStructure | None = None
) -> tuple[PartyStructure, np.ndarray]:
    """Parse an expression into raw (unnormalized) amplitudes.

    Without a hint, each party's dimension is inferred as max digit + 1
    (floored at 2, the smallest meaningful party).  Terms with identical
    kets are summed.  Useful on its own because the result is linear in the
    expression's terms.
    """
    parser = _Parser(text)
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
    amps = _zero_amplitudes(structure)
    for coeff, ket in terms:
        amps[flat_index(structure, ket)] += coeff
    return structure, amps


def parse_ket(
    text: str,
    structure_hint: PartyStructure | None = None,
    normalize: bool = False,
) -> StateVector:
    """Parse an expression into a normalized :class:`StateVector`.

    Raises :class:`KetSyntaxError` for grammar violations (with position),
    ``ValueError`` for the zero vector, and
    :class:`~etensor.states.NormalizationError` when the parsed vector is not
    normalized and ``normalize`` is False.
    """
    structure, amps = parse_amplitudes(text, structure_hint)
    if not np.any(amps):
        raise NormalizationError("expression sums to the zero vector")
    return StateVector(structure, amps, normalize=normalize)


# ---------------------------------------------------------------------------
# JSON coefficient format


def state_to_dict(state: StateVector) -> dict[str, Any]:
    """Sparse JSON-ready document; exact zeros are omitted.

    Vectorized: one mask picks the nonzero amplitudes in row-major order,
    and the entries are built from plain Python lists, so the document
    (signed zeros included) is what a per-amplitude loop would give.
    """
    tensor = state.tensor
    nonzero = tensor != 0
    values = tensor[nonzero]
    entries = [
        {"index": index, "re": re, "im": im}
        for index, re, im in zip(
            np.argwhere(nonzero).tolist(),
            values.real.tolist(),
            values.imag.tolist(),
        )
    ]
    return {"dims": list(state.structure.dims), "amplitudes": entries}


def state_from_dict(data: Any, normalize: bool = False) -> StateVector:
    """Inverse of :func:`state_to_dict`; raises :class:`KetFormatError`.

    Vectorized: one light loop parses the entries, then whole arrays do the
    arity, range and duplicate checks and the scatter.  The errors are
    those of a per-entry check: the first offending entry in document order
    is reported, with the same message.  A number too large to convert is
    an invalid entry or dims field.
    """
    if not isinstance(data, dict):
        raise KetFormatError("coefficient document must be a JSON object")
    try:
        dims = tuple(int(n) for n in data["dims"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise KetFormatError("missing or invalid 'dims' field") from exc
    try:
        structure = PartyStructure(dims)
    except ValueError as exc:
        raise KetFormatError(str(exc)) from exc
    amps = _zero_amplitudes(structure)
    indices: list[tuple[int, ...]] = []
    values: list[complex] = []
    unparsed: KetFormatError | None = None
    if not isinstance(data.get("amplitudes", []), Iterable):
        raise KetFormatError("missing or invalid 'amplitudes' field")
    for entry in data.get("amplitudes", []):
        try:
            index = tuple(map(int, entry["index"]))
            value = complex(float(entry.get("re", 0.0)),
                            float(entry.get("im", 0.0)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            unparsed = KetFormatError(f"invalid amplitude entry {entry!r}")
            unparsed.__cause__ = exc
            break
        indices.append(index)
        values.append(value)

    # Each check below looks only at the entries before the first one an
    # earlier check refused, so the error raised is the first in the document.
    valid = len(indices)
    arity = np.fromiter(map(len, indices), dtype=np.intp, count=valid)
    valid = _first(arity != len(dims), valid)
    # components past int64 make this a float or object array; they are
    # out of range either way
    index = np.array(indices[:valid]).reshape(valid, len(dims))
    valid = _first(((index < 0) | (index >= dims)).any(axis=1), valid)
    flat = np.ravel_multi_index(index[:valid].T.astype(np.intp), dims)
    _, first_seen = np.unique(flat, return_index=True)
    if first_seen.size < valid:
        repeated = np.ones(valid, dtype=bool)
        repeated[first_seen] = False
        duplicate = indices[int(np.argmax(repeated))]
        raise KetFormatError(f"duplicate amplitude index {list(duplicate)}")
    if valid < len(indices):
        try:  # the per-entry check on the refused entry, for its message
            flat_index(structure, indices[valid])
        except ValueError as exc:
            raise KetFormatError(str(exc)) from exc
    if unparsed is not None:
        raise unparsed
    amps[flat] = values
    if not np.any(amps):
        raise KetFormatError("document holds the zero vector")
    return StateVector(structure, amps, normalize=normalize)


def _first(flags: np.ndarray, default: int) -> int:
    """Position of the first true flag, or ``default`` if none is set."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else default


def save_ket_json(state: StateVector, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_dict(state), fh, indent=1)
        fh.write("\n")


def load_ket_json(path: str, normalize: bool = False) -> StateVector:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise KetFormatError(f"invalid JSON: {exc}") from exc
    return state_from_dict(data, normalize=normalize)
