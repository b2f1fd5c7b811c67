"""Parser for ket expressions and the JSON coefficient file format.

The expression grammar (whitespace is insignificant, inside kets too):

    state   := ["+"|"-"] term (("+"|"-") term)* ("/" scalar)?
    term    := (scalar "*"?)? ket | "(" state ")" ("/" scalar)?
    ket     := "|" digits ("," digits)* ">"
    scalar  := decimal | integer | "sqrt(" integer ")" | integer "/" integer
             | "i" | scalar "*" scalar

Digits are ASCII ``0-9``; other Unicode digits such as ``²`` are refused
with a position.  Comma-separated kets are canonical, one integer per
party: ``|1,0,2>``.
A comma-free multi-digit ket such as ``|0110>`` is the compact qubit form -
one digit per party - and is accepted only when every party is a qubit.
Terms naming the same ket are summed before any normalization check, and the
parsed vector must already be normalized unless an explicit rescale is
requested.

The lexer is one C-level ``findall`` of ``_TOKEN``, which yields the token
texts; a dict lookup, or :func:`_kind` for kets and numbers, gives their
kinds.  The parser walks the two lists by index.  No token carries a
position: a :class:`KetSyntaxError` at token ``i`` runs ``finditer`` over
the same text to place that token, and the end of input is at ``len(text)``.

The JSON format stores the same data sparsely::

    {"dims": [2, 2], "amplitudes": [{"index": [0, 0], "re": 0.707..., "im": 0.0}, ...]}

Indices absent from the list are zero.  The canonical file extension is
``.ket.json``; plain ``.ket`` files hold an expression in the grammar above.

:func:`state_from_dict` reads the decoded entry list in whole columns,
with no Python step per entry: the ``"index"`` lists by one ``itemgetter``
map, their lengths by one ``len`` map, their components chained into one
``np.fromiter`` (which converts each as ``int()`` does), and ``"re"`` and
``"im"`` by ``np.fromiter(map(float, ...))``.  Whole arrays then check the
arity, range and uniqueness of the indexes.  If a column or a check refuses
the document, one per-entry check reads it again and raises the error of
the first offending entry in document order, so the errors are those of a
per-entry reader while a valid document takes no Python step per entry.
On the write side, :func:`write_json` writes a
:class:`JsonText` (a state's amplitude list, a report's component list)
from ``%`` templates, one per entry shape.
"""

from __future__ import annotations

import json
import math
import operator
import re
from itertools import chain, islice
from typing import Any, Iterable, NoReturn, Sequence, TextIO

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


# One match per token, after the whitespace before it: a ket, a number, the
# word ``sqrt`` or any other single character, which ``_KINDS`` or
# ``_kind`` classifies.  Every non-whitespace character starts a match, so
# the matches cover all of the text but its trailing whitespace, and the
# n-th match of ``finditer`` is the n-th token.  Digits are ASCII 0-9 only.
_TOKEN = re.compile(r"\s*(\|[^>]*>|[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+|sqrt|\S)")

_KINDS = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH", "(": "LPAREN",
          ")": "RPAREN", "i": "IMAG", "I": "IMAG", "sqrt": "SQRT"}


def _kind(token: str) -> str:
    """The kind of a token not in ``_KINDS``; a lone ``|`` has no ``>`` after it."""
    if token[0] == "|":
        return "KET" if len(token) > 1 else "ERROR"
    if len(token) > 1 or token in "0123456789":
        return "DECIMAL" if "." in token else "INT"
    return "ERROR"


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The texts and kinds of the tokens of ``text``, ending in ``EOF``."""
    texts = _TOKEN.findall(text)
    kinds = [_KINDS.get(token) or _kind(token) for token in texts]
    if "ERROR" in kinds:
        index = kinds.index("ERROR")
        reason = ("unterminated ket" if texts[index] == "|"
                  else f"unexpected character {texts[index]!r}")
        raise KetSyntaxError(reason, *_place(text, index))
    texts.append("")
    kinds.append("EOF")
    return texts, kinds


def _place(text: str, index: int) -> tuple[int, int]:
    """Line and column of token ``index`` of ``text``; past the last, its end."""
    match = next(islice(_TOKEN.finditer(text), index, None), None)
    start = len(text) if match is None else match.start(1)
    line_start = text.rfind("\n", 0, start) + 1
    return text.count("\n", 0, line_start) + 1, start - line_start + 1


# terms accumulate as (coefficient, ket component tuple) pairs
_Terms = list[tuple[complex, tuple[int, ...]]]
_SCALARS = ("INT", "DECIMAL", "SQRT", "IMAG")


class _Parser:
    """Recursive descent over the token lists, by index."""

    def __init__(self, text: str):
        self.text = text
        self.texts, self.kinds = _tokenize(text)
        self.pos = 0
        self.first_compact: int | None = None  # token index of the first compact ket

    def fail(self, reason: str, index: int) -> NoReturn:
        raise KetSyntaxError(reason, *_place(self.text, index))

    def fail_at_term(self, reason: str, term: int) -> NoReturn:
        """Fail at the ket of term ``term``: terms keep the order of their kets."""
        kets = [i for i, kind in enumerate(self.kinds) if kind == "KET"]
        self.fail(reason, kets[term])

    def shown(self, index: int) -> str:
        """Token ``index`` as the messages quote it: a ket without its bars."""
        token = self.texts[index]
        return token[1:-1] if self.kinds[index] == "KET" else token

    def take(self, kind: str | None = None) -> int:
        """The index of the next token, which must be of ``kind`` if given."""
        index = self.pos
        if kind is not None and self.kinds[index] != kind:
            found = self.shown(index) or "end of input"
            self.fail(f"expected {kind}, found {found!r}", index)
        self.pos = index + 1
        return index

    def parse(self) -> _Terms:
        terms = self.parse_state()
        if self.kinds[self.pos] != "EOF":
            self.fail(f"unexpected trailing input {self.shown(self.pos)!r}",
                      self.pos)
        return terms

    def parse_state(self) -> _Terms:
        kinds = self.kinds
        terms: _Terms = []
        sign = 1.0
        if kinds[self.pos] in ("PLUS", "MINUS"):
            sign = -1.0 if kinds[self.take()] == "MINUS" else 1.0
        self.parse_term(sign, terms)
        while kinds[self.pos] in ("PLUS", "MINUS"):
            sign = -1.0 if kinds[self.take()] == "MINUS" else 1.0
            self.parse_term(sign, terms)
        return self.divided(terms)

    def divided(self, terms: _Terms) -> _Terms:
        """``terms`` over the "/ scalar" that follows them, if one does."""
        if self.kinds[self.pos] != "SLASH":
            return terms
        slash = self.take()
        divisor = self.parse_scalar()
        if divisor == 0:
            self.fail("division by zero", slash)
        return [(c / divisor, k) for c, k in terms]

    def parse_term(self, sign: float, terms: _Terms) -> None:
        """Add the next term, times ``sign``, to ``terms``."""
        kind = self.kinds[self.pos]
        if kind == "LPAREN":
            self.take()
            inner = self.parse_state()
            self.take("RPAREN")
            terms.extend((sign * c, k) for c, k in self.divided(inner))
            return
        coeff = complex(1.0)
        if kind in _SCALARS:
            coeff = self.parse_scalar()
            if self.kinds[self.pos] == "STAR":
                self.take()
        terms.append((sign * coeff, self._ket_components(self.take("KET"))))

    def parse_scalar(self) -> complex:
        kinds = self.kinds
        value = self._scalar_atom()
        while kinds[self.pos] == "STAR" and kinds[self.pos + 1] in _SCALARS:
            self.take()
            value *= self._scalar_atom()
        return value

    def _scalar_atom(self) -> complex:
        index = self.take()
        kind = self.kinds[index]
        if kind == "DECIMAL":
            return complex(float(self.texts[index]))
        if kind == "IMAG":
            return 1j
        try:
            if kind == "INT":
                # "a/b" directly after an integer is a fraction, not state division
                if (self.kinds[self.pos] == "SLASH"
                        and self.kinds[self.pos + 1] == "INT"):
                    self.take()
                    denom = self._integer(self.take("INT"))
                    if denom == 0:
                        self.fail("division by zero", index)
                    return complex(self._integer(index) / denom)
                return complex(self._integer(index))
            if kind == "SQRT":
                self.take("LPAREN")
                arg = self.take("INT")
                self.take("RPAREN")
                return complex(math.sqrt(self._integer(arg)))
        except OverflowError:
            self.fail("number too large for a float", index)
        self.fail("expected a scalar, found "
                  f"{self.shown(index) or 'end of input'!r}", index)

    def _integer(self, index: int, digits: str | None = None) -> int:
        """``int`` of token ``index``, or of ``digits`` read from it.

        Past Python's digit limit it is a parse error at the token.
        """
        if digits is None:
            digits = self.texts[index]
        try:
            return int(digits)
        except ValueError:
            self.fail(f"integer literal of {len(digits):,} digits is too long",
                      index)

    def _ket_components(self, index: int) -> tuple[int, ...]:
        token = self.texts[index]
        inner = "".join(token[1:-1].split())
        if not inner:
            self.fail("empty ket", index)
        parts = inner.split(",")
        if not (inner.isascii() and all(map(str.isdigit, parts))):
            self.fail(f"ket components must be integers, got {token}", index)
        if len(parts) == 1 and len(inner) > 1:
            # compact qubit form, one digit per party
            if inner.strip("01"):
                self.fail("compact kets are for qubits only; use the comma "
                          f"form for {token}", index)
            if self.first_compact is None:
                self.first_compact = index
            parts = list(inner)
        try:
            return tuple(map(int, parts))
        except ValueError:
            # a component past the digit limit; name the first one
            return tuple(self._integer(index, part) for part in parts)


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
    if (
        parser.first_compact is not None
        and structure_hint is not None
        and any(n != 2 for n in structure_hint.dims)
    ):
        parser.fail("compact kets require every party dimension to be 2",
                    parser.first_compact)
    arity = len(terms[0][1])
    for term, (_, ket) in enumerate(terms):
        if len(ket) != arity:
            parser.fail_at_term(
                f"inconsistent ket arity: found both {arity} and {len(ket)} parties",
                term)
    if structure_hint is not None:
        if structure_hint.num_parties != arity:
            parser.fail_at_term(
                f"expression has {arity} parties but the structure hint has "
                f"{structure_hint.num_parties}", 0)
        structure = structure_hint
        for term, (_, ket) in enumerate(terms):
            for party, (k, n) in enumerate(zip(ket, structure.dims)):
                if k >= n:
                    parser.fail_at_term(
                        f"digit {k} exceeds hinted dimension {n} for party "
                        f"{party + 1}", term)
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

    The entries are built from the amplitude columns that
    :func:`state_document` writes, the nonzero amplitudes in row-major
    order as plain Python ints and floats, so the document (signed zeros
    included) is what a per-amplitude loop would give.  To write the
    document as text, pass :func:`state_document` to :func:`write_json`:
    it writes the same text without building a dict per amplitude.
    """
    doc = state_document(state)
    index, real, imag = doc["amplitudes"].columns()
    doc["amplitudes"] = [
        {"index": components, "re": re, "im": im}
        for components, re, im in zip(map(list, zip(*index)), real, imag)
    ]
    return doc


def state_document(state: StateVector) -> dict[str, Any]:
    """The document of :func:`state_to_dict`, for :func:`write_json` only.

    Its ``"amplitudes"`` value holds the amplitude array, which
    :func:`write_json` writes as the list of entries :func:`state_to_dict`
    would build.
    """
    return {"dims": list(state.structure.dims),
            "amplitudes": _SparseAmplitudes(state.tensor)}


class JsonText:
    """A list of dicts that :func:`write_json` writes from its own :meth:`text`.

    :meth:`entry_template` and :meth:`list_text` hold the layout of
    ``indent=1``, so a subclass only fills in ``%`` templates.
    """

    __slots__ = ()

    def text(self, newline: str, round_floats: bool) -> str:
        """The value as ``json.dump(..., indent=1)`` writes it.

        ``newline`` is the line break and indent of the line holding the
        value; ``round_floats`` is :func:`write_json`'s.
        """
        raise NotImplementedError

    @staticmethod
    def entry_template(newline: str, fields: dict[str, str | int]) -> str:
        """The ``%`` template of one dict of the list held at ``newline``.

        It starts with the dict's own line break.  Keys are written as they
        are, so they must be plain ASCII names.  A str field is the
        placeholder of one leaf, an int ``n`` a list of ``n`` ``%d``
        placeholders: ``%d`` writes a Python int as ``int.__repr__`` does
        and ``%r`` a finite Python float as ``float.__repr__`` does, which
        are the encoder's leaves.
        """
        entry = newline + " "
        field = entry + " "
        body = ",".join(
            f'{field}"{key}": '
            + ("[" + ",".join([field + " %d"] * spec) + field + "]"
               if isinstance(spec, int) else spec)
            for key, spec in fields.items())
        return f"{entry}{{{body}{entry}}}"

    @staticmethod
    def list_text(entries: list[str], newline: str) -> str:
        """The list held at ``newline`` of entries from :meth:`entry_template`."""
        return "[" + ",".join(entries) + newline + "]" if entries else "[]"


class _SparseAmplitudes(JsonText):
    """The nonzero amplitudes of a tensor, written as a state's entry list."""

    __slots__ = ("tensor",)

    def __init__(self, tensor: np.ndarray):
        self.tensor = tensor

    def columns(self) -> tuple[list[list[int]], list[float], list[float]]:
        """The nonzero amplitudes in row-major order, as Python lists.

        One of index components per party, then the real and imaginary parts.
        """
        index = np.nonzero(self.tensor)
        values = self.tensor[index]
        return ([i.tolist() for i in index], values.real.tolist(),
                values.imag.tolist())

    def text(self, newline: str, round_floats: bool) -> str:
        """The entry list, from one template; amplitudes are never rounded."""
        index, real, imag = self.columns()
        template = self.entry_template(
            newline, {"index": len(index), "re": "%r", "im": "%r"})
        rows = zip(*index, real, imag)
        return self.list_text(list(map(template.__mod__, rows)), newline)


_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_DISPLAY = "%.15g".__mod__


def float_text(value: float, round_floats: bool = False) -> str:
    """One float as :func:`write_json` writes it."""
    if round_floats:
        rounded = float(_DISPLAY(value))
        # near the largest double, 15 digits round past it to inf
        if math.isfinite(rounded):
            value = rounded
    text = _float_repr(value)
    return _NON_FINITE.get(text, text)


def float_texts(values: Sequence[float], round_floats: bool = False) -> list[str]:
    """Each float as :func:`float_text` writes it, converted by C maps.

    Only a list holding ``nan`` or an infinity after the conversion, which
    the maps cannot tell apart from a rounding past the largest double, is
    written again one float at a time.
    """
    floats = map(float, map(_DISPLAY, values)) if round_floats else values
    texts = list(map(_float_repr, floats))
    if _NON_FINITE.keys().isdisjoint(texts):
        return texts
    return [float_text(value, round_floats) for value in values]


def write_json(doc: Any, out: TextIO, round_floats: bool = False) -> None:
    """Write ``doc`` and a newline as ``json.dump(doc, out, indent=1)`` does.

    One ``write`` call, with the indentation added by hand and every leaf
    from C or a builtin: strings from ``encode_basestring_ascii``, ints
    from ``int.__repr__``, floats from ``float.__repr__`` (numpy floats
    included), and ``true``, ``false`` and ``null``.  Lists, tuples and
    dicts with str keys nest; any other value raises ``TypeError``, as
    ``json.dump`` does, except a :class:`JsonText`
    (the amplitude list of a :func:`state_document`, the component list of
    a :func:`~etensor.tensor.report_document`), which writes itself.  With
    ``round_floats``, each float is first rounded to 15 significant digits,
    as the CLI displays them, unless the rounding is not finite: a float
    within 15 digits of the largest double is written as it is.
    """
    chunks: list[str] = []
    _encode(doc, "\n", chunks, round_floats)
    chunks.append("\n")
    out.write("".join(chunks))


def _encode(obj: Any, newline: str, chunks: list[str], round_floats: bool) -> None:
    if isinstance(obj, str):
        chunks.append(_encode_str(obj))
    elif obj is None:
        chunks.append("null")
    elif obj is True:
        chunks.append("true")
    elif obj is False:
        chunks.append("false")
    elif isinstance(obj, int):
        chunks.append(_int_repr(obj))
    elif isinstance(obj, float):
        chunks.append(float_text(obj, round_floats))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            chunks.append("[]")
            return
        inner = newline + " "
        separator = "[" + inner
        for item in obj:
            chunks.append(separator)
            _encode(item, inner, chunks, round_floats)
            separator = "," + inner
        chunks.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            chunks.append("{}")
            return
        inner = newline + " "
        separator = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            chunks.append(separator + _encode_str(key) + ": ")
            _encode(value, inner, chunks, round_floats)
            separator = "," + inner
        chunks.append(newline + "}")
    elif isinstance(obj, JsonText):
        chunks.append(obj.text(newline, round_floats))
    else:
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable"
        )


def state_from_dict(data: Any, normalize: bool = False) -> StateVector:
    """Inverse of :func:`state_to_dict`; raises :class:`KetFormatError`.

    ``"amplitudes"`` may be any iterable of entries.  It is read in whole
    columns, each by one chain of C iterators (see the module notes), and
    whole arrays check the arity, range and uniqueness of the indexes.  If
    a column cannot convert an entry, a component past int64 included, or
    a check refuses one, :func:`_refuse_first` reads the entries again one
    at a time and raises the error of the first offending entry in document
    order.  A number too large to convert is an invalid entry or dims field.
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
    entries = data.get("amplitudes", [])
    if not isinstance(entries, Iterable):
        raise KetFormatError("missing or invalid 'amplitudes' field")
    if not isinstance(entries, list):
        entries = list(entries)
    columns = _read_columns(entries, dims)
    if columns is None:
        _refuse_first(structure, entries)
    flat, real, imag = columns
    amps.real[flat] = real
    amps.imag[flat] = imag
    if not np.any(amps):
        raise KetFormatError("document holds the zero vector")
    return StateVector(structure, amps, normalize=normalize)


_INDEX = operator.itemgetter("index")
_RE = operator.methodcaller("get", "re", 0.0)
_IM = operator.methodcaller("get", "im", 0.0)
# what converting a malformed entry raises
_INVALID = (KeyError, TypeError, ValueError, OverflowError)


def _read_columns(entries: list, dims: tuple[int, ...]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Flat indexes and real and imaginary parts of ``entries``.

    None if a column cannot convert an entry, or if an index has the wrong
    arity, a component out of range or a repeat.
    """
    try:
        lists = list(map(_INDEX, entries))
        arity = np.fromiter(map(len, lists), np.intp, len(lists))
        if (arity != len(dims)).any():
            return None
        # numpy converts each component as int() does, and refuses one past
        # int64; ravel_multi_index refuses one out of range
        components = np.fromiter(chain.from_iterable(lists), np.intp,
                                 len(lists) * len(dims))
        flat = np.ravel_multi_index(components.reshape(-1, len(dims)).T, dims)
        real = np.fromiter(map(float, map(_RE, entries)), np.float64, len(entries))
        imag = np.fromiter(map(float, map(_IM, entries)), np.float64, len(entries))
    except _INVALID:
        return None
    ordered = np.sort(flat)
    if (ordered[1:] == ordered[:-1]).any():
        return None
    return flat, real, imag


def _refuse_first(structure: PartyStructure, entries: list) -> NoReturn:
    """Raise the error of the first offending entry, checking one at a time."""
    seen: set[int] = set()
    for entry in entries:
        try:
            index = tuple(map(int, entry["index"]))
            float(entry.get("re", 0.0))
            float(entry.get("im", 0.0))
        except _INVALID as exc:
            raise KetFormatError(f"invalid amplitude entry {entry!r}") from exc
        try:
            flat = flat_index(structure, index)
        except ValueError as exc:
            raise KetFormatError(str(exc)) from exc
        if flat in seen:
            raise KetFormatError(f"duplicate amplitude index {list(index)}")
        seen.add(flat)
    raise AssertionError("the columns refused a document whose entries all "
                         "pass their check")


def save_ket_json(state: StateVector, path: str) -> None:
    with open(path, "w") as fh:
        write_json(state_document(state), fh)


def read_json(path: str) -> Any:
    """The JSON document in the file at ``path``.

    Raises :class:`KetFormatError` for any ``ValueError`` of the decoder:
    invalid JSON, invalid UTF-8, and the digit limit of ``int()`` on a
    long integer.
    """
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise KetFormatError(f"invalid JSON: {exc}") from exc


def load_ket_json(path: str, normalize: bool = False) -> StateVector:
    return state_from_dict(read_json(path), normalize=normalize)
