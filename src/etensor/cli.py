"""Command-line front end.

Subcommands: compute, optimize, measure, apply, regroup, oracle,
paper-suite.  Party labels and subsets are 1-based on this surface, in
arguments and in error messages alike, and are checked and converted once
at the boundary; everything below is 0-based.  Output is
JSON on stdout (or an aligned table for ``compute --table``); diagnostics
go to stderr.  Exit codes: 0 success, 2 usage/parse/file problems,
running out of memory and work over ``tensor.MAX_KERNEL_WORK``, 1
computation errors.

Every subcommand's options are defined once, in the table ``_COMMANDS``.
``build_parser`` builds the argparse parser from it, and ``_read_argv``
reads from it: a subcommand, then exact long options of that subcommand,
each value option followed by a value that does not start with ``-``,
converted by its type, within its choices, with every required option
given.  For such argv it returns the namespace argparse would build, for
a fraction of argparse's cost.  ``main`` tries it first; any other argv
(help, abbreviations, ``--opt=value``, ``--``, values such as ``-1``, and
every mistake) goes to argparse, which keeps the help text and explains
each refusal by its own rules.  The parser is built only then, once per
process, and reused for every later call that needs it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys
from typing import Any, Callable, NamedTuple, Sequence, TextIO

import numpy as np

from . import golden
from .ketparse import (
    KetFormatError,
    KetSyntaxError,
    load_ket_json,
    parse_ket,
    read_json,
    state_document,
    state_to_dict,  # noqa: F401 - a name perfbench's traced runs wrap
    write_json,
)
from .localops import (
    LocalUnitary,
    PartyGrouping,
    hadamard,
    apply_local,
    measure_party,
    phase_gate,
    regroup,
    trace_to_pair,
)
from .oracles import (
    concurrence_mixed_2qubit,
    concurrence_pure_2qubit,
    concurrence_purity,
    dur_average,
)
from .states import NormalizationError, PartyStructure, StateVector
from .supremum import OptimizerConfig, maximize_component, maximize_simultaneous
from .tensor import (
    NormalizationScheme,
    SubsetSelector,
    TensorReport,
    WorkLimitError,
    component,
    component_evaluator,  # noqa: F401 - a name perfbench's traced runs wrap
    full_tensor,
    report_document,
    separability_scan,
)

SEED_ENV_VAR = "ETENSOR_SEED"


class _UsageError(ValueError):
    """A refused setting that argparse does not see; exit 2, like a refused option."""


def _party(structure: PartyStructure, number: int) -> int:
    """The 0-based index of the 1-based party ``number`` of ``structure``."""
    if not 1 <= number <= structure.num_parties:
        raise ValueError(f"party {number} out of range for "
                         f"{structure.num_parties} parties")
    return number - 1


def _parse_subset(text: str, structure: PartyStructure) -> SubsetSelector:
    try:
        parties = sorted(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad subset {text!r}: expected comma-separated "
                         "1-based party numbers") from exc
    if any(p < 1 for p in parties):
        raise ValueError(f"bad subset {text!r}: party numbers are 1-based")
    if len(set(parties)) < len(parties):
        raise ValueError(f"bad subset {text!r}: a party is named twice")
    if parties[-1] > structure.num_parties:
        raise ValueError(f"bad subset {text!r}: out of range for "
                         f"{structure.num_parties} parties")
    return SubsetSelector(tuple(p - 1 for p in parties))


def _parse_groups(text: str, structure: PartyStructure) -> PartyGrouping:
    blocks = []
    for block_text in text.split("|"):
        try:
            blocks.append(tuple(int(p) for p in block_text.split(",")))
        except ValueError as exc:
            raise ValueError(
                f"bad grouping {text!r}: expected blocks like '1,2|3,4'"
            ) from exc
    parties = sorted(p for block in blocks for p in block)
    if parties != list(range(1, structure.num_parties + 1)):
        raise ValueError(f"bad grouping {text!r}: the blocks must cover all "
                         f"{structure.num_parties} parties exactly once")
    return PartyGrouping(tuple(tuple(p - 1 for p in b) for b in blocks))


def _parse_norm_consts(entries: Sequence[str]) -> NormalizationScheme:
    constants: dict[int, float] = {}
    for entry in entries:
        match = re.fullmatch(r"\s*(\d+)\s*=\s*([0-9.eE+-]+)\s*", entry)
        if not match:
            raise ValueError(
                f"bad normalization constant {entry!r}: expected 'D=VALUE'"
            )
        constants[int(match.group(1))] = float(match.group(2))
    return NormalizationScheme(constants)


def _load_state(args: argparse.Namespace) -> StateVector:
    normalize = bool(getattr(args, "normalize", False))
    if getattr(args, "expr", None):
        return parse_ket(args.expr, normalize=normalize)
    path = args.state
    if path is None:
        raise ValueError("provide --state FILE or --expr TEXT")
    if path.endswith(".ket.json"):
        return load_ket_json(path, normalize=normalize)
    if path.endswith(".ket"):
        with open(path) as fh:
            return parse_ket(fh.read(), normalize=normalize)
    # unknown extension: sniff JSON, otherwise treat as an expression file
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return load_ket_json(path, normalize=normalize)
    return parse_ket(text, normalize=normalize)


def _load_unitary_matrix(path: str) -> np.ndarray:
    data = read_json(path)
    try:
        re_part = np.asarray(data["re"], dtype=float)
        im_part = np.asarray(data.get("im", np.zeros_like(re_part)), dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise KetFormatError(
            "unitary file must hold {'re': [[...]], 'im': [[...]]}"
        ) from exc
    if im_part.shape != re_part.shape:
        raise KetFormatError(
            f"unitary file holds 're' of shape {re_part.shape} and 'im' of "
            f"shape {im_part.shape}"
        )
    # assigned, not multiplied by 1j: inf * 1j is nan + inf j, with a warning
    matrix = re_part.astype(complex)
    matrix.imag = im_part
    return matrix


def _parse_gate(text: str, party: int, dim: int) -> LocalUnitary:
    if text == "H":
        if dim != 2:
            raise ValueError("the H gate acts on qubits only")
        return hadamard(party)
    phase_match = re.fullmatch(r"PHASE\(([^)]*)\)", text)
    if phase_match:
        phases = [float(x) for x in phase_match.group(1).split(",")]
        if len(phases) != dim:
            raise ValueError(
                f"PHASE needs {dim} angles for a party of dimension {dim}, "
                f"got {len(phases)}"
            )
        return phase_gate(party, phases)
    file_match = re.fullmatch(r"U\((.+)\)", text)
    if file_match:
        return LocalUnitary(party, _load_unitary_matrix(file_match.group(1)))
    raise ValueError(
        f"unknown gate {text!r}: expected H, PHASE(p0,...,pN-1), or U(file)"
    )


def _unitary_to_dict(unitary: LocalUnitary) -> dict[str, Any]:
    return {
        "party": unitary.party + 1,
        "re": unitary.matrix.real.tolist(),
        "im": unitary.matrix.imag.tolist(),
    }


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_compute(args: argparse.Namespace, out: TextIO) -> int:
    state = _load_state(args)
    scheme = _parse_norm_consts(args.norm_const or [])
    if args.subset:
        selectors = [_parse_subset(s, state.structure) for s in args.subset]
        values = {
            sel: component(state, sel, scheme) for sel in selectors
        }
        report = TensorReport(state.structure, scheme, values)
    elif args.sizes is not None:
        if not args.sizes.strip():
            raise ValueError("--sizes needs a comma list of subset sizes, got none")
        sizes = [int(s) for s in args.sizes.split(",")]
        report = full_tensor(state, scheme, sizes=sizes)
    else:
        report = full_tensor(state, scheme)
    doc = report_document(report)
    if args.detached:
        doc["detached_parties"] = [
            i + 1 for i, flag in enumerate(separability_scan(state)) if flag
        ]
    if args.table:
        components = doc["components"]
        labels = components.labels()
        width = max(map(len, ["subset", *labels] + ["detached"] * args.detached))
        row = f"%-{width}s  %.15g\n"
        footer = row % ("norm", doc["tensor_norm"])
        if args.detached:
            parties = ",".join(map(str, doc["detached_parties"])) or "none"
            footer += f"{'detached':<{width}}  {parties}\n"
        out.write(f"{'subset':<{width}}  value\n"
                  + "".join(map(row.__mod__, zip(labels, components.values)))
                  + footer)
    else:
        write_json(doc, out, round_floats=True)
    return 0


def _env_seed() -> int:
    """The seed in ``$ETENSOR_SEED``, 0 if unset."""
    text = os.environ.get(SEED_ENV_VAR, "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise _UsageError(f"{SEED_ENV_VAR} must be a non-negative integer, "
                          f"got {text!r}")
    return seed


def _cmd_optimize(args: argparse.Namespace, out: TextIO) -> int:
    if args.seed is not None and args.seed < 0:
        raise _UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    seed = _env_seed() if args.seed is None else args.seed
    state = _load_state(args)
    scheme = _parse_norm_consts(args.norm_const or [])
    config = OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.iters,
        step_tol=args.step_tol,
        value_tol=args.value_tol,
        seed=seed,
    )
    if args.subsets:
        selectors = [_parse_subset(s, state.structure)
                     for s in args.subsets.split(";")]
        result = maximize_simultaneous(
            state, selectors, scheme, config, objective=args.objective
        )
        subset_doc = [[p + 1 for p in sel.parties] for sel in selectors]
        objective_name = args.objective
    else:
        if not args.subset:
            raise ValueError("provide --subset or --subsets")
        selector = _parse_subset(args.subset, state.structure)
        result = maximize_component(state, selector, scheme, config)
        subset_doc = [[p + 1 for p in selector.parties]]
        objective_name = "component"
    doc = {
        "subsets": subset_doc,
        "objective": objective_name,
        "seed": seed,
        "restarts": config.restarts,
        "best_value": result.best_value,
        "best_restart": result.best_restart,
        "restart_values": list(result.restart_values),
        "unitaries": [_unitary_to_dict(u) for u in result.best_unitaries],
    }
    if args.diagnostics:
        doc["diagnostics"] = [dataclasses.asdict(r) for r in result.restarts]
    write_json(doc, out, round_floats=True)
    return 0


def _cmd_measure(args: argparse.Namespace, out: TextIO) -> int:
    state = _load_state(args)
    party = _party(state.structure, args.party)
    dim = state.structure.dims[party]
    if not 0 <= args.outcome < dim:
        raise ValueError(f"outcome {args.outcome} out of range for party "
                         f"{args.party} of dimension {dim}")
    prob, conditioned = measure_party(state, party, args.outcome)
    doc: dict[str, Any] = {
        "party": args.party,
        "outcome": args.outcome,
        "probability": prob,
    }
    if conditioned is None:
        doc["state"] = None
    else:
        doc["state"] = state_document(conditioned)
        doc["labels"] = list(conditioned.structure.labels)
    write_json(doc, out, round_floats=True)
    return 0


def _cmd_apply(args: argparse.Namespace, out: TextIO) -> int:
    state = _load_state(args)
    party = _party(state.structure, args.party)
    gate = _parse_gate(args.gate, party, state.structure.dims[party])
    result = apply_local(state, gate)
    write_json(state_document(result), out)
    return 0


def _cmd_regroup(args: argparse.Namespace, out: TextIO) -> int:
    state = _load_state(args)
    grouping = _parse_groups(args.groups, state.structure)
    result = regroup(state, grouping)
    doc = state_document(result)
    doc["labels"] = list(result.structure.labels)
    write_json(doc, out)
    return 0


def _cmd_oracle(args: argparse.Namespace, out: TextIO) -> int:
    kind = args.kind
    if kind == "dur":
        if args.m is None:
            raise ValueError("oracle --kind dur needs --m")
        value = dur_average(args.m)
        doc = {"kind": "dur", "m": args.m, "value": value}
    else:
        state = _load_state(args)
        if kind == "concurrence":
            value = concurrence_pure_2qubit(state)
            doc = {"kind": "concurrence", "value": value}
        elif kind == "purity":
            if not args.split:
                raise ValueError("oracle --kind purity needs --split")
            grouping = _parse_groups(args.split, state.structure)
            value = concurrence_purity(state, grouping)
            doc = {"kind": "purity", "split": args.split, "value": value}
        elif kind == "wootters":
            if not args.pair:
                raise ValueError("oracle --kind wootters needs --pair")
            pair = _parse_subset(args.pair, state.structure)
            if pair.size != 2:
                raise ValueError("--pair must name exactly two parties")
            for p in pair.parties:
                if state.structure.dims[p] != 2:
                    raise ValueError(
                        f"kept party {p + 1} has dimension "
                        f"{state.structure.dims[p]}, but the two-qubit "
                        "reduction requires qubits")
            rho = trace_to_pair(state, pair.parties)
            value = concurrence_mixed_2qubit(rho)
            doc = {
                "kind": "wootters",
                "pair": [p + 1 for p in pair.parties],
                "value": value,
            }
        else:  # pragma: no cover - the option table restricts choices
            raise ValueError(f"unknown oracle kind {kind!r}")
    write_json(doc, out, round_floats=True)
    return 0


# ---------------------------------------------------------------------------
# built-in golden suite


def _cmd_paper_suite(args: argparse.Namespace, out: TextIO) -> int:
    failures = 0
    for check, got in golden.results(golden.CHECKS):
        ok = abs(got - check.want) <= check.tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {check.name}: got {got:.15g}, "
              f"want {check.want:.15g}", file=out)

    # informative only: a state carrying both pair and triple entanglement,
    # for which no closed-form component values exist
    report = full_tensor(parse_ket("(|1,1,0> + |1,0,1> + |0,1,1> + |1,0,0>)/2"))
    values = ", ".join(f"c{''.join(str(p + 1) for p in s.parties)}={v:.6f}"
                       for s, v in report.components.items())
    print(f"INFO  pair+triple example state: {values}", file=out)
    print("INFO  w-state contrast: pair components square to 2/M when the "
          "other parties measure and communicate; discarded (traced-out) "
          "pairs average 4/M^2", file=out)
    total = len(golden.CHECKS)
    print(f"{total - failures}/{total} checks passed", file=out)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


class _Option(NamedTuple):
    """One long option of a subcommand, in ``add_argument``'s terms."""

    name: str
    help: str | None = None
    action: str = "store"  # or "store_true", "append"
    type: Callable[[str], Any] | None = None
    choices: tuple[str, ...] | None = None
    default: Any = None
    required: bool = False
    metavar: str | None = None

    def arguments(self) -> dict[str, Any]:
        """``add_argument``'s keywords; a flag takes no value settings."""
        kwargs = {"action": self.action, "required": self.required,
                  "help": self.help}
        if self.action != "store_true":
            kwargs.update(type=self.type, choices=self.choices,
                          default=self.default, metavar=self.metavar)
        return kwargs


class _Command(NamedTuple):
    help: str
    func: Callable[[argparse.Namespace, TextIO], int]
    options: tuple[_Option, ...]


_STATE_OPTIONS = (
    _Option("--state", help="path to a .ket or .ket.json file"),
    _Option("--expr", help="inline ket expression"),
    _Option("--normalize", action="store_true",
            help="rescale unnormalized input instead of rejecting it"),
)

# every subcommand and its options, in the order of their help text
_COMMANDS = {
    "compute": _Command("component values for subsets of parties", _cmd_compute, (
        *_STATE_OPTIONS,
        _Option("--all", action="store_true",
                help="all subsets of every size (default)"),
        _Option("--sizes", help="comma list of subset sizes"),
        _Option("--subset", action="append",
                help="one 1-based subset like 1,2 (repeatable)"),
        _Option("--norm-const", action="append", metavar="D=VALUE",
                help="override the normalization constant for size D"),
        _Option("--table", action="store_true",
                help="aligned table instead of JSON"),
        _Option("--detached", action="store_true",
                help="list the parties that factor out of the state"),
    )),
    "optimize": _Command("maximize components over local unitaries", _cmd_optimize, (
        *_STATE_OPTIONS,
        _Option("--subset", help="1-based subset like 2,3"),
        _Option("--subsets", help="semicolon list of subsets for a joint search"),
        _Option("--objective", choices=("min", "mean"), default="min",
                help="joint objective for --subsets"),
        _Option("--restarts", type=int, default=32),
        _Option("--iters", type=int, default=500),
        _Option("--step-tol", type=float, default=1e-8),
        _Option("--value-tol", type=float, default=1e-10),
        _Option("--seed", type=int, help=f"default: ${SEED_ENV_VAR} or 0"),
        _Option("--norm-const", action="append", metavar="D=VALUE"),
        _Option("--diagnostics", action="store_true",
                help="add each restart's stop reason, iteration and "
                     "evaluation counts and wall time"),
    )),
    "measure": _Command("computational-basis measurement of one party", _cmd_measure, (
        *_STATE_OPTIONS,
        _Option("--party", type=int, required=True),
        _Option("--outcome", type=int, required=True),
    )),
    "apply": _Command("apply a local gate", _cmd_apply, (
        *_STATE_OPTIONS,
        _Option("--party", type=int, required=True),
        _Option("--gate", required=True,
                help="H, PHASE(p0,...,pN-1), or U(file.json)"),
    )),
    "regroup": _Command("merge parties into blocks, e.g. --groups 1,2|3,4",
                        _cmd_regroup, (
        *_STATE_OPTIONS,
        _Option("--groups", required=True),
    )),
    "oracle": _Command("independent concurrence reference values", _cmd_oracle, (
        *_STATE_OPTIONS,
        _Option("--kind", required=True,
                choices=("concurrence", "purity", "wootters", "dur")),
        _Option("--split", help="bipartition for --kind purity"),
        _Option("--pair", help="kept qubit pair for --kind wootters"),
        _Option("--m", type=int, help="party count for --kind dur"),
    )),
    "paper-suite": _Command("run the built-in table of closed-form example states",
                            _cmd_paper_suite, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etensor",
        description="entanglement tensor components of pure multipartite states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub_parser = sub.add_parser(name, help=command.help)
        for option in command.options:
            sub_parser.add_argument(option.name, **option.arguments())
        sub_parser.set_defaults(func=command.func)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser behind ``main``.

    Parsing leaves a parser unchanged: each call fills a fresh namespace,
    and usage errors go to the ``sys.stderr`` current at that call.
    """
    return build_parser()


def _reading_table(command: _Command) -> tuple[dict, dict, tuple[str, ...]]:
    """``command``'s options by name with their dests, the namespace's
    defaults (``func`` too) and the dests of the required options."""
    options, defaults = {}, {"func": command.func}
    for option in command.options:
        dest = option.name[2:].replace("-", "_")
        options[option.name] = option, dest
        defaults[dest] = False if option.action == "store_true" else option.default
    required = tuple(dest for option, dest in options.values() if option.required)
    return options, defaults, required


_READING = {name: _reading_table(command) for name, command in _COMMANDS.items()}


def _read_argv(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``parse_args`` would give for well-formed ``argv``, or None.

    Well-formed is a subcommand, then that subcommand's exact long options,
    each value option followed by a value that does not start with ``-``,
    each value converted by its type and within its choices, and every
    required option given.  Anything else (help, abbreviations,
    ``--opt=value``, ``--``, values such as ``-1``, and every mistake) is
    None, and argparse reads it by its own rules.
    """
    if not argv or argv[0] not in _READING:
        return None
    options, defaults, required = _READING[argv[0]]
    values = {**defaults, "command": argv[0]}
    i, end = 1, len(argv)
    while i < end:
        found = options.get(argv[i])
        if found is None:
            return None
        option, dest = found
        if option.action == "store_true":
            values[dest] = True
            i += 1
            continue
        if i + 1 == end or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if option.type is not None:
            try:
                value = option.type(value)
            except (TypeError, ValueError):
                return None
        if option.choices is not None and value not in option.choices:
            return None
        if option.action == "append":
            value = [*(values[dest] or ()), value]
        values[dest] = value
        i += 2
    if any(values[dest] is None for dest in required):
        return None
    return argparse.Namespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = _shared_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
            return code
    try:
        return args.func(args, sys.stdout)
    except KetSyntaxError as exc:
        print(f"parse error at {exc.line}:{exc.col}: {exc.reason}",
              file=sys.stderr)
        return 2
    except KetFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except NormalizationError as exc:
        print(f"state error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (WorkLimitError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the input is too large for this machine",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
