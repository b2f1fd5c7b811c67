"""The four seeded workloads: input generation, ops, and their checks.

A workload turns a seeded generator into a *pool*: a fixed list of ops on
distinct inputs.  The measured loop repeats the whole pool in rounds, so
every run measures the same inputs however fast the host is, and each input
is timed several times.  Each op calls the program through module
attributes (``etensor.tensor.full_tensor``, ``etensor.cli.main``, ...), which
is where the traced run patches in its spans.  Inputs are built with plain
numpy; the program only ever sees the generated states and argv.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import etensor.cli
import etensor.supremum
import etensor.tensor
from etensor.states import PartyStructure, StateVector

import gate
from gate import close, require


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # traced runs only: extra layer calls made after the op, outside its time
    replay: Callable[[Any], None] | None = None
    # traced runs only: counts read off the op's result
    tally: Callable[[Any, dict], None] | None = None


@dataclass
class Patch:
    """Module attribute to wrap in the traced run."""

    module: Any
    attr: str
    span: str
    result_span: str | None = None
    count: Callable[[dict, tuple, dict], None] | None = None


@dataclass
class Workload:
    name: str
    why: str
    sizes: str
    build: Callable[[np.random.Generator, bool, str], list[Op]]
    patches: Callable[[], list[Patch]]


def haar_state(dims: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    n = math.prod(dims)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return (z / np.linalg.norm(z)).reshape(dims)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def apply_on(tensor: np.ndarray, matrix: np.ndarray, party: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(matrix, tensor, axes=(1, party)), 0, party)


def as_state(tensor: np.ndarray) -> StateVector:
    return StateVector(PartyStructure(tensor.shape), tensor.reshape(-1))


# ---------------------------------------------------------------------------
# exact work counts of the component evaluator, from dims alone


@functools.lru_cache(maxsize=None)
def _evaluator_work(dims: tuple[int, ...], sizes: tuple[int, ...]) -> tuple[int, ...]:
    """(subsets, pair choices, sectors, gathered bytes) over the given sizes.

    Per subset: one pair choice per element of the product of the selected
    parties' C(d, 2), one sector per joint value of the unselected parties,
    and per pair choice a gathered block of 2^D x sectors complex128 values.
    """
    subsets = choices = sectors = gathered = 0
    for size in sizes:
        for subset in itertools.combinations(range(len(dims)), size):
            pairs = math.prod(math.comb(dims[i], 2) for i in subset)
            rest = math.prod(d for i, d in enumerate(dims) if i not in subset)
            subsets += 1
            choices += pairs
            sectors += rest
            gathered += pairs * 2**size * rest * 16
    return subsets, choices, sectors, gathered


def tensor_counts(counts: dict, dims: tuple[int, ...], sizes=None) -> None:
    """Add the evaluator's work for every subset of the given sizes."""
    sizes = tuple(range(2, len(dims) + 1) if sizes is None else sizes)
    work = _evaluator_work(tuple(dims), sizes)
    for name, value in zip(("tensor.subsets", "tensor.pair_choices",
                            "tensor.sectors", "tensor.gathered_bytes_computed"),
                           work):
        counts[name] += value


def count_full_tensor(counts: dict, args: tuple, kwargs: dict) -> None:
    sizes = kwargs.get("sizes", args[2] if len(args) > 2 else None)
    tensor_counts(counts, args[0].structure.dims, sizes)


def count_component(counts: dict, args: tuple, kwargs: dict) -> None:
    tensor_counts(counts, args[0].structure.dims, [args[1].size])


# ---------------------------------------------------------------------------
# tensor-many-subsets and tensor-wide-qudits


def _full_tensor_op(tensor: np.ndarray) -> Op:
    state = as_state(tensor)
    dims = tensor.shape
    known: dict = {}

    def check(report) -> None:
        expected = 2 ** len(dims) - len(dims) - 1
        require(len(report.components) == expected,
                f"{len(report.components)} components, want {expected}")
        gate.check_pair_components(
            tensor, ((s.parties, v) for s, v in report.components.items()), known)

    def replay(report) -> None:
        for subset, value in report.components.items():
            evaluate = etensor.tensor.component_evaluator(state.structure, subset)
            close(evaluate(state.tensor), value, gate.PAIR_TOL,
                  f"evaluator {subset.parties}")

    return Op("full_tensor" + "x".join(map(str, dims)),
              lambda: etensor.tensor.full_tensor(state), check, replay=replay)


def _tensor_patches() -> list[Patch]:
    return [
        Patch(etensor.tensor, "full_tensor", "tensor.full_tensor",
              count=count_full_tensor),
        Patch(etensor.tensor, "component_evaluator", "tensor.compile",
              result_span="tensor.evaluate"),
    ]


def build_many_subsets(rng, tiny, workdir) -> list[Op]:
    dims = (2,) * (5 if tiny else 8)
    # enough states for a tail with ten inputs beyond it at p82, and few
    # enough that each is repeated dozens of times in a run
    return [_full_tensor_op(haar_state(dims, rng)) for _ in range(4 if tiny else 55)]


def build_wide_qudits(rng, tiny, workdir) -> list[Op]:
    ququarts, qutrits = ((4, 4, 3), (3, 3, 3)) if tiny else ((4,) * 5, (3,) * 6)
    return [_full_tensor_op(haar_state(dims, rng))
            for _ in range(2) for dims in (ququarts, qutrits)]


# ---------------------------------------------------------------------------
# optimize-rotated

OPT_RESTARTS = 8
OPT_ITERS = 300
ROTATIONS = 2


def _ghz(num_parties: int, dim: int) -> np.ndarray:
    t = np.zeros((dim,) * num_parties, dtype=complex)
    for k in range(dim):
        t[(k,) * num_parties] = 1.0
    return t / math.sqrt(dim)


def _w(num_parties: int) -> np.ndarray:
    t = np.zeros((2,) * num_parties, dtype=complex)
    for p in range(num_parties):
        t[tuple(int(i == p) for i in range(num_parties))] = 1.0
    return t / math.sqrt(num_parties)


def _rotated(tensor: np.ndarray, rng) -> np.ndarray:
    for party, dim in enumerate(tensor.shape):
        tensor = apply_on(tensor, haar_unitary(dim, rng), party)
    return tensor


def _tally_search(best: float, restart_values, counts: dict) -> None:
    counts["supremum.restarts"] += len(restart_values)
    counts["supremum.restarts_at_best"] += sum(
        abs(v - best) <= 1e-6 for v in restart_values)
    counts["best_values"].append(best)


def _search_op(kind, tensor, subset, plateau, seed) -> Op:
    state = as_state(tensor)
    selector = etensor.tensor.SubsetSelector(subset)
    config = etensor.supremum.OptimizerConfig(
        restarts=OPT_RESTARTS, max_iters=OPT_ITERS, seed=seed)

    def run():
        return etensor.supremum.maximize_component(state, selector, config=config)

    def check(result) -> None:
        gate.check_plateau(result.best_value, result.restart_values, plateau, kind)

    def tally(result, counts) -> None:
        _tally_search(result.best_value, result.restart_values, counts)

    return Op(kind, run, check, tally=tally)


def build_optimize(rng, tiny, workdir) -> list[Op]:
    ops = []
    for _ in range(1 if tiny else ROTATIONS):
        seed = int(rng.integers(2**31))
        ghz3, w3, w4 = (_rotated(t, rng) for t in (_ghz(3, 2), _w(3), _w(4)))
        qutrit = _rotated(_ghz(3, 3), rng)
        pair3 = tuple(sorted(rng.choice(3, 2, replace=False).tolist()))
        pair4 = tuple(sorted(rng.choice(4, 2, replace=False).tolist()))
        ops += [
            _search_op("ghz3-pair", ghz3, pair3, 1.0, seed),
            _search_op("w3-pair", w3, pair3, math.sqrt(2 / 3), seed),
        ]
        if not tiny:
            ops += [
                _search_op("ghz3-triple", ghz3, (0, 1, 2), 1.0, seed),
                _search_op("w4-pair", w4, pair4, math.sqrt(0.5), seed),
                _search_op("qutrit-ghz-pair", qutrit, pair3, 2 / math.sqrt(3), seed),
            ]
    return ops


def _optimize_patches() -> list[Patch]:
    return [
        Patch(etensor.supremum, "maximize_component", "supremum.maximize"),
        Patch(etensor.supremum, "component_evaluator", "tensor.compile",
              result_span="supremum.objective"),
    ]


# ---------------------------------------------------------------------------
# cli-mixed


def _write_json_state(path: str, tensor: np.ndarray) -> None:
    entries = [{"index": [int(k) for k in index], "re": float(value.real),
                "im": float(value.imag)}
               for index, value in np.ndenumerate(tensor) if value != 0]
    with open(path, "w") as fh:
        json.dump({"dims": list(tensor.shape), "amplitudes": entries}, fh)


def _ket_text(tensor: np.ndarray) -> str:
    """Ket expression with one real and one imaginary term per amplitude."""
    text = []
    for index, value in np.ndenumerate(tensor):
        if value == 0:
            continue
        label = "|" + ",".join(map(str, index)) + ">"
        for part, unit in ((value.real, ""), (value.imag, "i*")):
            text.append(f"{'-' if part < 0 else '+'} {abs(part):.12f}*{unit}{label}")
    return " ".join(text)


def _sparse_state(dims: tuple[int, ...], terms: int, rng) -> np.ndarray:
    """Unnormalized superposition of a few basis kets, 12 decimals exact.

    The last flat index, every party at its highest digit, is always a
    term: the parser infers each party's dimension from its largest digit.
    """
    tensor = np.zeros(dims, dtype=complex)
    last = math.prod(dims) - 1
    others = rng.choice(last, terms - 1, replace=False)
    for index in [last, *others]:
        tensor[np.unravel_index(int(index), dims)] = complex(*rng.normal(size=2))
    return np.round(tensor, 12)


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = etensor.cli.main(argv)
    return code, out.getvalue()


def _amplitudes(doc: dict) -> np.ndarray:
    tensor = np.zeros(doc["dims"], dtype=complex)
    for entry in doc["amplitudes"]:
        tensor[tuple(entry["index"])] = complex(entry["re"], entry["im"])
    return tensor


def _cli_op(kind: str, argv: list[str], check_doc: Callable[[str], None],
            tally_doc: Callable[[dict, dict], None] | None = None) -> Op:
    def check(result) -> None:
        code, out = result
        require(code == 0, f"exit code {code}")
        check_doc(out)

    def tally(result, counts) -> None:
        counts["cli.stdout_bytes"] += len(result[1].encode())
        if tally_doc is not None:
            tally_doc(json.loads(result[1]), counts)

    return Op(kind, lambda: _cli(argv), check, tally=tally)


def _pairs(components) -> list:
    return [(tuple(p - 1 for p in c["subset"]), c["value"]) for c in components]


def _compute_checks(tensor: np.ndarray, subsets, known: dict) -> Callable[[str], None]:
    want = len(set(subsets)) if subsets else 2 ** tensor.ndim - tensor.ndim - 1

    def check(out: str) -> None:
        doc = json.loads(out)
        require(len(doc["components"]) == want, "component count")
        gate.check_pair_components(tensor, _pairs(doc["components"]), known)
        require(math.isfinite(doc["tensor_norm"]), "tensor norm")
    return check


def _table_check(tensor: np.ndarray, known: dict) -> Callable[[str], None]:
    def check(out: str) -> None:
        lines = out.splitlines()
        require(lines[0].split() == ["subset", "value"], "table header")
        rows = [line.split() for line in lines[1:-1]]
        require(len(rows) == 2 ** tensor.ndim - tensor.ndim - 1, "table rows")
        gate.check_pair_components(tensor, [
            (tuple(int(p) - 1 for p in label.split(",")), float(value))
            for label, value in rows], known)
        require(lines[-1].split()[0] == "norm", "table norm row")
    return check


def _same_state(doc: dict, expected: np.ndarray) -> None:
    got = _amplitudes(doc)
    require(got.shape == expected.shape, f"dims {got.shape}")
    require(bool(np.all(np.abs(got - expected) <= gate.EXACT_TOL)),
            "amplitudes differ from the reference")


def _state_check(expected: np.ndarray) -> Callable[[str], None]:
    return lambda out: _same_state(json.loads(out), expected)


def _measure_check(tensor: np.ndarray, party: int, outcome: int):
    branch = tensor.take(outcome, axis=party)
    prob = float(np.sum(np.abs(branch) ** 2))

    def check(out: str) -> None:
        doc = json.loads(out)
        close(doc["probability"], prob, gate.EXACT_TOL, "probability")
        if prob == 0.0:  # sparse states: an outcome the state never gives
            require(doc["state"] is None, "state after an impossible outcome")
        else:
            _same_state(doc["state"], branch / math.sqrt(prob))
    return check


def _value_check(want: float, tol: float) -> Callable[[str], None]:
    def check(out: str) -> None:
        close(json.loads(out)["value"], want, tol, "oracle value")
    return check


def _squared_value_check(want: float) -> Callable[[str], None]:
    """The oracle forms 1 - Tr rho^2 by subtraction, so it is exact in its
    square but carries ~1e-8 near zero; compare squares."""
    def check(out: str) -> None:
        got = json.loads(out)["value"]
        close(got * got, want * want, gate.EXACT_TOL, "oracle value squared")
    return check


def _optimize_check(start: float, supremum: float) -> Callable[[str], None]:
    def check(out: str) -> None:
        doc = json.loads(out)
        gate.check_ascent(doc["best_value"], doc["restart_values"], start,
                          supremum, "optimize")
    return check


def _suite_check(out: str) -> None:
    lines = out.splitlines()
    require(all(line.startswith(("PASS", "INFO")) for line in lines[:-1]),
            "paper-suite reported a failing check")
    passed, total = lines[-1].split()[0].split("/")
    require(passed == total and lines[-1].endswith("checks passed"),
            f"paper-suite: {lines[-1]}")


# (dims, file format, sparse term count or 0 for dense)
CLI_STATES = [
    ((2, 2, 2), "json", 0),
    ((2, 3, 2, 2), "json", 0),
    ((2, 2, 2, 2, 2), "ket", 6),
    ((3, 3, 2, 2, 2, 2), "json", 0),
    ((3, 2, 3, 2, 2, 2, 2), "ket", 8),
    ((2,) * 8, "json", 0),
]


def build_cli(rng, tiny, workdir) -> list[Op]:
    states = CLI_STATES[:2] if tiny else CLI_STATES
    ops = []
    for n, (dims, fmt, terms) in enumerate(states):
        path = os.path.join(workdir, f"s{n}.ket" + (".json" if fmt == "json" else ""))
        if fmt == "ket":
            tensor = _sparse_state(dims, terms, rng)
            with open(path, "w") as fh:
                fh.write(_ket_text(tensor) + "\n")
            tensor = tensor / np.linalg.norm(tensor)
        else:
            tensor = haar_state(dims, rng)
            _write_json_state(path, tensor)
        src = ["--state", path] + (["--normalize"] if fmt == "ket" else [])
        known: dict = {}
        m = len(dims)
        qubits = [p for p in range(m) if dims[p] == 2]
        a, b = sorted(rng.choice(qubits, 2, replace=False).tolist())
        party = int(rng.integers(m))
        outcome = int(rng.integers(dims[party]))
        angles = rng.uniform(0, 2 * math.pi, size=dims[party])
        phase = "PHASE(" + ",".join(f"{x:.6f}" for x in angles) + ")"
        hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        phase_matrix = np.diag(np.exp(1j * np.array([float(f"{x:.6f}") for x in angles])))
        split = list(range(1, m))
        ops += [
            _cli_op("compute-all", ["compute"] + src + ["--all"],
                    _compute_checks(tensor, None, known)),
            _cli_op("compute-subset",
                    ["compute"] + src + ["--subset", f"{a + 1},{b + 1}",
                                         "--subset", f"1,{m}"],
                    _compute_checks(tensor, [(a, b), (0, m - 1)], known)),
            _cli_op("compute-table", ["compute"] + src + ["--table"],
                    _table_check(tensor, known)),
            _cli_op("apply-H", ["apply"] + src + ["--party", str(a + 1), "--gate", "H"],
                    _state_check(apply_on(tensor, hadamard, a))),
            _cli_op("apply-PHASE",
                    ["apply"] + src + ["--party", str(party + 1), "--gate", phase],
                    _state_check(apply_on(tensor, phase_matrix, party))),
            _cli_op("measure", ["measure"] + src + ["--party", str(party + 1),
                                                    "--outcome", str(outcome)],
                    _measure_check(tensor, party, outcome)),
            _cli_op("regroup",
                    ["regroup"] + src + ["--groups", f"1,2|{','.join(str(p + 1) for p in split[1:])}"],
                    _state_check(tensor.reshape(dims[0] * dims[1], -1))),
            _cli_op("oracle-purity",
                    ["oracle", "--kind", "purity"] + src
                    + ["--split", "1|" + ",".join(str(p + 1) for p in split)],
                    _squared_value_check(
                        gate.purity_concurrence_reference(tensor, [0]))),
            _cli_op("oracle-wootters",
                    ["oracle", "--kind", "wootters"] + src + ["--pair", f"{a + 1},{b + 1}"],
                    _value_check(gate.wootters_reference(tensor, a, b),
                                 gate.WOOTTERS_TOL)),
        ]
    # one restart, from the input basis: a short op that reaches the
    # supremum layer through the CLI
    w3 = _rotated(_w(3), rng)
    path = os.path.join(workdir, "w3.ket.json")
    _write_json_state(path, w3)
    a, b = sorted(rng.choice(3, 2, replace=False).tolist())
    ops.append(_cli_op(
        "optimize", ["optimize", "--state", path, "--subset", f"{a + 1},{b + 1}",
                     "--restarts", "1", "--seed", str(int(rng.integers(2**31)))],
        _optimize_check(gate.pair_component_reference(w3, a, b), math.sqrt(2 / 3)),
        lambda doc, counts: _tally_search(doc["best_value"], doc["restart_values"],
                                          counts)))
    pair = np.round(haar_state((2, 2), rng), 12)
    expr = _ket_text(pair)
    pair = pair / np.linalg.norm(pair)
    m = int(rng.integers(3, 9))
    ops += [
        _cli_op("oracle-concurrence",
                ["oracle", "--kind", "concurrence", "--normalize", "--expr", expr],
                _value_check(2 * abs(pair[0, 0] * pair[1, 1] - pair[0, 1] * pair[1, 0]),
                             gate.EXACT_TOL)),
        _cli_op("oracle-dur", ["oracle", "--kind", "dur", "--m", str(m)],
                _value_check(4.0 / m**2, 1e-9)),
        _cli_op("paper-suite", ["paper-suite"], _suite_check),
    ]
    return ops


def _cli_patches() -> list[Patch]:
    cli = etensor.cli
    patches = [Patch(cli, "main", "cli.main")]
    for attr in ("parse_ket", "load_ket_json", "state_to_dict"):
        patches.append(Patch(cli, attr, f"ketparse.{attr}"))
    for attr in ("apply_local", "measure_party", "regroup", "trace_to_pair"):
        patches.append(Patch(cli, attr, f"localops.{attr}"))
    for attr in ("concurrence_pure_2qubit", "concurrence_purity",
                 "concurrence_mixed_2qubit", "dur_average"):
        patches.append(Patch(cli, attr, "oracles"))
    patches += [
        Patch(cli, "full_tensor", "tensor.full_tensor", count=count_full_tensor),
        Patch(cli, "separability_scan", "tensor.separability_scan",
              count=count_full_tensor),
        Patch(cli, "component", "tensor.component", count=count_component),
        Patch(cli, "component_evaluator", "tensor.compile",
              result_span="tensor.evaluate"),
        Patch(cli, "maximize_component", "supremum.maximize"),
        Patch(etensor.supremum, "component_evaluator", "tensor.compile",
              result_span="supremum.objective"),
    ]
    return patches


WORKLOADS = {
    w.name: w for w in [
        Workload("tensor-many-subsets",
                 "full_tensor on 55 Haar 8-qubit states: 247 subsets of one "
                 "pair choice each, so per-subset overhead dominates",
                 "55 states of dims (2,)*8", build_many_subsets, _tensor_patches),
        Workload("tensor-wide-qudits",
                 "full_tensor on Haar (4,)*5 and (3,)*6 states: 26 and 57 subsets "
                 "but 16776 and 4077 pair choices, so pair enumeration dominates",
                 "2 states of dims (4,)*5 and 2 of dims (3,)*6, alternating", build_wide_qudits,
                 _tensor_patches),
        Workload("optimize-rotated",
                 "supremum searches on Haar-rotated GHZ3/W3/W4/qutrit GHZ: one "
                 "evaluator called thousands of times per op",
                 "2 rotations x 5 maximize_component ops (8 restarts, 300 "
                 "iters)", build_optimize,
                 _optimize_patches),
        Workload("cli-mixed",
                 "in-process CLI calls on generated .ket/.ket.json files (3-8 "
                 "parties): parsing, local ops, oracles, output formatting",
                 "6 states and a rotated W3, 58 commands incl. paper-suite", build_cli,
                 _cli_patches),
    ]
}
