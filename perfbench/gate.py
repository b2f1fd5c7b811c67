"""Correctness gate: independent numpy references and the per-op verdict.

Nothing here calls into ``etensor``; every expected value is recomputed
from raw amplitudes so that a wrong engine result cannot vouch for itself.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

# tolerances set from what each reference can resolve in float64
PAIR_TOL = 1e-10  # pair components against the sector-purity identity
EXACT_TOL = 1e-12  # data movement and closed forms
WOOTTERS_TOL = 1e-7  # the reference squares the flip-product roots
PLATEAU_TOL = 1e-4  # optimizer plateaus, as in the acceptance suite


class GateFailure(Exception):
    """An op's output disagreed with its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise GateFailure(what)


def close(got: float, want: float, tol: float, what: str) -> None:
    """Fail unless ``got`` is a finite number within ``tol`` of ``want``.

    Written so that NaN fails: every comparison with NaN is False.
    """
    got = float(got)
    require(math.isfinite(got) and abs(got - want) <= tol,
            f"{what}: got {got!r}, want {want!r} within {tol:g}")


def pair_component_reference(tensor: np.ndarray, a: int, b: int) -> float:
    """sqrt(2 sum_s p_s (1 - Tr rho_s^2)) for parties a < b.

    The sector-wise purity identity (Rungta et al. 2001, PRA 64, 042315):
    fix every other party's basis value (sector s, probability p_s), and
    rho_s is the reduced state of party a in that sector.  With sigma the
    singular values of the sector's unnormalized a-by-b matrix,
    p_s (1 - Tr rho_s^2) = 2 sum_{i<j} sigma_i^2 sigma_j^2 / p_s, which has
    no cancellation when the sector is nearly a product.
    """
    rest = [k for k in range(tensor.ndim) if k not in (a, b)]
    mats = tensor.transpose([a, b] + rest).reshape(
        tensor.shape[a], tensor.shape[b], -1).transpose(2, 0, 1)
    sq = np.linalg.svd(mats, compute_uv=False) ** 2
    prob = sq.sum(axis=1)
    i, j = np.triu_indices(sq.shape[1], 1)
    pairs = (sq[:, i] * sq[:, j]).sum(axis=1)
    live = prob > 0.0
    return math.sqrt(4.0 * float(np.sum(pairs[live] / prob[live])))


def check_pair_components(tensor: np.ndarray,
                          components: Iterable[tuple[tuple[int, ...], float]],
                          known: dict) -> None:
    """Check every reported component; pairs against the reference.

    ``components`` yields (0-based parties, value).  Components of three or
    more parties have no closed form; they must be finite and non-negative.
    ``known`` keeps the references of ``tensor`` between calls.
    """
    for parties, value in components:
        if len(parties) == 2:
            if parties not in known:
                known[parties] = pair_component_reference(tensor, *parties)
            close(value, known[parties], PAIR_TOL, f"pair {parties}")
        else:
            require(math.isfinite(value) and value >= 0.0,
                    f"component {parties} = {value!r}")


def purity_concurrence_reference(tensor: np.ndarray, block: list[int]) -> float:
    """sqrt(2 (1 - Tr rho_A^2)) across the bipartition block | rest.

    With mu the Schmidt weights, 1 - Tr rho_A^2 = 2 sum_{i<j} mu_i mu_j,
    which stays exact for a product split.
    """
    rest = [k for k in range(tensor.ndim) if k not in block]
    rows = math.prod(tensor.shape[k] for k in block)
    mu = np.linalg.svd(tensor.transpose(block + rest).reshape(rows, -1),
                       compute_uv=False) ** 2
    i, j = np.triu_indices(len(mu), 1)
    return math.sqrt(4.0 * float(np.sum(mu[i] * mu[j])))


def wootters_reference(tensor: np.ndarray, a: int, b: int) -> float:
    """Two-qubit mixed-state concurrence of the reduced state of a, b.

    The flip-product roots are taken as square roots of the eigenvalues of
    the Hermitian sqrt(rho) rho~ sqrt(rho); a rank-deficient rho leaves
    about half the digits, hence ``WOOTTERS_TOL``.
    """
    rest = [k for k in range(tensor.ndim) if k not in (a, b)]
    block = tensor.transpose([a, b] + rest).reshape(4, -1)
    rho = block @ block.conj().T
    vals, vecs = np.linalg.eigh(rho)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    flipped = yy @ rho.conj() @ yy
    lams = np.sqrt(np.clip(np.linalg.eigvalsh(root @ flipped @ root), 0.0, None))
    lams = np.sort(lams)[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def check_ascent(best: float, restart_values: list[float], start: float,
                 supremum: float, what: str) -> None:
    """A search whose first restart climbs from the input basis: its best is
    the best restart, no lower than the input's value, and no restart rises
    above the known supremum."""
    close(best, max(restart_values), 0.0, f"{what} best against restarts")
    require(best >= start - PAIR_TOL, f"{what} best {best!r} below start {start!r}")
    for value in restart_values:
        require(math.isfinite(value) and value <= supremum + PLATEAU_TOL,
                f"{what} restart {value!r} above supremum {supremum!r}")


def check_plateau(best: float, restart_values: Iterable[float], plateau: float,
                  what: str) -> None:
    """The search reached its known supremum and no restart rose above it."""
    close(best, plateau, PLATEAU_TOL, f"{what} best")
    for value in restart_values:
        require(math.isfinite(value) and value <= plateau + PLATEAU_TOL,
                f"{what} restart {value!r} above plateau {plateau!r}")
