"""Brute-force references the tests compare the library against: literal
definitions at exponential or per-step cost, kept out of the package; and
the no-child check of the tests that fork."""

import os

import numpy as np
import pytest

from cltlab import rng as rngmod
from cltlab.processes import FiniteKernel


def assert_no_child() -> None:
    """This process has no child left, running or unreaped. A worker that
    run_parts forks is a bare os.fork child, which
    multiprocessing.active_children() does not see."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _solve_stationary(k: np.ndarray) -> np.ndarray:
    """Stationary law of the row-stochastic matrix k by one linear solve and
    one power-iteration refinement."""
    n = k.shape[0]
    a = k.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.maximum(pi, 0.0)
    pi = pi @ k  # one power-iteration refinement
    return pi / pi.sum()


def dense_rows(matrix: np.ndarray) -> tuple:
    """Slot-major (cols, weights) of a dense matrix: row i's nonzero columns
    in increasing order, padded to the widest row with zero-weight slots
    that point at the row's first zero columns."""
    width = int(np.count_nonzero(matrix, axis=1).max(initial=0))
    cols = np.argsort(matrix == 0, axis=1, kind="stable")[:, :width].T
    return cols, np.take_along_axis(matrix, cols.T, axis=1).T


def dense_kernel(states, matrix, stationary) -> FiniteKernel:
    """The FiniteKernel of a dense row-stochastic matrix."""
    return FiniteKernel(states, *dense_rows(np.asarray(matrix, dtype=float)), stationary)


def index_of(kernel: FiniteKernel, state: int) -> int:
    """The row of a chain state in the kernel's sorted states."""
    idx = int(np.searchsorted(kernel.states, state))
    if idx >= kernel.size or kernel.states[idx] != state:
        raise ValueError(f"state {state} not in kernel")
    return idx


def sample_chain(kernel: FiniteKernel, n: int, seed: int, replicate: int = 0) -> np.ndarray:
    """One stationary path of length n+1 (Y_0 ~ pi, then n kernel steps)."""
    gen_init = rngmod.stream(seed, rngmod.ROLE_INIT, replicate, n)
    gen_step = rngmod.stream(seed, rngmod.ROLE_STEP, replicate, n)
    cum_pi = np.cumsum(kernel.stationary)
    row_cum = np.cumsum(kernel.matrix, axis=1)
    idx = int(np.searchsorted(cum_pi, gen_init.random()))
    path = np.empty(n + 1, dtype=int)
    path[0] = kernel.states[idx]
    u = gen_step.random(n)
    for t in range(n):
        idx = int(np.searchsorted(row_cum[idx], u[t]))
        path[t + 1] = kernel.states[idx]
    return path


def alpha1_bruteforce(kernel: FiniteKernel, n: int) -> float:
    """Literal sup over all event pairs of the strong mixing coefficient
    between Y_0 and Y_n."""
    pi = kernel.stationary
    kn = np.linalg.matrix_power(kernel.matrix, n)
    d = pi[:, None] * kn - np.outer(pi, pi)
    size = kernel.size
    best = 0.0
    for ia in range(1 << size):
        a = [(ia >> s) & 1 for s in range(size)]
        row = np.array(a, dtype=float) @ d
        for ib in range(1 << size):
            b = np.array([(ib >> s) & 1 for s in range(size)], dtype=float)
            best = max(best, abs(float(row @ b)))
    return best


def phi1_bruteforce(kernel: FiniteKernel, n: int, f=None) -> float:
    """Direct definition scan of sup_{x, y0} |P(Y_n <= x | y0) - P(Y_n <= x)|."""
    values = kernel.states.astype(float) if f is None else np.asarray(f, dtype=float)
    kn = np.linalg.matrix_power(kernel.matrix, n)
    pi = kernel.stationary
    best = 0.0
    for x in np.unique(values):
        ind = (values <= x).astype(float)
        base = float(pi @ ind)
        for s in range(kernel.size):
            best = max(best, abs(float(kn[s] @ ind) - base))
    return best
