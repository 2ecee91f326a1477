"""Full-space cross-check routes for the truncated-space oracle.

`evolve` holds its state on the K-window around the sectors the ladder
occupies and never builds G as a matrix.  The tests compare it against routes
on the whole product space: the initial vector, the generator G as a scipy CSR
matrix (built on the oracle's own `_basis`, and checked against Kronecker
chains), a dense `scipy.linalg.expm`, and `full_vector`, which embeds an
evolved state in the whole space.  `whole_basis` is the basis spanning every K
of the space: the whole space, in full-space order.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix

from clcoherence import oracle
from clcoherence.errors import PhysicsGuardError


def initial_vector(space, electron_coefficients) -> np.ndarray:
    """Electron ladder amplitudes centred in the space, photon modes in vacuum."""
    c = np.asarray(electron_coefficients, dtype=complex)
    first = space.electron_halfwidth - c.size // 2
    vec = np.zeros(space.dimension, dtype=complex)
    vec[(first + np.arange(c.size)) * math.prod(space.photon_dims)] = c
    return vec


def full_vector(space, state) -> np.ndarray:
    """`evolve`'s state on the whole product space: 0 off its window."""
    vec = np.zeros(space.dimension, dtype=complex)
    vec[state.basis.states] = state.amplitudes
    return vec


def whole_basis(space) -> oracle.Basis:
    """The oracle's basis over every K = j + sum_i h_i n_i of the space."""
    top = space.electron_halfwidth + sum(m.harmonic * m.photon_cutoff for m in space.modes)
    return oracle._basis(*oracle._shape(space), -space.electron_halfwidth, top)


def build_generator(space, basis=None) -> csr_matrix:
    """Anti-Hermitian interaction generator G (complex128 CSR) on the states of
    `basis` (None: `whole_basis`), in their order."""
    basis = whole_basis(space) if basis is None else basis
    cols, sqrt_n, term = basis.cols, basis.sqrt_n, basis.term
    values = (sqrt_n * oracle._coefficients(space)[term, None]).T
    keep = sqrt_n.T > 0.0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    return csr_matrix((values[keep], cols.T[keep], indptr), (cols.shape[1],) * 2, dtype=complex)


def evolve_dense(space, electron_coefficients) -> np.ndarray:
    """Dense scipy.linalg.expm reference path (small spaces only)."""
    if space.dimension > 4000:
        raise PhysicsGuardError("dense reference limited to dimension <= 4000")
    gen = build_generator(space).toarray()
    return expm(gen) @ initial_vector(space, electron_coefficients)
