"""Finite-dimensional superselection-sector algebra on dense matrices.

A grading of a Hilbert space into orthogonal sectors restricts the
physical observables to block-diagonal matrices.  Coherences between
sectors are then unobservable: zeroing them out of any density matrix
(:func:`superselect`) changes no expectation value of any valid
observable.  State vectors may still straddle sectors on purpose; that
is exactly what makes the unobservability demonstrable.

Everything here is dense ``complex128``; the tolerances below are
calibrated for total dimensions up to ``MAX_DIM``.
"""

import numpy as np

from .core import _readonly, _Record
from .errors import ContractError, DomainError, StructureError

__all__ = [
    "MAX_DIM",
    "SectorSpace",
    "SectorObservable",
    "StateVector",
    "DensityMatrix",
    "is_valid_observable",
    "sector_matrix_element",
    "superselect",
    "purity",
    "sector_support",
    "sector_label_operator",
    "basis_state",
    "pure_density",
    "maximally_mixed",
    "expectation",
    "random_state",
    "random_sector_state",
    "random_hermitian_observable",
    "random_valid_observable",
    "random_density_matrix",
]

HERMITIAN_TOL = 1e-12
BLOCK_TOL = 1e-12
CROSS_ELEMENT_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-12
NORM_TOL = 1e-12
MAX_DIM = 64


class SectorSpace(_Record):
    """Ordered orthogonal decomposition of a finite Hilbert space.

    ``sector_dims[k]`` is the dimension of the k-th sector; basis
    vectors are laid out sector by sector in the flat index.
    """

    sector_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.sector_dims)
        object.__setattr__(self, "sector_dims", dims)
        if not dims:
            raise DomainError("at least one sector is required")
        if any(d < 1 for d in dims):
            raise DomainError(f"sector dimensions must be >= 1, got {dims}")
        if sum(dims) > MAX_DIM:
            raise DomainError(
                f"total dimension {sum(dims)} exceeds the supported cap {MAX_DIM}"
            )

    @property
    def total_dim(self) -> int:
        return sum(self.sector_dims)

    @property
    def n_sectors(self) -> int:
        return len(self.sector_dims)

    def slices(self) -> list[slice]:
        """One flat-index slice per sector, in order."""
        out, start = [], 0
        for d in self.sector_dims:
            out.append(slice(start, start + d))
            start += d
        return out

    def labels(self) -> np.ndarray:
        """Sector index of every basis vector."""
        return np.repeat(np.arange(self.n_sectors), self.sector_dims)


def _as_square(matrix, space: SectorSpace) -> np.ndarray:
    m = _readonly(matrix, complex)
    n = space.total_dim
    if m.shape != (n, n):
        raise StructureError(f"matrix shape {m.shape} does not match dimension {n}")
    return m


class SectorObservable(_Record):
    """Hermitian matrix acting on a graded space.

    Hermiticity is enforced at construction; whether the observable
    respects the grading is a separate, checked predicate
    (:func:`is_valid_observable`), so invalid observables can be built
    and interrogated.
    """

    matrix: np.ndarray
    space: SectorSpace

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        m = _as_square(self.matrix, self.space)
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise DomainError(f"matrix is not Hermitian within {HERMITIAN_TOL:g}")
        object.__setattr__(self, "matrix", m)


class StateVector(_Record):
    """Unit-norm complex amplitude vector over the graded basis."""

    amplitudes: np.ndarray
    space: SectorSpace

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        a = _readonly(self.amplitudes, complex).reshape(-1)
        if a.shape != (self.space.total_dim,):
            raise StructureError(
                f"amplitude count {a.shape[0]} does not match dimension "
                f"{self.space.total_dim}"
            )
        if abs(np.linalg.norm(a) - 1.0) > NORM_TOL:
            raise DomainError(f"state vector must have unit norm within {NORM_TOL:g}")
        object.__setattr__(self, "amplitudes", a)


class DensityMatrix(_Record):
    """Hermitian, positive semidefinite, unit-trace matrix."""

    matrix: np.ndarray
    space: SectorSpace

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __post_init__(self):
        m = _as_square(self.matrix, self.space)
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise DomainError(f"density matrix is not Hermitian within {HERMITIAN_TOL:g}")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise DomainError(f"density matrix must have unit trace within {TRACE_TOL:g}")
        if np.min(np.linalg.eigvalsh(m)) < -EIGENVALUE_TOL:
            raise DomainError(
                f"density matrix must be positive semidefinite within {EIGENVALUE_TOL:g}"
            )
        object.__setattr__(self, "matrix", m)


def is_valid_observable(a: SectorObservable, atol: float = BLOCK_TOL) -> bool:
    """True when ``a`` couples no pair of distinct sectors.

    Equivalent to block-diagonality in the grading, and to commuting
    with :func:`sector_label_operator`.
    """
    slices = a.space.slices()
    for i, si in enumerate(slices):
        for sj in slices[i + 1:]:
            if np.max(np.abs(a.matrix[si, sj])) > atol:
                return False
    return True


def sector_support(psi: StateVector, atol: float = NORM_TOL) -> int | None:
    """Index of the single sector carrying ``psi``, or None if it straddles.

    A state is considered supported in sector k when all amplitude
    outside that sector is below ``atol`` in norm.
    """
    best = None
    for k, sl in enumerate(psi.space.slices()):
        weight = np.linalg.norm(psi.amplitudes[sl])
        if weight > atol:
            if best is not None:
                return None
            best = k
    return best


def sector_matrix_element(
    a: SectorObservable, psi: StateVector, phi: StateVector
) -> complex:
    """``<psi| A |phi>`` for states supported in two distinct sectors.

    For any observable passing :func:`is_valid_observable` the result
    vanishes (below ``CROSS_ELEMENT_TOL`` in magnitude); the returned
    value is the numerical residual.
    """
    if psi.space != a.space or phi.space != a.space:
        raise StructureError("states and observable must share one SectorSpace")
    if not is_valid_observable(a):
        raise ContractError("observable couples sectors; matrix element undefined")
    k_psi = sector_support(psi)
    k_phi = sector_support(phi)
    if k_psi is None or k_phi is None:
        raise DomainError("both states must be supported in a single sector")
    if k_psi == k_phi:
        raise DomainError("states must live in distinct sectors")
    return complex(np.vdot(psi.amplitudes, a.matrix @ phi.amplitudes))


def superselect(rho: DensityMatrix) -> DensityMatrix:
    """Remove all inter-sector coherences from ``rho``.

    Pinches the matrix onto its sector-diagonal blocks: trace is
    preserved exactly, positivity is preserved, purity cannot increase,
    and the map is idempotent.  Expectation values of valid observables
    are unchanged, which is why the removed terms are unobservable.
    """
    out = np.zeros_like(rho.matrix)
    for sl in rho.space.slices():
        out[sl, sl] = rho.matrix[sl, sl]
    return DensityMatrix(out, rho.space)


def purity(rho: DensityMatrix) -> float:
    """``tr(rho^2)``: 1 for projectors, ``1/total_dim`` for the maximal mixture."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def sector_label_operator(space: SectorSpace) -> np.ndarray:
    """Diagonal matrix of sector indices; valid observables commute with it."""
    return np.diag(space.labels().astype(complex))


def basis_state(space: SectorSpace, index: int) -> StateVector:
    amplitudes = np.zeros(space.total_dim, dtype=complex)
    amplitudes[index] = 1.0
    return StateVector(amplitudes, space)


def pure_density(psi: StateVector) -> DensityMatrix:
    """Projector ``|psi><psi|`` as a density matrix."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.space)


def maximally_mixed(space: SectorSpace) -> DensityMatrix:
    n = space.total_dim
    return DensityMatrix(np.eye(n, dtype=complex) / n, space)


def expectation(a: SectorObservable, rho: DensityMatrix) -> float:
    """``tr(A rho)``, real for Hermitian inputs."""
    if a.space != rho.space:
        raise StructureError("observable and state must share one SectorSpace")
    return float(np.trace(a.matrix @ rho.matrix).real)


def random_state(space: SectorSpace, rng: np.random.Generator) -> StateVector:
    """Haar-like random unit vector, generally straddling sectors."""
    n = space.total_dim
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(a / np.linalg.norm(a), space)


def random_sector_state(
    space: SectorSpace, sector: int, rng: np.random.Generator
) -> StateVector:
    """Random unit vector supported entirely in one sector."""
    a = np.zeros(space.total_dim, dtype=complex)
    sl = space.slices()[sector]
    block = rng.normal(size=space.sector_dims[sector]) + 1j * rng.normal(
        size=space.sector_dims[sector]
    )
    a[sl] = block / np.linalg.norm(block)
    return StateVector(a, space)


def _random_hermitian_block(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_hermitian_observable(
    space: SectorSpace, rng: np.random.Generator
) -> SectorObservable:
    """Dense random Hermitian matrix; generally couples sectors."""
    return SectorObservable(_random_hermitian_block(space.total_dim, rng), space)


def random_valid_observable(
    space: SectorSpace, rng: np.random.Generator
) -> SectorObservable:
    """Random Hermitian matrix assembled block by block along the grading."""
    m = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for sl, dim in zip(space.slices(), space.sector_dims):
        m[sl, sl] = _random_hermitian_block(dim, rng)
    return SectorObservable(m, space)


def random_density_matrix(
    space: SectorSpace, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Random mixture of ``rank`` random pure states (full rank by default)."""
    n = space.total_dim
    k = n if rank is None else rank
    if not 1 <= k <= n:
        raise DomainError(f"rank must be in [1, {n}], got {k}")
    weights = rng.random(k) + 1e-3
    weights /= weights.sum()
    m = np.zeros((n, n), dtype=complex)
    for w in weights:
        psi = random_state(space, rng)
        m += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(m, space)
