"""Finite-dimensional superselection-sector algebra.

A grading of a Hilbert space into orthogonal sectors restricts the
physical observables to block-diagonal matrices.  Coherences between
sectors are then unobservable: zeroing them out of any density matrix
(:func:`superselect`) changes no expectation value of any valid
observable.  State vectors may still straddle sectors on purpose; that
is exactly what makes the unobservability demonstrable.

The module is pure Python and imports no numpy.  The records keep
their entries as Python ``complex`` numbers, and every check and all
the algebra run on them; their ``matrix`` and ``amplitudes`` are
read-only complex128 arrays, built on first access, which load numpy.
numpy loads otherwise only where the interface is numpy's:
:meth:`SectorSpace.labels`, :func:`sector_label_operator` and the
``random_*`` builders, which draw from a numpy ``Generator``.  The
tolerances below are calibrated for total dimensions up to ``MAX_DIM``.
"""

import math
from operator import mul

from .core import _check_integer, _Record
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
        if not self.sector_dims:
            raise DomainError("at least one sector is required")
        if any(d < 1 for d in self.sector_dims):
            raise DomainError(f"sector dimensions must be >= 1, got {self.sector_dims}")
        if self.total_dim > MAX_DIM:
            raise DomainError(
                f"total dimension {self.total_dim} exceeds the supported cap {MAX_DIM}"
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

    def labels(self):
        """Sector index of every basis vector, as a numpy integer array."""
        import numpy as np

        return np.repeat(np.arange(self.n_sectors), self.sector_dims)


def _listed(values):
    # a numpy array hands over its entries as Python numbers
    return values.tolist() if hasattr(values, "tolist") else values


def _complexes(values) -> tuple | None:
    """``values`` as Python complex numbers, or None unless they form one dimension."""
    try:
        return tuple(map(complex, _listed(values)))
    except (TypeError, ValueError):
        return None


def _finite(values) -> bool:
    # no sum of terms that include an inf or a nan is finite, so a finite sum
    # clears every term at once; a sum that overflows is checked term by term
    total = sum(values, 0j)
    return math.isfinite(total.real) and math.isfinite(total.imag) or all(
        math.isfinite(v.real) and math.isfinite(v.imag) for v in values
    )


def _norm(values) -> float:
    return math.sqrt(sum(v.real * v.real + v.imag * v.imag for v in values))


def _square(matrix, space: SectorSpace, record: str) -> tuple:
    """``matrix`` as ``space.total_dim`` rows of as many finite complex numbers."""
    try:
        rows = tuple(map(_complexes, _listed(matrix)))
    except TypeError:  # not a sequence at all
        rows = (None,)
    widths = set() if None in rows else {len(row) for row in rows}
    if None in rows or len(widths) > 1:
        raise StructureError(f"{record} matrix must be a 2-d array of numbers")
    n, shape = space.total_dim, (len(rows), *widths)
    if shape != (n, n):
        raise StructureError(f"matrix shape {shape} does not match dimension {n}")
    if not all(map(_finite, rows)):
        raise DomainError(f"{record} entries must be finite")
    return rows


def _hermitian(rows: tuple) -> bool:
    """Whether ``rows`` equals its conjugate transpose within ``HERMITIAN_TOL``.

    Entries ``ij`` and ``ji`` differ from each other's conjugate by the same
    amount, so the diagonal and the entries right of it decide.
    """
    return all(
        abs(a - b.conjugate()) <= HERMITIAN_TOL
        for i, (row, col) in enumerate(zip(rows, zip(*rows)))
        for a, b in zip(row[i:], col[i:])
    )


def _positive_semidefinite(rows: tuple) -> bool:
    """Whether no eigenvalue of Hermitian ``rows`` lies below ``-EIGENVALUE_TOL``.

    Factors ``rows + EIGENVALUE_TOL * I`` as ``L D L^H`` from its lower
    triangle and refuses at the first pivot of ``D`` that is not
    positive: the shifted matrix is positive definite exactly when every
    pivot is.  That is ``eigvalsh(rows).min() >= -EIGENVALUE_TOL`` up to
    rounding at the boundary.
    """
    # scaled[k][j] is conj(L[k][j]) * pivots[j], for j < k
    scaled, pivots = [], []
    for i, row in enumerate(rows):
        li = []  # row i of L, left of the diagonal
        for a, sk, dk in zip(row, scaled, pivots):
            li.append((a - sum(map(mul, li, sk))) / dk)
        si = list(map(mul, map(complex.conjugate, li), pivots))
        d = row[i].real + EIGENVALUE_TOL - sum(map(mul, li, si)).real
        if not d > 0:
            return False
        scaled.append(si)
        pivots.append(d)
    return True


def _blocks(rows: tuple, space: SectorSpace) -> list:
    """The sector-diagonal blocks of ``rows`` if every entry outside them is exactly 0,
    else ``[rows]``.

    Such a matrix is the direct sum of its blocks: it is Hermitian exactly
    when each block is, and :func:`_positive_semidefinite` finds the same
    pivots block by block, in O(sum b**3) steps for blocks of size b rather
    than O(n**3).
    """
    slices = space.slices()
    for sl in slices:
        for row in rows[sl]:
            if any(row[:sl.start]) or any(row[sl.stop:]):
                return [rows]
    return [tuple(row[sl] for row in rows[sl]) for sl in slices]


def _trace_of_product(a: tuple, b: tuple) -> float:
    """``Re tr(a b)``, summed as ``Re sum_ij a_ij b_ji``."""
    return float(sum(sum(map(mul, row, col)) for row, col in zip(a, zip(*b))).real)


class SectorObservable(_Record):
    """Hermitian matrix acting on a graded space.

    Hermiticity is enforced at construction; whether the observable
    respects the grading is a separate, checked predicate
    (:func:`is_valid_observable`), so invalid observables can be built
    and interrogated.  The entries are kept as rows of Python complex
    numbers.
    """

    _matrix: tuple
    space: SectorSpace
    _views = {"matrix": ("_matrix", complex)}

    def __post_init__(self):
        rows = _square(self._matrix, self.space, "SectorObservable")
        if not _hermitian(rows):
            raise DomainError(f"matrix is not Hermitian within {HERMITIAN_TOL:g}")
        object.__setattr__(self, "_matrix", rows)


class StateVector(_Record):
    """Unit-norm amplitude vector over the graded basis, kept as Python complex numbers."""

    _amplitudes: tuple
    space: SectorSpace
    _views = {"amplitudes": ("_amplitudes", complex)}

    def __post_init__(self):
        a = _complexes(self._amplitudes)
        if a is None:
            raise StructureError("StateVector amplitudes must be a 1-d array of numbers")
        if len(a) != self.space.total_dim:
            raise StructureError(
                f"amplitude count {len(a)} does not match dimension "
                f"{self.space.total_dim}"
            )
        if not _finite(a):
            raise DomainError("StateVector amplitudes must be finite")
        if abs(_norm(a) - 1.0) > NORM_TOL:
            raise DomainError(f"state vector must have unit norm within {NORM_TOL:g}")
        object.__setattr__(self, "_amplitudes", a)


class DensityMatrix(_Record):
    """Hermitian, positive semidefinite, unit-trace matrix, kept like :class:`SectorObservable`."""

    _matrix: tuple
    space: SectorSpace
    _views = {"matrix": ("_matrix", complex)}

    def __post_init__(self):
        rows = _square(self._matrix, self.space, "DensityMatrix")
        blocks = _blocks(rows, self.space)
        if not all(map(_hermitian, blocks)):
            raise DomainError(f"density matrix is not Hermitian within {HERMITIAN_TOL:g}")
        trace = sum(row[i] for i, row in enumerate(rows))
        if abs(trace.real - 1.0) > TRACE_TOL or abs(trace.imag) > TRACE_TOL:
            raise DomainError(f"density matrix must have unit trace within {TRACE_TOL:g}")
        if not all(map(_positive_semidefinite, blocks)):
            raise DomainError(
                f"density matrix must be positive semidefinite within {EIGENVALUE_TOL:g}"
            )
        object.__setattr__(self, "_matrix", rows)


def is_valid_observable(a: SectorObservable, atol: float = BLOCK_TOL) -> bool:
    """True when ``a`` couples no pair of distinct sectors.

    Equivalent to block-diagonality in the grading, and to commuting
    with :func:`sector_label_operator`.
    """
    for sl in a.space.slices():
        # the blocks right of this sector's; Hermiticity mirrors them below
        for row in a._matrix[sl]:
            if any(abs(v) > atol for v in row[sl.stop:]):
                return False
    return True


def sector_support(psi: StateVector, atol: float = NORM_TOL) -> int | None:
    """Index of the single sector carrying ``psi``, or None if it straddles.

    A state is considered supported in sector k when all amplitude
    outside that sector is below ``atol`` in norm.
    """
    best = None
    for k, sl in enumerate(psi.space.slices()):
        weight = _norm(psi._amplitudes[sl])
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
    right = phi._amplitudes
    return complex(
        sum(
            p.conjugate() * sum(map(mul, row, right))
            for p, row in zip(psi._amplitudes, a._matrix)
        )
    )


def superselect(rho: DensityMatrix) -> DensityMatrix:
    """Remove all inter-sector coherences from ``rho``.

    Pinches the matrix onto its sector-diagonal blocks: trace is
    preserved exactly, positivity is preserved, purity cannot increase,
    and the map is idempotent.  Expectation values of valid observables
    are unchanged, which is why the removed terms are unobservable.
    """
    n, out = rho.space.total_dim, []
    for sl in rho.space.slices():
        left, right = (0j,) * sl.start, (0j,) * (n - sl.stop)
        out.extend(left + row[sl] + right for row in rho._matrix[sl])
    return DensityMatrix(out, rho.space)


def purity(rho: DensityMatrix) -> float:
    """``tr(rho^2)``: 1 for projectors, ``1/total_dim`` for the maximal mixture."""
    return _trace_of_product(rho._matrix, rho._matrix)


def sector_label_operator(space: SectorSpace):
    """Diagonal complex128 matrix of sector indices; valid observables commute with it."""
    import numpy as np

    return np.diag(space.labels().astype(complex))


def basis_state(space: SectorSpace, index: int) -> StateVector:
    """The basis vector at flat index ``index``, in ``[0, total_dim)``."""
    _check_integer("index", index)
    if not 0 <= index < space.total_dim:
        raise DomainError(f"index must be in [0, {space.total_dim}), got {index}")
    amplitudes = [0j] * space.total_dim
    amplitudes[index] = 1 + 0j
    return StateVector(amplitudes, space)


def pure_density(psi: StateVector) -> DensityMatrix:
    """Projector ``|psi><psi|`` as a density matrix."""
    a = psi._amplitudes
    conj = [v.conjugate() for v in a]
    return DensityMatrix([[v * c for c in conj] for v in a], psi.space)


def maximally_mixed(space: SectorSpace) -> DensityMatrix:
    n = space.total_dim
    diagonal = complex(1 / n)
    return DensityMatrix(
        [[diagonal if i == j else 0j for j in range(n)] for i in range(n)], space
    )


def expectation(a: SectorObservable, rho: DensityMatrix) -> float:
    """``tr(A rho)``, real for Hermitian inputs."""
    if a.space != rho.space:
        raise StructureError("observable and state must share one SectorSpace")
    return _trace_of_product(a._matrix, rho._matrix)


def random_state(space: SectorSpace, rng) -> StateVector:
    """Haar-like random unit vector, generally straddling sectors.

    ``rng`` is a :class:`numpy.random.Generator`, as for every
    ``random_*`` builder.
    """
    import numpy as np

    n = space.total_dim
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(a / np.linalg.norm(a), space)


def random_sector_state(space: SectorSpace, sector: int, rng) -> StateVector:
    """Random unit vector supported entirely in sector ``sector``, in ``[0, n_sectors)``."""
    _check_integer("sector", sector)
    if not 0 <= sector < space.n_sectors:
        raise DomainError(f"sector must be in [0, {space.n_sectors}), got {sector}")
    import numpy as np

    a = np.zeros(space.total_dim, dtype=complex)
    sl = space.slices()[sector]
    block = rng.normal(size=space.sector_dims[sector]) + 1j * rng.normal(
        size=space.sector_dims[sector]
    )
    a[sl] = block / np.linalg.norm(block)
    return StateVector(a, space)


def _random_hermitian_block(dim: int, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_hermitian_observable(space: SectorSpace, rng) -> SectorObservable:
    """Dense random Hermitian matrix; generally couples sectors."""
    return SectorObservable(_random_hermitian_block(space.total_dim, rng), space)


def random_valid_observable(space: SectorSpace, rng) -> SectorObservable:
    """Random Hermitian matrix assembled block by block along the grading."""
    import numpy as np

    m = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for sl, dim in zip(space.slices(), space.sector_dims):
        m[sl, sl] = _random_hermitian_block(dim, rng)
    return SectorObservable(m, space)


def random_density_matrix(
    space: SectorSpace, rng, rank: int | None = None
) -> DensityMatrix:
    """Random mixture of ``rank`` random pure states (full rank by default)."""
    import numpy as np

    n = space.total_dim
    k = n if rank is None else rank
    _check_integer("rank", k)
    if not 1 <= k <= n:
        raise DomainError(f"rank must be in [1, {n}], got {k}")
    weights = rng.random(k) + 1e-3
    weights /= weights.sum()
    m = np.zeros((n, n), dtype=complex)
    for w in weights:
        psi = random_state(space, rng)
        m += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(m, space)
