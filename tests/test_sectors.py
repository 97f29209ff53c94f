import numpy as np
import pytest

from mzsim import sectors
from mzsim.errors import ContractError, DomainError, StructureError
from mzsim.sectors import (
    EIGENVALUE_TOL,
    DensityMatrix,
    SectorObservable,
    SectorSpace,
    StateVector,
    basis_state,
    expectation,
    is_valid_observable,
    maximally_mixed,
    pure_density,
    purity,
    random_density_matrix,
    random_hermitian_observable,
    random_sector_state,
    random_state,
    random_valid_observable,
    sector_label_operator,
    sector_matrix_element,
    sector_support,
    superselect,
)


def random_space(rng, max_total=16):
    n_sectors = int(rng.integers(2, 5))
    dims = []
    remaining = max_total - n_sectors
    for _ in range(n_sectors):
        extra = int(rng.integers(0, remaining + 1)) if remaining else 0
        dims.append(1 + extra)
        remaining -= extra
    return SectorSpace(tuple(dims))


class TestSectorSpace:
    def test_layout(self):
        space = SectorSpace((2, 1, 3))
        assert space.total_dim == 6
        assert space.n_sectors == 3
        assert space.slices() == [slice(0, 2), slice(2, 3), slice(3, 6)]
        assert np.array_equal(space.labels(), [0, 0, 1, 2, 2, 2])

    @pytest.mark.parametrize("dims", [(), (0,), (2, -1)])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(DomainError):
            SectorSpace(dims)

    def test_rejects_oversized_space(self):
        with pytest.raises(DomainError):
            SectorSpace((40, 40))

    @pytest.mark.parametrize("dims, bad", [
        ((1.5, 1), "1.5"), ((True, 1), "True"), ((1, 2.0), "2.0"), (("2", 1), "'2'")])
    def test_rejects_a_dimension_that_is_not_an_integer(self, dims, bad):
        with pytest.raises(DomainError, match=f"^sector_dims must be an integer, got {bad}$"):
            SectorSpace(dims)

    def test_accepts_numpy_integers_as_ints(self):
        space = SectorSpace((np.int64(2), np.uint8(1)))
        assert space.sector_dims == (2, 1) and type(space.sector_dims[0]) is int


class TestConstructors:
    def test_observable_must_be_hermitian(self):
        space = SectorSpace((1, 1))
        with pytest.raises(DomainError):
            SectorObservable(np.array([[0.0, 1.0], [0.0, 0.0]]), space)

    def test_observable_shape_must_match(self):
        with pytest.raises(StructureError):
            SectorObservable(np.eye(3), SectorSpace((1, 1)))

    def test_state_must_be_normalized(self):
        space = SectorSpace((1, 1))
        with pytest.raises(DomainError):
            StateVector(np.array([1.0, 1.0]), space)
        StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0), space)

    def test_density_matrix_constraints(self):
        space = SectorSpace((1, 1))
        with pytest.raises(DomainError):  # trace 2
            DensityMatrix(np.eye(2), space)
        with pytest.raises(DomainError):  # negative eigenvalue
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]), space)
        with pytest.raises(DomainError):  # not Hermitian
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]), space)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entries_are_refused_naming_the_record(self, bad):
        space = SectorSpace((1, 1))
        with pytest.raises(DomainError, match="StateVector amplitudes must be finite"):
            StateVector([bad, 0.0], space)
        with pytest.raises(DomainError, match="SectorObservable entries must be finite"):
            SectorObservable([[bad, 0.0], [0.0, 1.0]], space)
        with pytest.raises(DomainError, match="DensityMatrix entries must be finite"):
            DensityMatrix([[bad, 0.0], [0.0, bad]], space)

    @pytest.mark.parametrize("matrix", [
        [1.0, 0.0], [[1.0, 0.0], [0.0]], [[1.0, "x"], [0.0, 1.0]], 1.0,
        np.zeros((2, 2, 1)),
    ])
    def test_a_matrix_that_is_not_a_grid_of_numbers_is_a_structure_error(self, matrix):
        with pytest.raises(StructureError, match="matrix must be a 2-d array of numbers"):
            SectorObservable(matrix, SectorSpace((1, 1)))

    @pytest.mark.parametrize("amplitudes", [[[1.0], [0.0]], [1.0, None], 1.0])
    def test_amplitudes_that_are_not_numbers_in_a_row_are_a_structure_error(self, amplitudes):
        with pytest.raises(StructureError, match="amplitudes must be a 1-d array of numbers"):
            StateVector(amplitudes, SectorSpace((1, 1)))

    def test_amplitude_count_must_match_the_space(self):
        with pytest.raises(StructureError, match="^amplitude count 2 does not match dimension 3$"):
            StateVector([1.0, 0.0], SectorSpace((2, 1)))

    def test_states_and_observables_must_share_one_space(self):
        small, large = SectorSpace((1, 1)), SectorSpace((1, 2))
        a = SectorObservable(np.eye(2), small)
        with pytest.raises(StructureError, match="^states and observable must share one"):
            sector_matrix_element(a, basis_state(small, 0), basis_state(large, 1))
        with pytest.raises(StructureError, match="^observable and state must share one"):
            expectation(a, maximally_mixed(large))

    def test_entries_are_kept_as_complex_numbers_and_arrays_built_on_access(self):
        space = SectorSpace((1, 1))
        rho = DensityMatrix([[0.5, 0.5], [0.5, 0.5]], space)
        assert rho._matrix == ((0.5 + 0j, 0.5 + 0j), (0.5 + 0j, 0.5 + 0j))
        assert "matrix" not in vars(rho)
        assert rho.matrix.dtype == complex and not rho.matrix.flags.writeable
        assert rho.matrix is rho.matrix
        psi = StateVector(np.array([0.6, 0.8]), space)
        assert psi._amplitudes == (0.6 + 0j, 0.8 + 0j)
        assert psi.amplitudes.tolist() == [0.6 + 0j, 0.8 + 0j]
        assert psi.replace(amplitudes=[0.8, 0.6])._amplitudes == (0.8 + 0j, 0.6 + 0j)


class TestValidity:
    def test_identity_is_valid_everywhere(self):
        for dims in ((1, 1), (2, 3), (4, 1, 2)):
            space = SectorSpace(dims)
            assert is_valid_observable(SectorObservable(np.eye(space.total_dim), space))

    def test_pure_cross_coupling_is_invalid(self):
        space = SectorSpace((1, 1))
        flip = SectorObservable(np.array([[0.0, 1.0], [1.0, 0.0]]), space)
        assert not is_valid_observable(flip)

    def test_block_assembly_agrees_with_commutator_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            space = random_space(rng)
            label_op = sector_label_operator(space)
            valid = random_valid_observable(space, rng)
            comm = valid.matrix @ label_op - label_op @ valid.matrix
            assert is_valid_observable(valid)
            assert np.max(np.abs(comm)) < 1e-12
            invalid = random_hermitian_observable(space, rng)
            comm = invalid.matrix @ label_op - label_op @ invalid.matrix
            assert is_valid_observable(invalid) == (np.max(np.abs(comm)) <= 1e-12)


class TestCrossSectorElements:
    def test_basis_states_give_exact_zero(self):
        space = SectorSpace((1, 1))
        a = SectorObservable(np.diag([2.0, -1.0]), space)
        value = sector_matrix_element(a, basis_state(space, 0), basis_state(space, 1))
        assert value == 0.0

    def test_random_valid_observables_vanish_across_sectors(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            space = random_space(rng)
            a = random_valid_observable(space, rng)
            i, j = rng.choice(space.n_sectors, size=2, replace=False)
            psi = random_sector_state(space, int(i), rng)
            phi = random_sector_state(space, int(j), rng)
            assert abs(sector_matrix_element(a, psi, phi)) < 1e-10

    def test_invalid_observable_is_rejected(self):
        space = SectorSpace((1, 1))
        flip = SectorObservable(np.array([[0.0, 1.0], [1.0, 0.0]]), space)
        with pytest.raises(ContractError):
            sector_matrix_element(flip, basis_state(space, 0), basis_state(space, 1))

    def test_straddling_state_is_rejected(self):
        space = SectorSpace((1, 1))
        eye = SectorObservable(np.eye(2), space)
        cat = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0), space)
        with pytest.raises(DomainError):
            sector_matrix_element(eye, cat, basis_state(space, 1))

    def test_same_sector_pair_is_rejected(self):
        space = SectorSpace((2, 1))
        eye = SectorObservable(np.eye(3), space)
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            sector_matrix_element(
                eye, random_sector_state(space, 0, rng), random_sector_state(space, 0, rng)
            )

    def test_valid_observables_preserve_sectors(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            space = random_space(rng)
            a = random_valid_observable(space, rng)
            k = int(rng.integers(space.n_sectors))
            psi = random_sector_state(space, k, rng)
            image = a.matrix @ psi.amplitudes
            outside = np.delete(image, np.arange(*space.slices()[k].indices(space.total_dim)))
            assert np.max(np.abs(outside), initial=0.0) < 1e-10


class TestSuperselect:
    def test_cat_state_becomes_even_mixture(self):
        space = SectorSpace((1, 1))
        cat = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0), space)
        projected = superselect(pure_density(cat))
        assert projected.matrix == pytest.approx(np.eye(2) / 2.0, abs=1e-15)
        assert purity(projected) == pytest.approx(0.5, rel=1e-10)

    def test_block_diagonal_input_is_a_fixed_point(self):
        space = SectorSpace((2, 1))
        rho = maximally_mixed(space)
        assert np.array_equal(superselect(rho).matrix, rho.matrix)

    def test_idempotent_trace_preserving_purity_non_increasing(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            space = random_space(rng)
            rho = random_density_matrix(
                space, rng, rank=int(rng.integers(1, space.total_dim + 1))
            )
            projected = superselect(rho)
            assert np.array_equal(superselect(projected).matrix, projected.matrix)
            assert np.trace(projected.matrix) == np.trace(rho.matrix)
            assert purity(projected) <= purity(rho) + 1e-12
            assert np.min(np.linalg.eigvalsh(projected.matrix)) >= -1e-10

    def test_expectation_values_of_valid_observables_are_unchanged(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            space = random_space(rng)
            a = random_valid_observable(space, rng)
            rho = random_density_matrix(space, rng)
            assert abs(expectation(a, rho) - expectation(a, superselect(rho))) < 1e-10


class TestPurity:
    def test_pure_state_projector(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            space = random_space(rng)
            assert purity(pure_density(random_state(space, rng))) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_maximal_mixture(self):
        space = SectorSpace((3, 2))
        assert purity(maximally_mixed(space)) == pytest.approx(0.2, rel=1e-12)


class TestIndices:
    @pytest.mark.parametrize("index", [3, -1, 2**70])
    def test_basis_state_refuses_an_index_out_of_range(self, index):
        with pytest.raises(DomainError, match=r"index must be in \[0, 3\)"):
            basis_state(SectorSpace((2, 1)), index)

    @pytest.mark.parametrize("index", [1.0, True, "1"])
    def test_basis_state_refuses_an_index_that_is_not_an_integer(self, index):
        with pytest.raises(DomainError, match="index must be an integer"):
            basis_state(SectorSpace((2, 1)), index)

    def test_basis_state_takes_every_index_in_range(self):
        space = SectorSpace((2, 1))
        for i in (0, 1, np.int64(2)):
            assert basis_state(space, i).amplitudes.tolist() == np.eye(3)[i].tolist()

    @pytest.mark.parametrize("sector", [2, -1, 0.0, False])
    def test_random_sector_state_refuses_a_sector_out_of_range(self, sector):
        with pytest.raises(DomainError, match="sector must be"):
            random_sector_state(SectorSpace((2, 1)), sector, np.random.default_rng(0))

    @pytest.mark.parametrize("rank", [True, 2.5, np.float64(2.0)])
    def test_random_density_matrix_refuses_a_rank_that_is_not_an_integer(self, rank):
        # True passed the range check as 1, and 2.5 failed inside numpy
        with pytest.raises(DomainError, match="rank must be an integer"):
            random_density_matrix(SectorSpace((2, 1)), np.random.default_rng(0), rank=rank)

    @pytest.mark.parametrize("rank", [0, 4, -1])
    def test_random_density_matrix_refuses_a_rank_out_of_range(self, rank):
        with pytest.raises(DomainError, match=rf"^rank must be in \[1, 3\], got {rank}$"):
            random_density_matrix(SectorSpace((2, 1)), np.random.default_rng(0), rank=rank)

    def test_random_density_matrix_takes_an_integer_rank(self):
        space = SectorSpace((2, 1))
        rho = random_density_matrix(space, np.random.default_rng(0), rank=np.int64(2))
        assert np.linalg.matrix_rank(rho.matrix) == 2


def _sector_partition(n, rng):
    """A SectorSpace of total dimension ``n`` in 1 to 4 sectors."""
    cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(0, 4))),
                             replace=False).tolist()) if n > 1 else []
    edges = [0, *cuts, n]
    return SectorSpace(tuple(b - a for a, b in zip(edges, edges[1:])))


def _density_with_smallest_eigenvalue(n, smallest, rng):
    """A trace-one Hermitian matrix whose smallest eigenvalue is about ``smallest``."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    rest = rng.random(n - 1) + 0.1
    m = (q * np.concatenate([[smallest], rest * (1.0 - smallest) / rest.sum()])) @ q.conj().T
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("n", [*range(1, 17), 64])
def test_the_algebra_agrees_with_numpy_oracles(n):
    rng = np.random.default_rng(4600 + n)
    for _ in range(40 if n <= 16 else 4):
        space = _sector_partition(n, rng)
        rho = random_density_matrix(space, rng, rank=int(rng.integers(1, n + 1)))
        a = random_hermitian_observable(space, rng)
        assert abs(purity(rho) - np.trace(rho.matrix @ rho.matrix).real) < 1e-12
        assert abs(expectation(a, rho) - np.trace(a.matrix @ rho.matrix).real) < 1e-12
        pinched = np.zeros_like(rho.matrix)
        for sl in space.slices():
            pinched[sl, sl] = rho.matrix[sl, sl]
        assert np.array_equal(superselect(rho).matrix, pinched)
        if space.n_sectors > 1:
            valid = random_valid_observable(space, rng)
            i, j = rng.choice(space.n_sectors, size=2, replace=False)
            psi = random_sector_state(space, int(i), rng)
            phi = random_sector_state(space, int(j), rng)
            oracle = np.vdot(psi.amplitudes, valid.matrix @ phi.amplitudes)
            assert abs(sector_matrix_element(valid, psi, phi) - oracle) < 1e-12


@pytest.mark.parametrize("n", [*range(2, 17), 64])
def test_positivity_matches_the_smallest_eigenvalue_off_the_boundary(n):
    # smallest eigenvalues within 1e-6 of -EIGENVALUE_TOL, on both sides
    rng = np.random.default_rng(4700 + n)
    space, decided = SectorSpace((n,)), 0
    for _ in range(60 if n <= 16 else 10):
        offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.5, -6.0)
        m = _density_with_smallest_eigenvalue(n, -EIGENVALUE_TOL + offset, rng)
        smallest = np.linalg.eigvalsh(m).min()
        if abs(smallest + EIGENVALUE_TOL) <= 1e-12:
            continue
        decided += 1
        if smallest < -EIGENVALUE_TOL:
            with pytest.raises(DomainError, match="positive semidefinite"):
                DensityMatrix(m, space)
        else:
            DensityMatrix(m, space)
    assert decided >= (40 if n <= 16 else 6)


def _factored_sizes(monkeypatch) -> list:
    """The size of every matrix the positivity check factors from here on."""
    sizes, check = [], sectors._positive_semidefinite
    monkeypatch.setattr(sectors, "_positive_semidefinite",
                        lambda rows: sizes.append(len(rows)) or check(rows))
    return sizes


class TestBlockPositivity:
    def test_a_block_diagonal_matrix_with_one_negative_block_is_refused(self, monkeypatch):
        sizes = _factored_sizes(monkeypatch)
        # the second block's eigenvalues are about 0.519 and -0.019
        m = [[0.3, 0.1, 0, 0], [0.1, 0.2, 0, 0], [0, 0, 0.5, 0.1], [0, 0, 0.1, 0.0]]
        with pytest.raises(DomainError) as refused:
            DensityMatrix(m, SectorSpace((2, 2)))
        assert str(refused.value) == "density matrix must be positive semidefinite within 1e-10"
        assert sizes == [2, 2]

    def test_a_tiny_entry_outside_the_blocks_takes_the_whole_factorisation(self, monkeypatch):
        sizes = _factored_sizes(monkeypatch)
        space = SectorSpace((1, 1))
        DensityMatrix([[1.0, 0.0], [0.0, 0.0]], space)
        assert sizes == [1, 1]
        # each block alone is positive, but the whole has an eigenvalue of about -1e-8
        with pytest.raises(DomainError, match="positive semidefinite"):
            DensityMatrix([[1.0, 1e-4], [1e-4, 0.0]], space)
        assert sizes == [1, 1, 2]

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_block_by_block_positivity_decides_as_the_whole_factorisation(self, n):
        rng = np.random.default_rng(4800 + n)
        decisions = []
        for _ in range(40 if n <= 16 else 8):
            space = _sector_partition(n, rng)
            m = np.zeros((n, n), dtype=complex)
            # each block's smallest eigenvalue within 1e-6 of -EIGENVALUE_TOL
            for sl, dim in zip(space.slices(), space.sector_dims):
                offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.5, -6.0)
                m[sl, sl] = _density_with_smallest_eigenvalue(dim, -EIGENVALUE_TOL + offset, rng)
            m /= np.trace(m).real
            whole = sectors._positive_semidefinite(tuple(map(tuple, m.tolist())))
            try:
                DensityMatrix(m, space)
            except DomainError as exc:
                assert "positive semidefinite" in str(exc)
                decisions.append(False)
            else:
                decisions.append(True)
            assert decisions[-1] is whole
        assert True in decisions and False in decisions


class TestSectorSupport:
    def test_single_sector_state(self):
        space = SectorSpace((2, 2))
        rng = np.random.default_rng(47)
        assert sector_support(random_sector_state(space, 1, rng)) == 1

    def test_straddling_state_has_no_support(self):
        space = SectorSpace((1, 1))
        cat = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0), space)
        assert sector_support(cat) is None
