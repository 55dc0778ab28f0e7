import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_gibbs.linalg import (
    LatticeBasis,
    SingularBasisError,
    gram_schmidt_norms,
    load_basis,
    permute_basis,
    qr_decompose,
)

from conftest import make_random_basis


class TestQrDecompose:
    def test_identity(self):
        q, r = qr_decompose(np.eye(3))
        assert np.allclose(q, np.eye(3))
        assert np.allclose(r, np.eye(3))

    def test_already_upper_triangular(self):
        b = np.array([[2.0, 1.0], [0.0, 1.0]])
        q, r = qr_decompose(b)
        assert np.allclose(q, np.eye(2))
        assert np.allclose(r, b)

    def test_hand_gram_schmidt_2x2(self):
        # columns (1,0),(1,1): orthogonalizing the second against the first
        # leaves (0,1), so both Gram-Schmidt norms are 1
        q, r = qr_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(np.diag(r), [1.0, 1.0])

    def test_positive_diagonal_convention(self, rng):
        for _ in range(20):
            b = rng.normal(size=(4, 4))
            if abs(np.linalg.det(b)) < 0.1:
                continue
            q, r = qr_decompose(b)
            assert np.all(np.diag(r) > 0)
            assert np.allclose(q @ r, b, atol=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.array([[1.0, 1.0 + 1e-14], [1.0, 1.0]]),
            # all zero: min r_ii = 0 is not below 1e-12 times a zero scale
            np.zeros((1, 1)),
            np.zeros((3, 3)),
        ],
    )
    def test_singular_rejected(self, bad):
        with pytest.raises(SingularBasisError):
            qr_decompose(bad)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            qr_decompose(np.ones((2, 3)))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_factorization_invariants(self, seed):
        rng = np.random.default_rng(seed)
        b = make_random_basis(rng, 4).matrix
        q, r = qr_decompose(b)
        assert np.linalg.norm(b - q @ r) <= 1e-10 * np.linalg.norm(b)
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-10
        assert np.allclose(r, np.triu(r))


class TestGramSchmidtNorms:
    def test_identity(self):
        assert np.allclose(gram_schmidt_norms(LatticeBasis.identity(4)), 1.0)

    def test_hand_case(self):
        b = LatticeBasis.from_matrix([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(gram_schmidt_norms(b), [1.0, 1.0])

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_scaling_homogeneity(self, s):
        rng = np.random.default_rng(7)
        b = make_random_basis(rng, 3)
        scaled = LatticeBasis.from_matrix(s * b.matrix)
        assert np.allclose(gram_schmidt_norms(scaled), s * gram_schmidt_norms(b), rtol=1e-10)


class TestPermutation:
    # permutations are plain index sequences: order[i] = j puts column j at i
    def test_n1_identity(self):
        b = LatticeBasis.from_matrix([[2.5]])
        assert np.array_equal(permute_basis(b, [0]).matrix, b.matrix)

    def test_determinism(self, rng):
        b = make_random_basis(rng, 4)
        o1 = np.random.default_rng(99).permutation(4)
        o2 = np.random.default_rng(99).permutation(4)
        assert np.array_equal(permute_basis(b, o1).r_factor, permute_basis(b, o2).r_factor)

    def test_rejects_non_bijection(self, rng):
        b = make_random_basis(rng, 3)
        for order in [(0, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3)]:
            with pytest.raises(ValueError, match="not a permutation"):
                permute_basis(b, order)


class TestPermuteBasis:
    def test_identity_perm(self, basis_2d):
        out = permute_basis(basis_2d, range(2))
        assert np.array_equal(out.matrix, basis_2d.matrix)

    def test_swap_is_involution(self, basis_2d):
        swap = (1, 0)
        back = permute_basis(permute_basis(basis_2d, swap), swap)
        assert np.array_equal(back.matrix, basis_2d.matrix)

    def test_lattice_preserved(self, rng):
        b = make_random_basis(rng, 4)
        for _ in range(100):
            order = rng.permutation(4)
            x = rng.integers(-5, 6, 4)
            lhs = b.matrix @ x
            rhs = permute_basis(b, order).matrix @ x[order]
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_determinant_invariant(self, rng):
        b = make_random_basis(rng, 4)
        det = np.prod(np.diag(b.r_factor))
        for _ in range(10):
            order = rng.permutation(4)
            det_p = np.prod(np.diag(permute_basis(b, order).r_factor))
            assert abs(det_p - det) <= 1e-9 * abs(det)

    def test_gs_norms_generally_change(self, rng):
        b = LatticeBasis.from_matrix([[1.0, 0.9], [0.0, 0.5]])
        swapped = permute_basis(b, (1, 0))
        assert not np.allclose(gram_schmidt_norms(b), gram_schmidt_norms(swapped))


class TestNonFiniteBasis:
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_from_matrix_rejects(self, entry):
        with pytest.raises(ValueError, match="finite"):
            LatticeBasis.from_matrix([[1.0, entry], [0.0, 1.0]])

    def test_load_basis_rejects(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("2\n1 0\nnan 1\n")
        with pytest.raises(ValueError, match="finite"):
            load_basis(str(path))


class TestLoadBasis:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("2\n1 0.5\n0 1\n")
        b = load_basis(str(path))
        assert b.n == 2
        assert np.allclose(b.matrix, [[1.0, 0.5], [0.0, 1.0]])

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0\n0\n")
        with pytest.raises(ValueError):
            load_basis(str(path))

    @pytest.mark.parametrize("header", ["2.0", "two", "0", "-1"])
    def test_bad_header_names_the_file(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n1 0\n0 1\n")
        with pytest.raises(ValueError) as info:
            load_basis(str(path))
        assert str(info.value) == f"bad dimension {header!r} in {path}: need an integer >= 1"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            load_basis(str(path))


def test_basis_is_immutable(basis_2d):
    with pytest.raises(ValueError):
        basis_2d.matrix[0, 0] = 5.0
