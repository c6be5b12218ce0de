import mpmath
import numpy as np
import pytest

from moeprune.errors import NumericalError, ShapeError
from moeprune.numerics import SeededRng, spd_inverse

from oracles import matmul, row_softmax, silu
from oracles import spd_inverse as spd_inverse_oracle


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, np.eye(2)), a)

    def test_hand_product(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0  # 1*3 + 2*4 by hand

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_identity_associativity_bitwise(self):
        rng = SeededRng(5)
        a = rng.normal_matrix(6, 4)
        b = rng.normal_matrix(4, 3)
        left = matmul(matmul(a, np.eye(4)), b)
        right = matmul(a, matmul(np.eye(4), b))
        assert np.array_equal(left, right)


class TestRowSoftmax:
    def test_symmetric_row(self):
        assert np.allclose(row_softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_large_values_no_overflow(self):
        out = row_softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, [[0.5, 0.5]])
        assert np.isfinite(out).all()

    def test_against_extended_precision(self):
        out = row_softmax(np.array([[1.0, 2.0, 3.0]]))
        with mpmath.workdps(50):
            es = [mpmath.e ** x for x in (1, 2, 3)]
            tot = sum(es)
            expected = [float(e / tot) for e in es]
        assert np.abs(out[0] - expected).max() < 1e-15

    def test_rows_sum_to_one(self):
        m = SeededRng(1).normal_matrix(20, 7, std=3.0)
        assert np.abs(row_softmax(m).sum(axis=1) - 1.0).max() < 1e-12

    def test_shift_invariance(self):
        rng = SeededRng(2)
        for _ in range(25):
            m = rng.normal_matrix(5, 6, std=2.0)
            c = rng.normal_matrix(5, 1, std=10.0)
            assert np.abs(row_softmax(m + c) - row_softmax(m)).max() < 1e-12


class TestSilu:
    def test_zero(self):
        assert silu(np.zeros((1, 1)))[0, 0] == 0.0

    def test_asymptote(self):
        assert abs(silu(np.array([[20.0]]))[0, 0] - 20.0) < 1e-7

    def test_at_one(self):
        with mpmath.workdps(50):
            expected = float(1 / (1 + mpmath.e ** -1))
        assert abs(silu(np.array([[1.0]]))[0, 0] - expected) < 1e-15

    def test_large_negative_underflows_to_zero(self):
        assert silu(np.array([[-800.0]]))[0, 0] == 0.0


class TestSpdInverse:
    def test_identity(self):
        assert np.allclose(spd_inverse(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal_reciprocals(self):
        inv = spd_inverse(np.diag([2.0, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]), atol=1e-15)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NumericalError, match="dampening"):
            spd_inverse(np.diag([1.0, -1.0]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ShapeError, match="non-empty"):
            spd_inverse(np.zeros((0, 0)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError, match="symmetric"):
            spd_inverse(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @staticmethod
    def spd(n: int) -> np.ndarray:
        a = SeededRng(n).normal_matrix(n + 3, n)
        return a.T @ a + np.eye(n)

    @pytest.mark.parametrize("i,j", [(0, 150), (150, 0), (197, 199), (199, 198)],
                             ids=["first-row", "first-column", "last-strip", "last-strip-lower"])
    def test_asymmetry_found_in_any_strip(self, i, j):
        # 200 rows span four 64-row strips; the full h - h.T is the oracle
        h = self.spd(200)
        h[i, j] += 1e-3
        d = h - h.T
        want = max(d.max(), -d.min())
        with pytest.raises(ShapeError, match=f"not symmetric .max asymmetry {want:.3e}.$"):
            spd_inverse(h)

    def test_asymmetry_at_the_tolerance(self):
        h = self.spd(200)
        tol = 1e-9 * max(1.0, h.max(), -h.min())
        inside, outside = h.copy(), h.copy()
        inside[199, 0] = h[0, 199] + 0.9 * tol
        outside[199, 0] = h[0, 199] + 1.1 * tol
        assert np.isfinite(spd_inverse(inside)).all()
        with pytest.raises(ShapeError, match="symmetric"):
            spd_inverse(outside)

    def test_residual_on_random_spd(self):
        rng = SeededRng(7)
        for i in range(100):
            n = 2 + i % 31  # dims up to 32
            a = rng.normal_matrix(n, n)
            h = a.T @ a + np.eye(n)
            inv = spd_inverse(h)
            assert np.abs(h @ inv - np.eye(n)).max() < 1e-8
            assert np.array_equal(inv, inv.T)

    def test_bit_equal_to_summed_triangles(self):
        rng = SeededRng(8)
        hs = [np.eye(5), np.diag([2.0, 4.0, 8.0]), np.array([[4.0, -2.0], [-2.0, 3.0]])]
        for n in (1, 2, 7, 64, 200):
            a = rng.normal_matrix(n + 3, n)
            hs.append(a.T @ a + 0.1 * np.eye(n))
        for h in hs:
            got = spd_inverse(h)
            assert got.flags.c_contiguous
            assert got.tobytes() == spd_inverse_oracle(h).tobytes()


class TestSeededRng:
    def test_identical_seed_identical_stream(self):
        a = SeededRng(123).normal_matrix(8, 8)
        b = SeededRng(123).normal_matrix(8, 8)
        assert np.array_equal(a, b)

    def test_child_streams_differ(self):
        r = SeededRng(9)
        assert not np.array_equal(r.child(0).normal_matrix(4, 4),
                                  r.child(1).normal_matrix(4, 4))
