"""COO protection tests (the prior-work format surface)."""

import numpy as np
import pytest

from repro.bits.float_bits import f64_to_u64
from repro.csr import five_point_operator
from repro.csr.coo import COOMatrix
from repro.errors import BoundsViolationError, ConfigurationError
from repro.protect import ProtectedCOOElements, ProtectedCOOMatrix

SCHEMES = ["sed", "secded128", "crc32c"]


def make_coo(nx=6, ny=5, seed=0):
    rng = np.random.default_rng(seed)
    csr = five_point_operator(
        nx, ny, rng.uniform(0.5, 2.0, (ny, nx)), rng.uniform(0.5, 2.0, (ny, nx)), 0.3
    )
    return COOMatrix.from_csr(csr), csr


class TestCOOMatrix:
    def test_roundtrip_csr(self):
        coo, csr = make_coo()
        assert np.allclose(coo.to_csr().to_dense(), csr.to_dense())

    def test_matvec_matches_csr(self):
        coo, csr = make_coo()
        x = np.random.default_rng(1).standard_normal(csr.n_cols)
        assert np.allclose(coo.matvec(x), csr.matvec(x))

    def test_duplicates_accumulate(self):
        coo = COOMatrix([0, 0], [1, 1], [2.0, 3.0], (1, 2))
        assert coo.to_dense()[0, 1] == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            COOMatrix([5], [0], [1.0], (2, 2))
        with pytest.raises(ValueError):
            COOMatrix([0], [0, 1], [1.0], (2, 2))


@pytest.mark.parametrize("scheme", SCHEMES)
class TestProtectedCOO:
    def test_clean_after_encode(self, scheme):
        coo, _ = make_coo()
        prot = ProtectedCOOMatrix(coo, scheme)
        assert not prot.detect_any()
        assert prot.check_all()["coo_elements"].clean

    def test_clean_indices_roundtrip(self, scheme):
        coo, _ = make_coo()
        prot = ProtectedCOOMatrix(coo, scheme)
        assert np.array_equal(prot.elements.rowidx_clean(), coo.rowidx)
        assert np.array_equal(prot.elements.colidx_clean(), coo.colidx)

    def test_matvec_exact(self, scheme):
        coo, csr = make_coo()
        prot = ProtectedCOOMatrix(coo, scheme)
        x = np.random.default_rng(2).standard_normal(csr.n_cols)
        assert np.array_equal(prot.matvec_unchecked(x), coo.matvec(x))

    def test_value_flip_detected(self, scheme):
        coo, _ = make_coo()
        prot = ProtectedCOOMatrix(coo, scheme)
        f64_to_u64(prot.values)[7] ^= np.uint64(1) << np.uint64(33)
        assert prot.detect_any()

    def test_rowidx_flip_detected(self, scheme):
        coo, _ = make_coo()
        prot = ProtectedCOOMatrix(coo, scheme)
        prot.rowidx[3] ^= np.uint32(8)
        assert prot.detect_any()

    def test_colidx_flip_detected(self, scheme):
        coo, _ = make_coo()
        prot = ProtectedCOOMatrix(coo, scheme)
        prot.colidx[3] ^= np.uint32(2)
        assert prot.detect_any()


@pytest.mark.parametrize("scheme", ["secded128", "crc32c"])
class TestCOOCorrection:
    def test_single_flip_corrected(self, scheme):
        coo, _ = make_coo()
        prot = ProtectedCOOMatrix(coo, scheme)
        vals0 = prot.values.copy()
        rows0, cols0 = prot.rowidx.copy(), prot.colidx.copy()
        for elem, bit in [(0, 5), (17, 60), (40, 0)]:
            f64_to_u64(prot.values)[elem] ^= np.uint64(1) << np.uint64(bit)
            report = prot.check_all()["coo_elements"]
            assert report.n_corrected == 1, (elem, bit)
            assert np.array_equal(prot.values, vals0)
        prot.rowidx[9] ^= np.uint32(1) << np.uint32(4)
        prot.check_all()
        assert np.array_equal(prot.rowidx, rows0)
        assert np.array_equal(prot.colidx, cols0)

    def test_checksum_region_flip_corrected(self, scheme):
        coo, _ = make_coo()
        prot = ProtectedCOOMatrix(coo, scheme)
        rows0 = prot.rowidx.copy()
        prot.rowidx[0] ^= np.uint32(1) << np.uint32(28)
        report = prot.check_all()["coo_elements"]
        assert report.n_corrected == 1
        assert np.array_equal(prot.rowidx, rows0)


class TestCOOSpecifics:
    def test_crc_pairs_two_flips_corrected(self):
        coo, _ = make_coo()
        prot = ProtectedCOOMatrix(coo, "crc32c")
        vals0 = prot.values.copy()
        f64_to_u64(prot.values)[0] ^= np.uint64(1) << np.uint64(10)
        f64_to_u64(prot.values)[1] ^= np.uint64(1) << np.uint64(44)
        report = prot.check_all()["coo_elements"]
        assert report.n_corrected == 1  # one pair codeword
        assert np.array_equal(prot.values, vals0)

    def test_crc_odd_tail_sed(self):
        coo, csr = make_coo(nx=3, ny=3)  # 45 nnz, odd
        assert csr.nnz % 2 == 1
        prot = ProtectedCOOMatrix(coo, "crc32c")
        assert prot.elements.n_codewords == 45 // 2 + 1
        f64_to_u64(prot.values)[-1] ^= np.uint64(1) << np.uint64(20)
        flags = prot.elements.detect()
        assert flags[-1]
        report = prot.check_all()["coo_elements"]
        assert report.n_uncorrectable == 1  # SED tail detects only

    def test_sed_cannot_correct(self):
        coo, _ = make_coo()
        prot = ProtectedCOOMatrix(coo, "sed")
        prot.colidx[0] ^= np.uint32(1)
        report = prot.check_all()["coo_elements"]
        assert report.n_uncorrectable == 1

    def test_bounds_check(self):
        coo, _ = make_coo()
        prot = ProtectedCOOMatrix(coo, "secded128")
        prot.bounds_check()
        prot.colidx[5] = (prot.colidx[5] & np.uint32(0xFF000000)) | np.uint32(
            0x00FFFFFF
        )
        with pytest.raises(BoundsViolationError):
            prot.bounds_check()

    def test_dimension_limits(self):
        with pytest.raises(ConfigurationError):
            ProtectedCOOElements(
                np.ones(1), np.zeros(1, np.uint32), np.zeros(1, np.uint32),
                (2**24 + 1, 4), "secded128",
            )

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            ProtectedCOOElements(
                np.ones(1), np.zeros(1, np.uint32), np.zeros(1, np.uint32),
                (4, 4), "secded64",
            )
