"""Every row of the layout × code table, through the six public containers.

One fixture per structure (sizes chosen so every grouped scheme has an
odd tail and the CSR rows are ragged), and four table-wide properties:
the stored format is pinned, the guarantee holds bit for bit, index
values are validated against the row's limit, and windowed checks agree
with whole-container checks.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.ecc.base import CodewordStatus
from repro.errors import ConfigurationError
from repro.protect import (
    ProtectedCOOElements,
    ProtectedCSRElements,
    ProtectedCSRElements64,
    ProtectedRowPointer,
    ProtectedRowPointer64,
    ProtectedVector,
)
from repro.protect.codeword_store import (
    CODEWORD_TABLE,
    SplitLanes,
    WordLanes,
    codeword_row,
)

#: Ragged CSR rows, all >= 4 long (the CRC row scheme's floor), odd nnz.
ROW_LENGTHS = [4, 6, 4, 5, 7, 4, 5]
NNZ = sum(ROW_LENGTHS)
#: Entries in the row-pointer / vector fixtures: 23 leaves a tail under
#: every group size (23 % 2, % 4, % 8 are all nonzero).
N_ENTRIES = 23

SCHEMES = {
    "csr_elements": ["sed", "secded64", "secded128", "crc32c"],
    "csr_elements64": ["sed", "secded", "crc32c"],
    "coo_elements": ["sed", "secded128", "crc32c"],
    "row_pointer": ["sed", "secded64", "secded128", "crc32c"],
    "row_pointer64": ["sed", "secded", "crc32c"],
    "vector": ["sed", "secded64", "secded128", "crc32c"],
}
CONTAINERS = [(s, k) for s, schemes in SCHEMES.items() for k in schemes]


def build(structure, scheme, crc_mode="2EC3ED"):
    """The fixed-seed container for one table row."""
    rng = np.random.default_rng(20170905)
    values = rng.standard_normal(NNZ)
    cols = rng.integers(0, 1000, NNZ)
    rows = np.repeat(np.arange(len(ROW_LENGTHS)), ROW_LENGTHS)
    rowptr = np.concatenate([[0], np.cumsum(ROW_LENGTHS)])
    ptr = np.arange(N_ENTRIES) * 5
    if structure == "csr_elements":
        return ProtectedCSRElements(
            values, cols.astype(np.uint32), rowptr.astype(np.uint32), 1000,
            scheme, crc_mode)
    if structure == "csr_elements64":
        return ProtectedCSRElements64(
            values, cols.astype(np.uint64) + np.uint64(2**40),
            rowptr.astype(np.uint64), 2**40 + 1000, scheme, crc_mode)
    if structure == "coo_elements":
        return ProtectedCOOElements(
            values, rows.astype(np.uint32), cols.astype(np.uint32),
            (len(ROW_LENGTHS), 1000), scheme, crc_mode)
    if structure == "row_pointer":
        return ProtectedRowPointer(ptr.astype(np.uint32), scheme, crc_mode)
    if structure == "row_pointer64":
        return ProtectedRowPointer64(
            ptr.astype(np.uint64) + np.uint64(2**40), scheme, crc_mode)
    return ProtectedVector(rng.standard_normal(N_ENTRIES), scheme, crc_mode)


def raw_arrays(container):
    """The stored arrays of a container — the fault-injection surface."""
    names = ("values", "rowidx", "colidx") if hasattr(container, "colidx") else ("raw",)
    return [getattr(container, name) for name in names if hasattr(container, name)]


def digest(structure, scheme):
    """SHA-256 over the encoded stored bytes of one row's fixture."""
    h = hashlib.sha256()
    for array in raw_arrays(build(structure, scheme)):
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def ids(rows):
    return [f"{structure}-{scheme}" for structure, scheme in rows]


def words(array):
    """An unsigned-integer view of a stored array, for bit flips."""
    return array.view(np.uint64) if array.dtype == np.float64 else array


def snapshot(container):
    return [array.copy() for array in raw_arrays(container)]


def stored_equals(container, arrays):
    return all(np.array_equal(words(a), words(b))
               for a, b in zip(raw_arrays(container), arrays))


# ---------------------------------------------------------------------------
# Stored format
# ---------------------------------------------------------------------------
#: Digests of the encoded fixtures, generated at the commit *before* the
#: containers moved onto the codeword store: no refactor of the store,
#: its layouts or its codes may change a stored bit.
GOLDEN = {
    "csr_elements/sed": "191b45acb4ef5415",
    "csr_elements/secded64": "542667a01672fd9e",
    "csr_elements/secded128": "0665039d99ddedd4",
    "csr_elements/crc32c": "973864613307afbc",
    "csr_elements64/sed": "8604a615d6a2f9fe",
    "csr_elements64/secded": "9fadde1444c7cc16",
    "csr_elements64/crc32c": "cf03633748365109",
    "coo_elements/sed": "f39b1ce91e59efec",
    "coo_elements/secded128": "9dea5c561a392c1f",
    "coo_elements/crc32c": "d9f4aa2b49d61dea",
    "row_pointer/sed": "f537f8a99a20399c",
    "row_pointer/secded64": "97f3fb6e169bf737",
    "row_pointer/secded128": "f8afb4d7fd7878af",
    "row_pointer/crc32c": "823b9a5b496a0ae4",
    "row_pointer64/sed": "c78ac8d941092e46",
    "row_pointer64/secded": "572299b45a87e65e",
    "row_pointer64/crc32c": "1bae4993dd3b1936",
    "vector/sed": "1fbcebee85b0fed5",
    "vector/secded64": "2ae1d765283560ba",
    "vector/secded128": "ede018a825663bc7",
    "vector/crc32c": "efe1b77ad19b40d9",
}


def test_fixtures_cover_every_table_row():
    """A new table row must come with a fixture and a pinned digest."""
    assert set(CONTAINERS) == {key for key in CODEWORD_TABLE if key[1] is not None}
    assert set(GOLDEN) == {f"{s}/{k}" for s, k in CONTAINERS}


@pytest.mark.parametrize("structure,scheme", CONTAINERS, ids=ids(CONTAINERS))
def test_stored_format_is_pinned(structure, scheme):
    assert digest(structure, scheme) == GOLDEN[f"{structure}/{scheme}"]


# ---------------------------------------------------------------------------
# The guarantee, bit by bit
# ---------------------------------------------------------------------------
#: Length of the one-row codeword the CRC row layouts are exercised on.
ROW_LENGTH = 5
OK, CORRECTED, UNCORRECTABLE = (
    CodewordStatus.OK, CodewordStatus.CORRECTED, CodewordStatus.UNCORRECTABLE)


def replicated(structure, scheme, copies, crc_mode="2EC3ED"):
    """``copies`` bit-identical codewords, plus one tail element if the row has a tail.

    Codeword ``k`` holds elements ``[k * g, (k + 1) * g)`` of every
    stored array, so one check decides ``copies`` flip patterns at once.
    """
    row = codeword_row(structure, scheme)
    g = row.group or ROW_LENGTH
    rng = np.random.default_rng(11)

    def tiled(unit_and_tail):
        unit, tail = unit_and_tail[:g], unit_and_tail[g:]
        return np.concatenate([np.tile(unit, copies), tail if row.tail else tail[:0]])

    values = tiled(rng.standard_normal(g + 1))
    cols = tiled(rng.integers(0, 1000, g + 1))
    rows = tiled(rng.integers(0, 1000, g + 1))
    rowptr = np.arange(copies + 1) * g if row.group == 0 else np.array([0, values.size])
    if structure == "csr_elements":
        return ProtectedCSRElements(values, cols.astype(np.uint32),
                                    rowptr.astype(np.uint32), 1000, scheme, crc_mode)
    if structure == "csr_elements64":
        return ProtectedCSRElements64(values, cols.astype(np.uint64) + np.uint64(2**40),
                                      rowptr.astype(np.uint64), 2**41, scheme, crc_mode)
    if structure == "coo_elements":
        return ProtectedCOOElements(values, rows.astype(np.uint32), cols.astype(np.uint32),
                                    (1000, 1000), scheme, crc_mode)
    if structure == "row_pointer":
        return ProtectedRowPointer(cols.astype(np.uint32), scheme, crc_mode)
    if structure == "row_pointer64":
        return ProtectedRowPointer64(cols.astype(np.uint64) + np.uint64(2**40),
                                     scheme, crc_mode)
    return ProtectedVector(values, scheme, crc_mode)


def codeword_bits(container, n_elements):
    """``(array, element offset, bit)`` for every stored bit of one codeword."""
    return [(i, offset, bit)
            for i, array in enumerate(raw_arrays(container))
            for offset in range(n_elements)
            for bit in range(8 * array.itemsize)]


def flip_patterns(container, bits, patterns, g):
    """Apply pattern ``k`` (bit numbers into ``bits``) to codeword ``k``."""
    arrays = [words(array) for array in raw_arrays(container)]
    patterns = np.asarray(patterns)
    copy = np.arange(len(patterns))
    table = np.array(bits)
    for column in patterns.T:
        which, offset, bit = table[column].T
        for i, array in enumerate(arrays):
            sel = which == i
            one = array.dtype.type(1)
            np.bitwise_xor.at(array, copy[sel] * g + offset[sel],
                              one << bit[sel].astype(array.dtype))


def assert_bound(container, code, weight, n, flipped, pristine):
    """The verdicts a code with ``(corrects, detects)`` owes ``weight`` flips."""
    if weight <= code.detects:
        assert container.detect()[:n].all()
        assert (container.check(correct=False).status[:n] == UNCORRECTABLE).all()
    assert stored_equals(container, flipped), "a detection-only pass modified storage"
    status = container.check(correct=True).status[:n]
    if weight <= code.corrects:
        assert (status == CORRECTED).all()
        assert stored_equals(container, pristine)
    else:
        if weight <= code.detects:
            assert (status == UNCORRECTABLE).all()
        assert stored_equals(container, flipped), "an uncorrectable codeword was modified"


MODES = [(s, k, mode) for s, k in CONTAINERS
         for mode in (("2EC3ED", "1EC4ED", "5ED") if k == "crc32c" else ("2EC3ED",))]


@pytest.mark.parametrize(
    "structure,scheme,mode", MODES, ids=[f"{s}-{k}-{m}" for s, k, m in MODES])
def test_guarantee_every_flip(structure, scheme, mode):
    """Every 1-flip, every 2-flip (sampled beyond 256 bits), sampled 3..5.

    SED: odd flips detected, nothing modified.  SECDED: 1 corrected
    bitwise, 2 detected-uncorrectable.  CRC32C: ``corrects`` flips
    corrected bitwise, up to ``detects`` never silent, per operating
    mode.  Never a clean report over changed bits within the bound, and
    an unrepairable codeword is left exactly as found.
    """
    row = codeword_row(structure, scheme)
    g = row.group or ROW_LENGTH
    probe = replicated(structure, scheme, 1, mode)
    code = probe._store.segments[0].code
    bits = codeword_bits(probe, g)
    assert len(bits) == len(code.positions)
    rng = np.random.default_rng(3)
    pairs = list(itertools.combinations(range(len(bits)), 2))
    if len(bits) > 256:
        pairs = [pairs[i] for i in rng.choice(len(pairs), 4000, replace=False)]
    families = {1: [(b,) for b in range(len(bits))], 2: pairs}
    for weight in range(3, code.detects + 1):
        families[weight] = [rng.choice(len(bits), weight, replace=False) for _ in range(500)]
    for weight, patterns in families.items():
        container = replicated(structure, scheme, len(patterns), mode)
        pristine = snapshot(container)
        flip_patterns(container, bits, patterns, g)
        assert_bound(container, code, weight, len(patterns), snapshot(container), pristine)


TAILED = [(s, k) for s, k in CONTAINERS if codeword_row(s, k).tail]


@pytest.mark.parametrize("structure,scheme", TAILED, ids=ids(TAILED))
def test_guarantee_tail_element(structure, scheme):
    """Every 1- and 2-flip of the tail codeword meets the *tail code's* bound."""
    row = codeword_row(structure, scheme)
    container = replicated(structure, scheme, 1)
    code = codeword_row(structure, row.tail).code("2EC3ED", None)
    pristine = snapshot(container)
    arrays = [words(array) for array in raw_arrays(container)]
    bits = [(i, bit) for i, array in enumerate(arrays) for bit in range(8 * array.itemsize)]
    assert len(bits) == len(code.positions)
    for weight in (1, 2):
        for pattern in itertools.combinations(bits, weight):
            for i, bit in pattern:
                arrays[i][-1] ^= arrays[i].dtype.type(1) << arrays[i].dtype.type(bit)
            flipped = snapshot(container)
            status = container.check(correct=True).status
            assert (status[:-1] == OK).all()
            if weight <= code.corrects:
                assert status[-1] == CORRECTED and stored_equals(container, pristine)
            else:
                if weight <= code.detects:
                    assert status[-1] == UNCORRECTABLE
                assert stored_equals(container, flipped)
            for array, clean in zip(arrays, pristine):
                np.copyto(array, words(clean))


@pytest.mark.parametrize("structure,scheme", CONTAINERS, ids=ids(CONTAINERS))
def test_padding_is_inert(structure, scheme):
    """Lane bits outside ``codeword_positions`` (index padding) are inert."""
    container = replicated(structure, scheme, 8)
    rng = np.random.default_rng(4)
    for _, layout, code in container._store.segments:
        if isinstance(layout, SplitLanes):
            continue  # the fields are the lanes: there is no padding to misuse
        padding = ~code._all_mask
        lanes = layout.lanes(0, 1).copy()
        garbage = rng.integers(0, 2**63, lanes.shape).astype(np.uint64) & padding
        assert not (lanes & padding).any()
        lanes |= garbage
        assert not code.detect(lanes).any()
        code.encode(lanes)
        assert code.check_and_correct(lanes).clean
        assert np.array_equal(lanes & padding, garbage)


# ---------------------------------------------------------------------------
# Index limits
# ---------------------------------------------------------------------------
def with_index_value(structure, scheme, field, value):
    """A four-element container whose ``field``-th index array holds ``value``."""
    values = np.ones(4)
    index = [np.arange(4, dtype=np.uint64), np.arange(4, dtype=np.uint64)]
    index[field][3] = value
    if structure == "csr_elements":
        return ProtectedCSRElements(values, index[0].astype(np.uint32),
                                    np.array([0, 4], np.uint32), 4, scheme)
    if structure == "csr_elements64":
        return ProtectedCSRElements64(values, index[0], np.array([0, 4], np.uint64),
                                      4, scheme)
    if structure == "coo_elements":
        return ProtectedCOOElements(values, index[0].astype(np.uint32),
                                    index[1].astype(np.uint32), (4, 4), scheme)
    if structure == "row_pointer":
        return ProtectedRowPointer(index[0].astype(np.uint32), scheme)
    return ProtectedRowPointer64(index[0], scheme)


INDEX_FIELDS = [
    (row.structure, row.scheme, field)
    for row in CODEWORD_TABLE.values() if row.layout and not row.lsb
    for field, reserved in enumerate(row.reserved) if reserved
]


@pytest.mark.parametrize(
    "structure,scheme,field", INDEX_FIELDS,
    ids=[f"{s}-{k}-field{f}" for s, k, f in INDEX_FIELDS])
def test_index_limit(structure, scheme, field):
    """An index using a reserved bit would be silently rewritten by the encode."""
    row = codeword_row(structure, scheme)
    bits = 64 if structure.endswith("64") else 32
    limit = row.limit(bits, field)
    container = with_index_value(structure, scheme, field, limit)
    if hasattr(container, "clean"):
        clean = container.clean()
    elif hasattr(container, "rowidx_clean"):
        clean = (container.rowidx_clean, container.colidx_clean)[field]()
    else:
        clean = container.colidx_clean()
    assert int(clean[3]) == limit and container.check().clean
    with pytest.raises(ConfigurationError):
        with_index_value(structure, scheme, field, limit + 1)


@pytest.mark.parametrize("scheme", SCHEMES["coo_elements"])
def test_coo_row_index_overflow_rejected(scheme):
    """The defect this validation fixes: 2**31 + 3 used to decode as 3, clean."""
    with pytest.raises(ConfigurationError):
        ProtectedCOOElements(np.ones(4), np.array([0, 1, 2, 2**31 + 3], np.uint32),
                             np.arange(4, dtype=np.uint32), (4, 4), scheme)


# ---------------------------------------------------------------------------
# Windows and reports
# ---------------------------------------------------------------------------
MATRIX_REGIONS = [(s, k) for s, k in CONTAINERS if s != "vector"]


def boundary_flips(container):
    """One flip per interesting codeword: window edges, last grouped, tail."""
    n = container.n_codewords
    group = container._store.row.group
    array = words(raw_arrays(container)[-1])
    if group == 0:  # one codeword per row: flip each row's first index
        targets = np.concatenate([[0], np.cumsum(ROW_LENGTHS)[:-1]])[[0, n // 3, n - 1]]
    else:
        n_groups = array.size // group

        def first_element(codeword):
            if codeword <= n_groups:
                return codeword * group
            return n_groups * group + codeword - n_groups

        edge = first_element(n // 3)
        targets = {0, edge - 1, edge, n_groups * group - 1, array.size - 1}
    for element in targets:
        array[element] ^= array.dtype.type(1) << array.dtype.type(3)


@pytest.mark.parametrize("correct", [True, False], ids=["correct", "detect"])
@pytest.mark.parametrize("structure,scheme", MATRIX_REGIONS, ids=ids(MATRIX_REGIONS))
def test_window_parity(structure, scheme, correct):
    whole, parts = build(structure, scheme), build(structure, scheme)
    boundary_flips(whole)
    boundary_flips(parts)
    n = whole.n_codewords
    report = whole.check(correct=correct)
    assert not report.clean
    edges = [0, n // 3, n // 3, 2 * n // 3, n]  # includes an empty window
    corrected, uncorrectable, total = [], [], 0
    for lo, hi in zip(edges, edges[1:]):
        part = parts.check(correct=correct, window=(lo, hi)).with_offset(lo)
        total += part.n_codewords
        corrected.extend(part.corrected_indices())
        uncorrectable.extend(part.uncorrectable_indices())
    assert total == n
    assert corrected == report.corrected_indices().tolist()
    assert uncorrectable == report.uncorrectable_indices().tolist()
    assert stored_equals(parts, snapshot(whole))
    with pytest.raises(ValueError):
        parts.check(window=(0, n + 1))


@pytest.mark.parametrize("structure,scheme", CONTAINERS, ids=ids(CONTAINERS))
def test_clean_report_is_compact(structure, scheme):
    container = build(structure, scheme)
    report = container.check(correct=False)
    assert report._status is None
    assert report.n_codewords == container.n_codewords == container.detect().size


@pytest.mark.parametrize("structure,scheme", CONTAINERS, ids=ids(CONTAINERS))
def test_lanes_in_place_or_buffered(structure, scheme):
    """Vectors, the 64-bit row pointer and SED's split lanes check storage
    itself; every other row refills a buffer allocated once, at construction."""
    container = build(structure, scheme)
    for _, layout, _ in container._store.segments:
        buffer = layout.buffer
        lanes = layout.lanes(0, 1)
        container.check()
        assert layout.buffer is buffer
        if isinstance(layout, SplitLanes):
            assert buffer is None
            assert all(np.shares_memory(lane, array)
                       for lane, array in zip(lanes, raw_arrays(container)))
        elif isinstance(layout, WordLanes):
            assert structure in ("vector", "row_pointer64") and buffer is None
            assert np.shares_memory(lanes, raw_arrays(container)[0])
        else:
            assert np.shares_memory(lanes, buffer)
