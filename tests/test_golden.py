"""Golden report bytes: the census JSON of every GRID and STRETCH case, and
one report with class-number checks attached, pinned by SHA-256.

Any change to the library's answers, to the report schema or to its
serialization shows here as a changed hash.  The hashes were recorded
before the polynomial arithmetic was merged into one kernel; a change
that is meant to alter report bytes records new ones and says why.
"""

import copy
import hashlib

import pytest

from drinfeld2 import attach_class_number_checks

from conftest import GRID, STRETCH, tower_for

REPORT_SHA256 = {
    (2, 1, 1): "95885c6ecfa8ec5f0d3fcb0a494a8f4851045284ffba72f2f1a87c0660a56c00",
    (2, 1, 2): "806b98815af130cbfe695995a4cfc8108a95152ed0c21d6f5fff0e805bd92f86",
    (2, 2, 1): "0ef4a3a6b796dafdaf8a3339e66858e61b426e10ad462083b9a3f7979ef724c8",
    (2, 1, 3): "916596fb545087cb7dc42d882c2b6e240e71463b01d7561dbf3959dddcd42a9c",
    (2, 3, 1): "25de40b4be977da0bf063d21706b44cbecadab2ad7324d5284b0db89cd6cfb2e",
    (3, 1, 1): "471ef5a92295194dd731ddadeb3f9a1cac0ac00298a64e8a6bc970fa0e6932ea",
    (3, 1, 2): "a68a763d430c8772c6130f926e96d73899d1f45219bf7d29b8da8311d8a8778f",
    (3, 2, 1): "5e51b48605a0c2ec30947eb422fee31704766e3d6f63b145b137140d49790c55",
    (3, 1, 3): "45b26c2024cff76dd5650744c1dd437aaabd7e84986109beb2e98cb907be926a",
    (3, 3, 1): "bbc2a76cf3d8053e3690619650eebbeb1213f7f86914bf38a523a4cd82a80477",
    (4, 1, 1): "153862b99d6f91fde4a78763e2f4b3eca7b79948d9d2922fb6edad239cc2e230",
    (4, 1, 2): "520ddc062199f7e08db6151f8c82afd373f84e12a0174cb4bedbb0135f29eac7",
    (4, 2, 1): "fc710a60c3caa0a6044272bef3746de89ff3f6bf1de33abea94e9331be1a4a20",
    (4, 1, 3): "df933d59da5ce03e9190300c42817f95aa99a0578f0fc58ed9c9f40942095b57",
    (4, 3, 1): "acac9272bccae5d66955ad9ea1e89f126645a86ec959e9feb00b33460696dfcd",
    (5, 1, 1): "9d937578175bf043c5b0d6e7de81fd06bdd6fb8bce90fe2f02ca897b7780f831",
    (5, 1, 2): "bb7c3478c7b2b8787f95acc1d6ced2687ffd65859e156801db328244815a63b2",
    (5, 2, 1): "a7a0fc7e211af15e2fa5d8eec6827775bf2227acd437ced8a2b51926d8c4b560",
    (5, 1, 3): "a50f4a65f699efa11979b732f1ee6debceb006a644ca010f0d398c010076464b",
    (5, 3, 1): "ce8b937946fb6d039dbcd2e10f701756c5cf878836af64ceadb746692f753b28",
    (3, 1, 4): "458db5f98f7deb1a190366dda42d9567219b962b322a3b198ef746bf084b4df9",
    (3, 2, 2): "7de199cfe25a2e207d52685bb352d91e03c39406622d2f181effa611454a5080",
    (3, 4, 1): "57f4dcd016d3ed2ae85d802c62d979f049f8c9206b80baa7b82a62fbde13cf46",
}

# SHA-256 of the 23 reports concatenated in GRID + STRETCH order.
ALL_REPORTS_SHA256 = "88f319c5b40cfb614c08376b86ba1ebb5d1ace95e53c95bf1ebe8b5b54650ee1"

# The (3, 1, 1) report with attach_class_number_checks, as `census --hurwitz`
# writes it.
HURWITZ_311_SHA256 = "e55c3518ce42a71ef0388b4b6d819a3d9fbaa54de2cf78f770a3bc4f8fea2b69"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_golden_table_covers_grid_and_stretch():
    assert list(REPORT_SHA256) == GRID + STRETCH


@pytest.mark.parametrize("case", GRID + STRETCH, ids=lambda c: "q%d-d%d-m%d" % c)
def test_census_report_bytes(unverified_census, case):
    assert sha256(unverified_census(*case).to_json_bytes()) == REPORT_SHA256[case]


def test_all_reports_concatenated(unverified_census):
    data = b"".join(unverified_census(*case).to_json_bytes() for case in GRID + STRETCH)
    assert sha256(data) == ALL_REPORTS_SHA256


def test_hurwitz_report_bytes(unverified_census):
    report = copy.deepcopy(unverified_census(3, 1, 1))
    attach_class_number_checks(report, tower_for(3, 1))
    assert sha256(report.to_json_bytes()) == HURWITZ_311_SHA256
