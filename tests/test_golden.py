"""Golden report bytes: the census JSON of every GRID and STRETCH case, of
one case above |L| = 1024, of seven cases at q > 5, and of two reports
with class-number checks attached, pinned by SHA-256.

Any change to the library's answers, to the report schema or to its
serialization shows here as a changed hash.  A change that is meant to
alter report bytes records new ones and says why.  Schema version 2
dropped the isogeny rows' conjecture_probe; the version-1 reports gave
the version-2 hashes once that key was deleted and schema_version set to
"2".  The class-number report was recorded again when class numbers came
to be computed from L-polynomials: each term's stabilized_bound gave way
to the genus and L-polynomial coefficients of its squarefree part, and
the earlier report gave the new hash once every stabilized_bound was
replaced by genus 0 and L [1] (all its discriminants have degree at
most 1).

These hashes were recorded with schema version 3, whose checks hold only
flags that are computed and can be false.  Every version-2 report gives
the version-3 hash after this transform: delete checks.annihilation_all
and checks.trace_bound_all (literal true: frobenius_charpoly raises
unless both hold), delete checks.members_all_ok when members_verified is
false, set schema_version to "3", and re-serialize with
json.dumps(sort_keys=True, separators=(",", ":")) + "\n".  The q > 5 and
(7, 1, 2) class-number pins were recorded at version 2 and carried
through the same transform."""

import hashlib

import pytest

from drinfeld2.census import default_prime, run_census

from conftest import (GRID, HEADS_AT_LARGE_Q, HURWITZ_CASES, LARGE_Q, STRETCH, hurwitz_report,
                      tower_for)

REPORT_SHA256 = {
    (2, 1, 1): "8c05047c0c92e07d70f12ab74de94aa8a644960bbffcb80081236786ea71e1b7",
    (2, 1, 2): "52247622bc00c4467c5715d81e6c90caac0c27076c6cada3167316ba86a2105a",
    (2, 2, 1): "73798e3b3869fb13f59fa9af1aba8f95cce298923ba00ecc17410339fadc799f",
    (2, 1, 3): "0c2b2ce1d9588045b76d407e2d98fde437456992976b515bac328343af14cac4",
    (2, 3, 1): "b6e786067c0f992c11612e4afe283b3f451695a48518334d0a6bce9b2e300ae4",
    (3, 1, 1): "bb00b6dd6d531100d4df10ac3a46287db73cbc793fa1c2c354de1c1de4505b66",
    (3, 1, 2): "bbed1f780c1866c5b673ed15b3b66b5ef62c27994e64844496a62c9ef3ac9a15",
    (3, 2, 1): "35d763746cb6b5b6ec8fc412ceec9b2d9f001a9d3b120c0255a3e9d833df3d8d",
    (3, 1, 3): "8567a2a7bf340e247413588578337df107ce69924db4134e96a09e6765251352",
    (3, 3, 1): "f800f228c6c46b3b71167ac066800b0b3423ce10a68dab5151cfaf08496cd3cd",
    (4, 1, 1): "01dcd09952260afccdd6be6e86e891f0d01e0ee2bd4478a75d454dd71b89d7ff",
    (4, 1, 2): "98b0e661d27e525e1f3287d03ba6fc353d6f7342826dbdddda4947339d63c0e7",
    (4, 2, 1): "876a6e2a57fc279e8f902a86ab7ad50bcb1c8485ccabe2a163eb3a7c88b28032",
    (4, 1, 3): "56322dede4d1ea9ba5b09fdb9d864f3b6e781d95ff625ce420d4496f80f0bc09",
    (4, 3, 1): "9a1e64d1cc10517f44fe83d5dbec8e6cc27e4f857189bdfdb876e27e7966048d",
    (5, 1, 1): "330ec0de6f750f8bccb75c888ce6e30ad87279290555e1b117109e2021d6674a",
    (5, 1, 2): "e31c9ec4d26b92074e29b5f93051e1690645e615667ffcf23b006349144bcfb3",
    (5, 2, 1): "2e11ae7623785aafc4c101b98fbe099222c9cdfd7f89f45bf71c701e592bf68e",
    (5, 1, 3): "93b3191552d94b72cf592c130709cfcc9b25f70f88f13a8607cfb7455c3fe74b",
    (5, 3, 1): "f258580e092e8eb45d32b7ee11738b671ba60722ccacd71ad4f374916d1241f9",
    (3, 1, 4): "1eaf5b7d7089871132257c02757b484ba10720ef7f597eacfb5d3f1908c528aa",
    (3, 2, 2): "7db22786ce1a0ebd83eb201f2c7fb8e11c34a2de756e0e3ba80b895fd9258747",
    (3, 4, 1): "de8438dddc3af43a5e3628e50829e2aa41259dbf2da3fbdbc1de042d6f0bb0a7",
}

# SHA-256 of the 23 reports concatenated in GRID + STRETCH order.
ALL_REPORTS_SHA256 = "51382a54c3c40e952c61f5fd7427156d1819c31a34ef85e1abc0548456ce3222"

# The (3, 1, 7) report, |L| = 2187: a census above the member-verification
# bound, where tower addition took the path for |L| > 256 when it was
# recorded.
REPORT_317_SHA256 = "2ddf12ef7e0382fffce11662cc15afbf45bd0e21bb106018055f5be91abd5bdd"

# Reports at q > 5, the LARGE_Q cases of conftest.
LARGE_Q_SHA256 = {
    (7, 2, 2): "5a3e1ba92b7df5b531517e0e0303888f5bd319367e9edc10cd3d951d06b6a83c",
    (9, 1, 2): "752146ae18df5addba81dcde74e4be4cf49ebc2f8d7874e980fa6893c55c167b",
    (8, 1, 2): "801cd0df939076e56bead3e9377826324d083299f6dcb7c03c6d28f6b8982d9e",
    (13, 1, 2): "8f73143e29ae736c8a6267b8feb79784b0552cdbfdb12bb39c9181103bbe1335",
    (31, 1, 1): "dabecd8d25460151fcfd9a32c3d68ff961ed352e34f02b77e50b2606030695a7",
}

# The HEADS_AT_LARGE_Q reports of conftest, recorded from the library's
# bytes before the census classified its heads on kernel tuples.
HEADS_AT_LARGE_Q_SHA256 = {
    (31, 1, 2): "6d790c32edb483445f2ea89b753e57fde11f3ec5c50ffcb151fea58028b12215",
    (127, 1, 1): "56e33369428c04f230fd081c7671819b443a6345ba5c6f1064d8234c7222ff98",
}

# The HURWITZ_CASES reports with attach_class_number_checks, as
# `census --hurwitz` writes them.
HURWITZ_SHA256 = {
    (3, 1, 1): "20070bba67782bb5b839feab5eb511e803f7d4c324c9144df27912dddf829d77",
    (7, 1, 2): "ac333564925684cae4607549e235332d6d6b32cd2504a89d1875418f2bd31801",
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_golden_table_covers_grid_and_stretch():
    assert list(REPORT_SHA256) == GRID + STRETCH
    assert list(LARGE_Q_SHA256) == LARGE_Q
    assert list(HEADS_AT_LARGE_Q_SHA256) == HEADS_AT_LARGE_Q
    assert list(HURWITZ_SHA256) == HURWITZ_CASES


@pytest.mark.parametrize("case", GRID + STRETCH, ids=lambda c: "q%d-d%d-m%d" % c)
def test_census_report_bytes(unverified_census, case):
    assert sha256(unverified_census(*case).to_json_bytes()) == REPORT_SHA256[case]


def test_all_reports_concatenated(unverified_census):
    data = b"".join(unverified_census(*case).to_json_bytes() for case in GRID + STRETCH)
    assert sha256(data) == ALL_REPORTS_SHA256


def test_census_report_bytes_317(unverified_census):
    assert sha256(unverified_census(3, 1, 7).to_json_bytes()) == REPORT_317_SHA256


@pytest.mark.parametrize("case", LARGE_Q, ids=lambda c: "q%d-d%d-m%d" % c)
def test_census_report_bytes_large_q(unverified_census, case):
    assert sha256(unverified_census(*case).to_json_bytes()) == LARGE_Q_SHA256[case]


@pytest.mark.parametrize("case", HEADS_AT_LARGE_Q, ids=lambda c: "q%d-d%d-m%d" % c)
def test_census_report_bytes_heads_at_large_q(case):
    # about 30,000 and 16,000 rows: run here, not cached for the whole test run
    q, d, m = case
    tower = tower_for(q, d * m)
    report = run_census(tower, default_prime(tower.fq, d), m)
    assert sha256(report.to_json_bytes()) == HEADS_AT_LARGE_Q_SHA256[case]


def test_hurwitz_report_bytes(unverified_census):
    case = (3, 1, 1)
    assert sha256(hurwitz_report(unverified_census, *case).to_json_bytes()) \
        == HURWITZ_SHA256[case]


def test_hurwitz_report_bytes_712(unverified_census):
    case = (7, 1, 2)
    assert sha256(hurwitz_report(unverified_census, *case).to_json_bytes()) \
        == HURWITZ_SHA256[case]
