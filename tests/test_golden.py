"""Golden report bytes: the census JSON of every GRID and STRETCH case, of
one case above |L| = 1024, and one report with class-number checks
attached, pinned by SHA-256.

Any change to the library's answers, to the report schema or to its
serialization shows here as a changed hash.  A change that is meant to
alter report bytes records new ones and says why.  These were recorded
with schema version 2, which dropped the isogeny rows' conjecture_probe;
the version-1 reports give the same hashes once that key is deleted and
schema_version is set to "2".  The class-number report was recorded again
when class numbers came to be computed from L-polynomials: each term's
stabilized_bound gave way to the genus and L-polynomial coefficients of
its squarefree part, and the earlier report gives the new hash once every
stabilized_bound is replaced by genus 0 and L [1] (all its discriminants
have degree at most 1).
"""

import copy
import hashlib

import pytest

from drinfeld2 import attach_class_number_checks

from conftest import GRID, STRETCH, tower_for

REPORT_SHA256 = {
    (2, 1, 1): "56e0d2b1cdb33982ca8beaea93fed23370967a24fedfeefd85c40eb1fc303c48",
    (2, 1, 2): "c1069e3f8aea0db6acb78ae87056433cb2513b489f88052dfeafe3f674cf8314",
    (2, 2, 1): "44e29abd807d0720143ed2a33152a7073aeb422ddf2504565bf49c7e302f2081",
    (2, 1, 3): "8f249a8e3556a084184f2c489a05a7ddbafe881b358ae0c76379bd090ec4fe2f",
    (2, 3, 1): "d4218030c7d8ea196682ab385438adb2185cdd99bfb31f176aed9fc967ba4067",
    (3, 1, 1): "0c605ea9f6f1d0abd4c41b67cc7db09e133e8df55b7fa8ef51e681614645f72a",
    (3, 1, 2): "4a0da9bd762c700f26d9f6bee83851d634c020d00d4b2b05c788dd9feff988fe",
    (3, 2, 1): "b9f12c9844209c3a93d4321aa81f680bf942f07f936fa9561c9a4b0424b1189a",
    (3, 1, 3): "0926139c887dfc9aad3a531135facf5f86191ee8e6c95d6416d6ac77e4f09304",
    (3, 3, 1): "9ce19806bae3693311aa1ff348d75e50722fd6d4a9cc7acc5b461a1ade44c463",
    (4, 1, 1): "f1e9aad2863a99b99ce0e0e87061a842788ee64d90fa34444f2079c249f73b1c",
    (4, 1, 2): "33458756324ec7c2188b46e734be1e41c80ff5200f08b87d9e2cbdd8b7d6c792",
    (4, 2, 1): "05f58002523310cdb2647de5955fc9274e15560980bb1c86baad84a7c48a136c",
    (4, 1, 3): "02c673d1c145ebe51fa1056550bf911ba82e5025205253fb8aa65196bbf8bee0",
    (4, 3, 1): "390fde8fa1c6d658a02b8ee0cdae00f176d525fccc9e2074b28121afa37d5174",
    (5, 1, 1): "36da55d24ce6250943c0251358f7f980b9e4d05d1f7ff2f3bce0fee73ceedd29",
    (5, 1, 2): "b3409d6c5eca3e35e47724f3aa9316f084ea0d80d5a4b65d75338f8f9d5fbaaf",
    (5, 2, 1): "c13953dc64b06d5e5e7a97e7a9791b1d397a00cc8408c82204ce0b6446a7e96e",
    (5, 1, 3): "d29f945f448cb4844df9f627113fe8b1af2d5188b087935215ebee54fcb523f7",
    (5, 3, 1): "6d9edca8508509cf3735ae3a4c2e836f70b1fe3ac9b39852a01d4bac9376d0f5",
    (3, 1, 4): "f7eea399b30cbd34e1f559d575c2b8333e3f19d7474b1ab36e68df2b6c202607",
    (3, 2, 2): "6fd2fd574146fdea254ec8a2c32bf3caefe521332c78811707bbfae1d5639211",
    (3, 4, 1): "49e191cdf4f65d1185f65e06935945e8b1d07eb84b15cd85d23b223f3d89ee5a",
}

# SHA-256 of the 23 reports concatenated in GRID + STRETCH order.
ALL_REPORTS_SHA256 = "2baec517c27d02148c1f98a88445826503b7c99b7ddd0cb4dd064ca899fa5d17"

# The (3, 1, 7) report, |L| = 2187: a census above the member-verification
# bound, where tower addition took the path for |L| > 256 when it was
# recorded.
REPORT_317_SHA256 = "bb377ad087857f627c6653451c4cdb15f8347200bd432f19852bb1c850eb4b37"

# The (3, 1, 1) report with attach_class_number_checks, as `census --hurwitz`
# writes it.
HURWITZ_311_SHA256 = "97874e813b557065dd96f64348a58ba04b0fdea5e9d556c898e04926bef7d72b"


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


def test_census_report_bytes_317(unverified_census):
    assert sha256(unverified_census(3, 1, 7).to_json_bytes()) == REPORT_317_SHA256


def test_hurwitz_report_bytes(unverified_census):
    report = copy.deepcopy(unverified_census(3, 1, 1))
    attach_class_number_checks(report, tower_for(3, 1))
    assert sha256(report.to_json_bytes()) == HURWITZ_311_SHA256
