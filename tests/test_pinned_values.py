"""Every row and identity side pinned by value: sha256 digests of the float
hex (and counts) of each series kind's rows, and of the float and exact
identity sides, as the code produced them before the one-walk driver.

A change of schedule, reducer or driver that moves any bit of any value
fails here, however the work was cut.
"""

import hashlib

import pytest

from csumlab import build_spf_table
from csumlab.series import PrimeWeight, SeriesSpec, difference_term, run_series

CHECKPOINTS = (*(10**e for e in range(7)), 2**20 - 1, 2**20, 2**20 + 1, 1234567)

TABLE = PrimeWeight.from_table({2: 0.5, 3: -0.25, 7: 1.0})
WEIGHTS = {"one": PrimeWeight.constant_one(), "residue:4,3": PrimeWeight.residue_class(4, 3),
           "table:2=0.5,3=-0.25,7=1": TABLE}

#: (kind, parameters) of every pinned series
SERIES = (
    ("mu-baseline", {}),
    ("alladi", {"k": 4, "l": 3}),
    ("ramanujan-alladi", {"m": 6, "k": 3, "l": 2}),
    ("ramanujan-alladi", {"m": 360, "k": 4, "l": 1}),
    ("mu-mn", {"m": 2, "k": 3, "l": 1}),
    ("mu-mn", {"m": 30, "k": 4, "l": 3}),
    ("mertens-restricted", {"y": 3}),
    ("mu-over-n-restricted", {"y": 5}),
    ("weighted-lhs", {"m": 12, "weight": TABLE}),
    ("weighted-lhs", {"m": 6, "weight": WEIGHTS["residue:4,3"]}),
    ("lpf-density", {"weight": WEIGHTS["one"]}),
    ("lpf-density", {"weight": WEIGHTS["residue:4,3"]}),
    ("lpf-density", {"weight": TABLE}),
)

IDENTITY_M = (6, 12, 30, 360)
IDENTITY_X = (2**15 + 1, 10**5)


def series_key(kind, params):
    return kind + "|" + ",".join(
        f"{k}={v.describe() if k == 'weight' else v}" for k, v in sorted(params.items()))


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def series_digest(t, kind, params):
    rows = run_series(t, SeriesSpec(kind=kind, checkpoints=CHECKPOINTS, **params)).rows
    return digest(f"{r.x},{r.value.hex()},{r.count}" for r in rows)


def identity_digest(t, m, weight):
    lines = []
    for x in IDENTITY_X:
        lhs, rhs = difference_term(t, m, weight, x)
        lines.append(f"float,{x},{lhs.hex()},{rhs.hex()}")
        for side in difference_term(t, m, weight, x, exact=True):
            # hex, not decimal: the sides have thousands of digits
            lines.append(f"exact,{x},{side.numerator:x}/{side.denominator:x}")
    return digest(lines)


#: recorded from the per-checkpoint, per-divisor schedule it replaced
PINNED = {
    "mu-baseline|":
        "2d4d555abb7b5dfce937e0fd900bdb0366c0e428c3ccfb50cd1f0158b086e9b9",
    "alladi|k=4,l=3":
        "e3b8750b4fd14ec5b1068cfdc8499c2dbb09c4d706df47610901845a4df36037",
    "ramanujan-alladi|k=3,l=2,m=6":
        "1bb34ccd6211c807509808ef462d7bb1809797eb9573e8fa9717f69be2f00e6a",
    "ramanujan-alladi|k=4,l=1,m=360":
        "2b45e012d7de8bf9a45fc71bc2688c8b769f26bd8075e8c0ff579d6642c988b7",
    "mu-mn|k=3,l=1,m=2":
        "af5e647dbd1024c2016e8fc7abc01fd3f32ebfc08926553afab4748293ce1e5e",
    "mu-mn|k=4,l=3,m=30":
        "8d9dc7eb9ffd10590f779f5ec50e5974ea111ccbece50f9e7b0b19814b9fc7a9",
    "mertens-restricted|y=3":
        "2813307765707e0db6a2a80ffaa72f3600288f87ab9ff0679eca5a8bf5a68975",
    "mu-over-n-restricted|y=5":
        "fa60fd41d29156f78344831eeddf4851d319b39b8eac3c77b263e994ad25d1a2",
    "weighted-lhs|m=12,weight=table:2=0.5,3=-0.25,7=1.0":
        "34c9547fb04830fa59bbb29b525ca9d0ceb0a0c188f62dc5670b9acf4bed5e72",
    "weighted-lhs|m=6,weight=residue:4,3":
        "8fb2da6e7c7147de77d0330ebbe6b131259272ac1191fb6838fae1adbe0c4895",
    "lpf-density|weight=one":
        "218831f902e547fe5c363216408393436e2300526f148a0cd97a6ab17d21c9f2",
    "lpf-density|weight=residue:4,3":
        "796fc6e13479817cd88afb06018638f12eaf7f69187e7e1a576b9d1979db9358",
    "lpf-density|weight=table:2=0.5,3=-0.25,7=1.0":
        "07a376d7bf03bb0584d523f97fe03e19942f1d0fb18293732edbb5d09a22248d",
    "identity|m=6,weight=one":
        "ca0f4bb32d3940c0a8d99e46a8cdcd1d763004316c9c9e08a48ce6a9ccc853f6",
    "identity|m=12,weight=one":
        "87c2ad1df2f2fb5a177d69e567b0f0a11ed19ee8d7c45c0a60aafe14ddbdca6b",
    "identity|m=30,weight=one":
        "53c6766953d96bf171482146f87e3016b85ebe9ac07241b80f2b17a9d16c990f",
    "identity|m=360,weight=one":
        "bfee5dfbe627533bc01af929368ab12ec2c1b3909e0ca2372538b4f8cf292dbc",
    "identity|m=6,weight=residue:4,3":
        "102b5a5888aab463fc0006bb578a77b93d7ddd297ebda4e7b4cc802e924369d7",
    "identity|m=12,weight=residue:4,3":
        "102b5a5888aab463fc0006bb578a77b93d7ddd297ebda4e7b4cc802e924369d7",
    "identity|m=30,weight=residue:4,3":
        "ed44fc9c8357b77cb4603c29187cd78fea0382c23709d738544321675e25d3eb",
    "identity|m=360,weight=residue:4,3":
        "7fdc720056f5ce11747c1a5abfbfc52ea3e3e09ad8e14118a61d46b23054bc84",
    "identity|m=6,weight=table:2=0.5,3=-0.25,7=1":
        "381e9874f73c34766344c1973d0e2b08acff998709413a3cc0055511d150c9d2",
    "identity|m=12,weight=table:2=0.5,3=-0.25,7=1":
        "768ab003ff335e4fd94f4f9a8d17795caa3325c25d39e2483a67920d3fbeffb9",
    "identity|m=30,weight=table:2=0.5,3=-0.25,7=1":
        "2cf811325a429566557b7015625e668636bfd476b64996fc2103abf0d6d6e988",
    "identity|m=360,weight=table:2=0.5,3=-0.25,7=1":
        "ab5c06d6514e1386a3107435405dd63ce5fa754f62329d72f37befaecc92b948",
}


@pytest.fixture(scope="module")
def table():
    return build_spf_table(CHECKPOINTS[-1])


@pytest.mark.parametrize("kind, params", SERIES, ids=[series_key(*s) for s in SERIES])
def test_series_rows_keep_their_bits(table, kind, params):
    assert series_digest(table, kind, params) == PINNED[series_key(kind, params)]


@pytest.mark.parametrize("m", IDENTITY_M)
@pytest.mark.parametrize("name", list(WEIGHTS))
def test_identity_sides_keep_their_bits(table, m, name):
    assert identity_digest(table, m, WEIGHTS[name]) == PINNED[f"identity|m={m},weight={name}"]
