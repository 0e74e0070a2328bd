from __future__ import annotations

import hashlib

import pytest

from agendalab import ValidationError
from agendalab.factories import gfa_corpus
from agendalab.suites import SUITES, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError, match="unknown suite 'thm99'"):
        run_suite("thm99")


@pytest.mark.parametrize("delta", ["3/2", "0", "-1/20"])
def test_delta_share_outside_the_unit_interval_rejected(delta):
    # a share of the setter's spread: above 1, no policy falls that far short
    with pytest.raises(ValidationError, match="^delta: "):
        run_suite("thm2_trend", delta=delta)


@pytest.mark.parametrize("suite, params", [
    ("fixtures", {"epsilon": "1/3"}),
    ("thm6_7_dtd", {"seed": 9, "samples": 3}),
    ("lemma1", {"voters": (3,)}),
])
def test_unread_parameter_refused(suite, params):
    with pytest.raises(ValidationError, match=f"^suite {suite} reads no "):
        run_suite(suite, **params)


def test_delta_share_one_runs():
    record = run_suite("thm2_trend", delta="1", samples=2)
    assert record.summary["failed"] == 0


def test_degenerate_corpus_refused():
    # a corpus draws 2..max_policies policies per problem
    with pytest.raises(ValidationError, match="max_policies must be at least 2, not 1"):
        gfa_corpus(3, seed=1, max_policies=1)


def test_fixture_suite_passes():
    record = run_suite("fixtures")
    assert record.summary["failed"] == 0
    assert record.summary["rows"] == 12


def test_lemma1_suite_zero_samples_vacuous():
    record = run_suite("lemma1", samples=0)
    assert record.summary == {"rows": 0, "failed": 0, "passed": 0}


def test_small_suite_roundup():
    for suite, kwargs in [
        ("lemma1", {"samples": 6}),
        ("thm1", {"samples": 6}),
        ("thm3_bounds", {"samples": 5}),
        ("thm4_mc", {"samples": 50}),
        ("thm4_witness", {"samples": 2}),
        ("thm5", {"samples": 4}),
        ("thm6_7_dtd", {}),
        ("thm8", {"samples": 6}),
    ]:
        record = run_suite(suite, **kwargs)
        assert record.summary["failed"] == 0, (suite, record.rows)


def test_thm8_case_a_row_passes():
    # the pinned thm8 run has only case-b rows; seed 9 draws one case-a problem
    record = run_suite("thm8", seed=9, samples=1)
    assert [row["case"] for row in record.rows] == ["a"]
    assert record.rows[0]["pass"] is True and record.summary["failed"] == 0


def test_record_files_written(tmp_path):
    record = run_suite("fixtures", out_dir=str(tmp_path))
    assert record.summary["failed"] == 0
    assert (tmp_path / "fixtures.csv").exists()
    assert (tmp_path / "fixtures.json").exists()
    assert (tmp_path / "fixtures.meta.json").exists()
    header = (tmp_path / "fixtures.csv").read_text().splitlines()[0]
    assert header == "instance,default,rounds,expected,engine,oracle,pass"


# sha256 of the CSV and JSON bodies (not meta.json, which holds timings) of
# every experiment suite, generated before the compiled majority relation
# replaced the per-voter loops: a speed-up that changes an output is a bug.
# The JSON digests were taken again when each descriptor came to list only
# the parameters its suite reads; no row or summary moved.
_BODY_DIGESTS = {
    "fixtures": ({},
        "7778b4550ad604e52acb36e9e0a5b6ea8a772a3093025e9f6d147f3e184b7e2f",
        "404bbca9fa0fb34a36db3ff2d99c37cd91b8c251e20259bd07b234c0fa9a85a2"),
    "lemma1": ({"samples": 6},
        "a8f22518f5a872a2174aa8f8facc1491c831ac9bfee9cf832cdadbc327cdb863",
        "f721830bb8f663a8eee5e91f3ef01cbfabf7fa5f6b323aeb495b6499ba6ae4cf"),
    "thm1": ({"samples": 6},
        "6b0cd92e8dc430cc6373a8850bbf34f2cf0aa5a5ef3842419a99f43eff661cca",
        "e4b21147256246c99558ab3c6361f2215aec6b69024b3d1df254289874a04b19"),
    "thm2_trend": ({},
        "05b02e42552685db7dc186b029935f569bac3184449d0ed603ac02cff449ef5b",
        "3ae2211f60a8efa15052f560013902e1ba625860df1486d67d423fb92ba6e746"),
    "thm3_bounds": ({"samples": 5},
        "4ca9c315c21750dcbaebb5fd57c6f079b3e5367688160ccc8986552d34288648",
        "ecfeb6e95028f2e7706947777d9b20bfde9ad2552258a7e8c6b4b88a8d83f8c5"),
    "thm4_mc": ({"samples": 50},
        "bb5753b0bb44dfdb42f7700fbddea33b982580070c4f69f3b4b5d16aa5697d5a",
        "076b8e89f7f1a7271189c223d42d455903bcf461b83f44fe2ba73755416b5c78"),
    "thm4_witness": ({"samples": 2},
        "571a2a9861ec1a08bff039949b9402b7ebc53dc60a273064aa00f6ef2c7b2b48",
        "9e338bfaed4ec34d2ac212afa76de0cf505fa3fb341af5ea33b3ae09c6d0b7aa"),
    "thm5": ({"samples": 4},
        "f418d177ce2b250966a535eeb8773ee77676cdadcff4133d3e8131d430f13f36",
        "e67692edb1917866bd916f1b76b81e6dedbffa2ac7ffd6ac2df36d8631198a31"),
    "thm6_7_dtd": ({},
        "f4be937134c6db7869882d5b72bc34ad05c14ca6671ec22a44e1545118faec85",
        "99fde110d64eaa84a5ad6c46b9bad9471413195b70af953d9c77c7e3721b5a6c"),
    "thm8": ({"samples": 6},
        "17f47fe4bafdd71372a46e1dbce6f9ec67c965e4ea79dba9f1529f9eeae37d89",
        "559c1360b68f9554afc1c834e9ce49cfabd892ab6f625bc363b76cc2fd3fe45a"),
}


@pytest.mark.parametrize("suite", sorted(_BODY_DIGESTS))
def test_suite_bodies_match_golden_digests(suite, tmp_path):
    kwargs, csv_digest, json_digest = _BODY_DIGESTS[suite]
    run_suite(suite, out_dir=str(tmp_path), **kwargs)
    bodies = [(tmp_path / f"{suite}.{ext}").read_bytes() for ext in ("csv", "json")]
    assert [hashlib.sha256(b).hexdigest() for b in bodies] == [csv_digest, json_digest]


def test_every_suite_is_pinned():
    assert sorted(_BODY_DIGESTS) == sorted(SUITES)
