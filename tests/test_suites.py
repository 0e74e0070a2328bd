from __future__ import annotations

import hashlib

import pytest

from agendalab import ValidationError
from agendalab.factories import gfa_corpus
from agendalab.suites import SUITES, ExperimentDescriptor, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError):
        ExperimentDescriptor(suite="thm99")


@pytest.mark.parametrize("delta", ["3/2", "0", "-1/20"])
def test_delta_share_outside_the_unit_interval_rejected(delta):
    # a share of the setter's spread: above 1, no policy falls that far short
    with pytest.raises(ValidationError, match="^delta: "):
        ExperimentDescriptor(suite="thm2_trend", delta=delta)


def test_delta_share_one_runs():
    record = run_suite(ExperimentDescriptor(suite="thm2_trend", delta="1", samples=2))
    assert record.summary["failed"] == 0


def test_degenerate_corpus_refused():
    # a corpus draws 2..max_policies policies per problem
    with pytest.raises(ValidationError, match="max_policies 1"):
        gfa_corpus(3, seed=1, max_policies=1)


def test_fixture_suite_passes():
    record = run_suite(ExperimentDescriptor(suite="fixtures"))
    assert record.summary["failed"] == 0
    assert record.summary["rows"] == 12


def test_lemma1_suite_zero_samples_vacuous():
    record = run_suite(ExperimentDescriptor(suite="lemma1", samples=0))
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
        record = run_suite(ExperimentDescriptor(suite=suite, **kwargs))
        assert record.summary["failed"] == 0, (suite, record.rows)


def test_record_files_written(tmp_path):
    record = run_suite(ExperimentDescriptor(suite="fixtures",
                                            out_dir=str(tmp_path)))
    assert record.summary["failed"] == 0
    assert (tmp_path / "fixtures.csv").exists()
    assert (tmp_path / "fixtures.json").exists()
    assert (tmp_path / "fixtures.meta.json").exists()
    header = (tmp_path / "fixtures.csv").read_text().splitlines()[0]
    assert header == "instance,default,rounds,expected,engine,oracle,pass"


# sha256 of the CSV and JSON bodies (not meta.json, which holds timings) of
# every experiment suite, generated before the compiled majority relation
# replaced the per-voter loops: a speed-up that changes an output is a bug.
_BODY_DIGESTS = {
    "fixtures": ({},
        "7778b4550ad604e52acb36e9e0a5b6ea8a772a3093025e9f6d147f3e184b7e2f",
        "0eff6509892cd1d7b03694be9806ac3f0ce5963be9e24c97899c264f7fbe22cd"),
    "lemma1": ({"samples": 6},
        "a8f22518f5a872a2174aa8f8facc1491c831ac9bfee9cf832cdadbc327cdb863",
        "990f2b08e176f4e52591e78ba2f707e584fbc8bffab83fb1690e125d9e5aadaa"),
    "thm1": ({"samples": 6},
        "6b0cd92e8dc430cc6373a8850bbf34f2cf0aa5a5ef3842419a99f43eff661cca",
        "b6393b0e91e6864107ba3382fe5cc64e1fdfdb949d5182e6dfcd94d04997c7dc"),
    "thm2_trend": ({},
        "05b02e42552685db7dc186b029935f569bac3184449d0ed603ac02cff449ef5b",
        "64b7a04759594f36b70be72c09bfe1f11056f1ca928d0a2869dac287b43585e3"),
    "thm3_bounds": ({"samples": 5},
        "4ca9c315c21750dcbaebb5fd57c6f079b3e5367688160ccc8986552d34288648",
        "196319bc0dd78ae22f110bd1fd6340754648d37e1b6aa16a52d3a76060131a3b"),
    "thm4_mc": ({"samples": 50},
        "bb5753b0bb44dfdb42f7700fbddea33b982580070c4f69f3b4b5d16aa5697d5a",
        "5b9426a50df91a4c072dfbb183f3069d36f8e87c74e9b2be0c5e49c1eeb38e39"),
    "thm4_witness": ({"samples": 2},
        "571a2a9861ec1a08bff039949b9402b7ebc53dc60a273064aa00f6ef2c7b2b48",
        "84241a9afdfc526a9f6ed33a56747fd83820b406a2c270f50c83d15aa652b054"),
    "thm5": ({"samples": 4},
        "f418d177ce2b250966a535eeb8773ee77676cdadcff4133d3e8131d430f13f36",
        "a5f3ef6d5e0e7cfd9b94cfd6d873bb2dcf968f46165388e545f26a58a31266c0"),
    "thm6_7_dtd": ({},
        "f4be937134c6db7869882d5b72bc34ad05c14ca6671ec22a44e1545118faec85",
        "db6fce25d24888b17cd63ef58ce49ff2566416f6ce39d461609e05cd60fcced7"),
    "thm8": ({"samples": 6},
        "17f47fe4bafdd71372a46e1dbce6f9ec67c965e4ea79dba9f1529f9eeae37d89",
        "b0631b7fdeb429558ecd690c213aa9af55b4f005e799c0439989b1507600d87e"),
}


@pytest.mark.parametrize("suite", sorted(_BODY_DIGESTS))
def test_suite_bodies_match_golden_digests(suite, tmp_path):
    kwargs, csv_digest, json_digest = _BODY_DIGESTS[suite]
    run_suite(ExperimentDescriptor(suite=suite, out_dir=str(tmp_path), **kwargs))
    bodies = [(tmp_path / f"{suite}.{ext}").read_bytes() for ext in ("csv", "json")]
    assert [hashlib.sha256(b).hexdigest() for b in bodies] == [csv_digest, json_digest]


def test_every_suite_is_pinned():
    assert sorted(_BODY_DIGESTS) == sorted(SUITES)
