import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbqc.alist_io import (
    AlistFormatError,
    RunManifest,
    detect_variant,
    load_matrix_file,
    parse_full,
    parse_qc,
    serialize_full,
    serialize_qc,
)
from nbqc.base_graph import BaseMatrix
from nbqc.gf import GF
from nbqc.lifter import Lifting, Monomial

F4 = GF(2)
F16 = GF(4)


def example_lifting():
    base = BaseMatrix([[0, 1, 1], [1, 0, 1]])
    return Lifting(
        base,
        3,
        F4,
        {
            (0, 1): Monomial(1, 2),
            (0, 2): Monomial(2, 1),
            (1, 0): Monomial(1, 0),
            (1, 2): Monomial(3, 2),
        },
    )


def random_lifting(rng):
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    bits = (rng.random((m, n)) < 0.6).astype(int)
    bits[rng.integers(0, m), rng.integers(0, n)] = 1
    base = BaseMatrix(bits)
    s = int(rng.integers(2, 9))
    field = F16 if rng.integers(0, 2) else F4
    assignment = {
        pos: Monomial(int(rng.integers(1, field.q)), int(rng.integers(0, s)))
        for pos in base.ones()
    }
    return Lifting(base, s, field, assignment)


# ----------------------------------------------------------------------
# compact quasi-cyclic records
# ----------------------------------------------------------------------
def test_qc_records_of_reference_lifting():
    text = serialize_qc(example_lifting())
    lines = text.strip().splitlines()
    assert lines[0] == "nbalist qc"
    assert lines[1] == "poly 7"
    assert lines[2] == "2 3 3 4"
    assert lines[3:] == ["1 2 2 1", "1 3 1 2", "2 1 0 1", "2 3 2 3"]


def test_qc_round_trip_reference():
    lifting = example_lifting()
    again = parse_qc(serialize_qc(lifting))
    assert again == lifting
    assert np.array_equal(again.expand(), lifting.expand())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_qc_round_trip_random(seed):
    lifting = random_lifting(np.random.default_rng(seed))
    assert parse_qc(serialize_qc(lifting)) == lifting


def test_qc_parse_errors_carry_line_numbers():
    good = serialize_qc(example_lifting())
    with pytest.raises(AlistFormatError):
        parse_qc("")
    with pytest.raises(AlistFormatError, match="header"):
        parse_qc("nbalist full\n" + good.split("\n", 1)[1])
    with pytest.raises(AlistFormatError, match="line 4"):
        parse_qc(good.replace("1 2 2 1", "1 9 2 1"))
    with pytest.raises(AlistFormatError, match="line 4"):
        parse_qc(good.replace("1 2 2 1", "1 2 7 1"))  # shift >= s
    with pytest.raises(AlistFormatError, match="line 4"):
        parse_qc(good.replace("1 2 2 1", "1 2 2 0"))  # zero coefficient
    with pytest.raises(AlistFormatError, match="duplicate"):
        parse_qc(good + "1 2 0 1\n")
    with pytest.raises(AlistFormatError):
        parse_qc("nbalist qc\npoly 7\n2 3 3 4\n")  # no edges


def test_qc_comments_and_blank_lines_ignored():
    text = serialize_qc(example_lifting())
    noisy = "# compact lifting\n" + text.replace("\n", "\n# note\n\n", 1)
    assert parse_qc(noisy) == example_lifting()


# ----------------------------------------------------------------------
# full adjacency format
# ----------------------------------------------------------------------
def test_full_round_trip_reference():
    lifting = example_lifting()
    h = lifting.expand()
    field, parsed = parse_full(serialize_full(F4, h))
    assert field == F4
    assert np.array_equal(parsed, h)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_full_round_trip_random(seed):
    lifting = random_lifting(np.random.default_rng(seed))
    h = lifting.expand()
    field, parsed = parse_full(serialize_full(lifting.field, h))
    assert field == lifting.field
    assert np.array_equal(parsed, h)


def test_compact_and_full_expand_identically():
    rng = np.random.default_rng(17)
    for _ in range(20):
        lifting = random_lifting(rng)
        via_qc = parse_qc(serialize_qc(lifting)).expand()
        _, via_full = parse_full(serialize_full(lifting.field, lifting.expand()))
        assert np.array_equal(via_qc, via_full)


def test_full_parse_errors():
    h = example_lifting().expand()
    good = serialize_full(F4, h)
    with pytest.raises(AlistFormatError, match="row view disagrees"):
        broken = good.splitlines()
        # tamper with a code in the row-view section
        broken[-1] = broken[-1].replace("3", "2", 1)
        parse_full("\n".join(broken) + "\n")
    with pytest.raises(AlistFormatError, match="adjacency lines"):
        parse_full("\n".join(good.splitlines()[:-2]) + "\n")
    with pytest.raises(AlistFormatError):
        parse_full("")
    for line, bad, match in (
        ("9 6 4", "-1 2 4", "^line 3: non-positive dimensions"),
        ("9 6 4", "9 0 4", "^line 3: non-positive dimensions"),
        ("2 2", "3 2", "^line 4: declared maximum degrees"),
    ):
        with pytest.raises(AlistFormatError, match=match):
            parse_full(good.replace(line, bad, 1))


def test_bad_poly_line_is_line_numbered():
    lifting = example_lifting()
    for parse, good, dims in (
        (parse_full, serialize_full(F4, lifting.expand()), "9 6 4"),
        (parse_qc, serialize_qc(lifting), "2 3 3 4"),
    ):
        with pytest.raises(AlistFormatError, match="^line 2: "):
            parse(good.replace("poly 7", "poly x7", 1))
        # a polynomial GF(4) rejects: not primitive, then the wrong degree
        for poly in ("poly 5", "poly 11"):
            with pytest.raises(AlistFormatError, match="^line 2: .*polynomial"):
                parse(good.replace("poly 7", poly, 1))
        # a field size that is not a power of 2 is reported on its own line
        with pytest.raises(AlistFormatError, match="^line 3: q=3 is not a power of 2"):
            parse(good.replace(dims, dims[:-1] + "3", 1))
        # comment lines shift every number
        with pytest.raises(AlistFormatError, match="^line 3: .*not primitive"):
            parse(good.replace("poly 7", "# field\npoly 5", 1))


def test_serialize_full_validates_range():
    with pytest.raises(ValueError):
        serialize_full(F4, np.array([[4]]))


# ----------------------------------------------------------------------
# dispatch, manifests
# ----------------------------------------------------------------------
def test_detect_variant():
    assert detect_variant(serialize_qc(example_lifting())) == "qc"
    assert detect_variant(serialize_full(F4, example_lifting().expand())) == "full"
    assert detect_variant("2 2\n1 1\n1 1\n") == "base"


def test_load_matrix_file_dispatch(tmp_path):
    lifting = example_lifting()
    qc = tmp_path / "l.alist"
    qc.write_text(serialize_qc(lifting))
    assert load_matrix_file(qc) == lifting

    full = tmp_path / "f.alist"
    full.write_text(serialize_full(F4, lifting.expand()))
    field, h = load_matrix_file(full)
    assert field == F4 and np.array_equal(h, lifting.expand())

    base = tmp_path / "b.txt"
    base.write_text(lifting.base.to_text())
    assert load_matrix_file(base) == lifting.base


def test_manifest_round_trip():
    manifest = RunManifest(
        command="simulate",
        artifact_version="0.1.0",
        seed=42,
        config={"modulation": "bpsk", "snr_db": [1.0, 2.0]},
        inputs={"matrix": {"path": "x.alist", "sha256": "ab" * 32}},
    )
    again = RunManifest.from_json(manifest.to_json())
    assert again == manifest
    assert manifest.to_json() == again.to_json()
