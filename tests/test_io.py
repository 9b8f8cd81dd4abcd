import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbqc.alist_io import (
    AlistFormatError,
    detect_variant,
    load_matrix_file,
    parse_full,
    parse_qc,
    serialize_full,
    serialize_qc,
)
from nbqc.base_graph import BaseMatrix
from nbqc.gf import GF
from helpers import example_lifting, random_lifting
from nbqc.lifter import Lifting

F4 = GF(2)
F16 = GF(4)


def random_small_lifting(rng):
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    bits = (rng.random((m, n)) < 0.6).astype(int)
    bits[rng.integers(0, m), rng.integers(0, n)] = 1
    s = int(rng.integers(2, 9))
    field = F16 if rng.integers(0, 2) else F4
    return random_lifting(rng, BaseMatrix(bits), s, field)


def assert_same_lifting(got: Lifting, want: Lifting) -> None:
    assert (got.base, got.s, got.field) == (want.base, want.s, want.field)
    assert np.array_equal(got.beta, want.beta)
    assert np.array_equal(got.shift, want.shift)


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
    assert_same_lifting(again, lifting)
    assert np.array_equal(again.expand(), lifting.expand())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_qc_round_trip_random(seed):
    lifting = random_small_lifting(np.random.default_rng(seed))
    text = serialize_qc(lifting)
    again = parse_qc(text)
    assert_same_lifting(again, lifting)
    assert serialize_qc(again) == text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_qc_records_in_any_order(seed):
    rng = np.random.default_rng(seed)
    lines = serialize_qc(random_small_lifting(rng)).splitlines()
    records = lines[3:]
    rng.shuffle(records)
    shuffled = parse_qc("\n".join(lines[:3] + records) + "\n")
    assert_same_lifting(shuffled, parse_qc("\n".join(lines) + "\n"))


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
    with pytest.raises(AlistFormatError, match="^line 3: no edge records$"):
        parse_qc("nbalist qc\npoly 7\n2 3 3 4\n")
    with pytest.raises(AlistFormatError, match="^line 4: no edge records$"):
        parse_qc("nbalist qc\npoly 7\n# comment\n2 3 3 4\n")
    # numpy refuses the (m, n) base before allocating it
    huge = "nbalist qc\npoly 7\n10000000000 10000000000 2 4\n1 1 0 1\n"
    with pytest.raises(
        AlistFormatError,
        match="^line 3: 10000000000 x 10000000000 base does not fit in memory$",
    ):
        parse_qc(huge)


def test_qc_comments_and_blank_lines_ignored():
    text = serialize_qc(example_lifting())
    noisy = "# compact lifting\n" + text.replace("\n", "\n# note\n\n", 1)
    assert_same_lifting(parse_qc(noisy), example_lifting())


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
    lifting = random_small_lifting(np.random.default_rng(seed))
    h = lifting.expand()
    field, parsed = parse_full(serialize_full(lifting.field, h))
    assert field == lifting.field
    assert np.array_equal(parsed, h)


def test_compact_and_full_expand_identically():
    rng = np.random.default_rng(17)
    for _ in range(20):
        lifting = random_small_lifting(rng)
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


def test_full_rejects_row_view_that_drops_entries():
    # row 2 declared empty, while column 2 lists it
    lines = serialize_full(F4, np.array([[1, 2], [0, 3]])).splitlines()
    assert lines[5] == "2 1" and lines[-1] == "2 3"
    lines[5], lines[-1] = "2 0", "0"
    with pytest.raises(
        AlistFormatError, match=r"^line 10: row view disagrees with column view at \(2,2\)"
    ):
        parse_full("\n".join(lines) + "\n")


def test_full_rejects_row_line_repeating_an_entry():
    lines = serialize_full(F4, np.array([[1, 2], [0, 3]])).splitlines()
    assert lines[-2] == "1 1 2 2"
    lines[-2] = "1 1 1 1"
    with pytest.raises(AlistFormatError, match="^line 9: row 1 repeats column 1"):
        parse_full("\n".join(lines) + "\n")


def test_full_too_large_to_hold_names_the_dimensions_line(monkeypatch):
    # 3000 columns and 2000 rows, no edges; the allocation is made to fail
    # here rather than requested for real, which overcommit could grant
    text = "nbalist full\npoly 7\n3000 2000 4\n0 0\n"
    text += " ".join(["0"] * 3000) + "\n" + " ".join(["0"] * 2000) + "\n" + "0\n" * 5000
    real_zeros = np.zeros

    def zeros(shape, *args, **kwargs):
        if np.prod(shape) >= 2000 * 3000:
            raise MemoryError("Unable to allocate")
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    with pytest.raises(
        AlistFormatError, match="^line 3: 2000 x 3000 matrix does not fit in memory$"
    ):
        parse_full(text)


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
# dispatch
# ----------------------------------------------------------------------
def test_detect_variant():
    assert detect_variant(serialize_qc(example_lifting())) == "qc"
    assert detect_variant(serialize_full(F4, example_lifting().expand())) == "full"
    assert detect_variant("2 2\n1 1\n1 1\n") == "base"


def test_load_matrix_file_dispatch(tmp_path):
    lifting = example_lifting()
    qc = tmp_path / "l.alist"
    qc.write_text(serialize_qc(lifting))
    assert_same_lifting(load_matrix_file(qc), lifting)

    full = tmp_path / "f.alist"
    full.write_text(serialize_full(F4, lifting.expand()))
    field, h = load_matrix_file(full)
    assert field == F4 and np.array_equal(h, lifting.expand())

    base = tmp_path / "b.txt"
    base.write_text(lifting.base.to_text())
    assert load_matrix_file(base) == lifting.base

