import io
import math

import pytest

from respeval.ner import NerRecord, ner_accuracy, parse_ner_annotations
from respeval.textcore import RespevalInputError

from helpers import make_rng


def test_severity_weights():
    assert NerRecord(10, minor=1).weighted_edition_errors == 0.25
    assert NerRecord(10, standard=1).weighted_edition_errors == 0.5
    assert NerRecord(10, serious=1).weighted_edition_errors == 1.0


def test_record_checks_itself_when_built():
    for fields, message in (
        ({"minor": -1}, "edition error counts must be non-negative"),
        ({"recognition_errors": math.nan}, "recognition errors must be a finite number >= 0, got nan"),
        ({"original_length": 0}, "original length must be positive, got 0"),
        ({"subtitle_length": -1}, "subtitle length must be >= 0, got -1"),
        ({"serious": 2, "recognition_errors": 9.5}, r"E \+ R = 11.5 > N = 10"),
    ):
        with pytest.raises(RespevalInputError, match=message):
            NerRecord(10, **fields)
    assert NerRecord(10, 1, 2, 3, 4.75, 12, 10) == NerRecord(
        tokens=10, minor=1, standard=2, serious=3, recognition_errors=4.75,
        original_length=12, subtitle_length=10,
    )


def test_accuracy_error_free():
    assert ner_accuracy(NerRecord(100)) == 100.0


def test_accuracy_one_serious_one_recognition():
    assert ner_accuracy(NerRecord(100, serious=1, recognition_errors=1)) == 98.0


def test_accuracy_weighted_mix():
    # two minor (0.5) + one standard (0.5) edition errors and R = 1
    assert ner_accuracy(NerRecord(200, minor=2, standard=1, recognition_errors=1)) == 99.0


def test_accuracy_rejects_zero_tokens():
    with pytest.raises(RespevalInputError, match="token count must be positive, got 0"):
        ner_accuracy(NerRecord(0))


def test_accuracy_rejects_errors_exceeding_tokens():
    with pytest.raises(RespevalInputError, match="errors exceed token count"):
        ner_accuracy(NerRecord(2, serious=2, recognition_errors=1))


def test_accuracy_strictly_decreasing_per_error_kind():
    base = ner_accuracy(NerRecord(50, 1, 1, 1, 1))
    assert ner_accuracy(NerRecord(50, 2, 1, 1, 1)) < base
    assert ner_accuracy(NerRecord(50, 1, 2, 1, 1)) < base
    assert ner_accuracy(NerRecord(50, 1, 1, 2, 1)) < base
    assert ner_accuracy(NerRecord(50, 1, 1, 1, 2)) < base


def test_accuracy_scale_invariance():
    rng = make_rng(30)
    for _ in range(100):
        n = rng.randint(20, 500)
        minor = rng.randint(0, 5)
        standard = rng.randint(0, 5)
        serious = rng.randint(0, 5)
        r = rng.randint(0, 5)
        scale = rng.randint(2, 9)
        base = ner_accuracy(NerRecord(n, minor, standard, serious, r))
        scaled = ner_accuracy(
            NerRecord(n * scale, minor * scale, standard * scale, serious * scale, r * scale)
        )
        assert scaled == pytest.approx(base, abs=1e-9)


def test_accuracy_minor_error_costs_25_over_n():
    for n in (40, 100, 250):
        delta = ner_accuracy(NerRecord(n)) - ner_accuracy(NerRecord(n, minor=1))
        assert delta == pytest.approx(25.0 / n, abs=1e-12)


def lengths(original, subtitle):
    return NerRecord(10, original_length=original, subtitle_length=subtitle)


def test_reduction_rate_examples():
    assert lengths(100, 90).reduction_rate == 10.0
    assert lengths(100, 100).reduction_rate == 0.0
    # negative when the subtitle is longer than its source
    assert lengths(100, 101).reduction_rate == -1.0
    assert lengths(500, 533).reduction_rate == pytest.approx(-6.6)


def test_reduction_rate_needs_both_lengths():
    assert NerRecord(10).reduction_rate is None
    assert lengths(100, None).reduction_rate is None
    assert lengths(None, 90).reduction_rate is None


def test_reduction_rate_rejects_zero_original():
    with pytest.raises(RespevalInputError, match="original length must be positive, got 0"):
        lengths(0, 5)


def test_reduction_rate_rejects_negative_subtitle_and_keeps_zero():
    with pytest.raises(RespevalInputError, match="subtitle length must be >= 0, got -5"):
        lengths(120, -5)
    assert lengths(120, 0).reduction_rate == 100.0
    assert lengths(1, 0).reduction_rate == 100.0


HEADER = "N,minor_count,standard_count,serious_count,R_weighted"


def test_parse_error_free_row():
    records = parse_ner_annotations(io.StringIO(f"{HEADER}\n100,0,0,0,0\n"))
    assert len(records) == 1
    assert records[0].weighted_edition_errors == 0.0
    assert records[0].recognition_errors == 0.0


def test_parse_weighted_row():
    records = parse_ner_annotations(io.StringIO(f"{HEADER}\n200,2,1,0,1\n"))
    assert records[0].weighted_edition_errors == 1.0
    assert records[0].recognition_errors == 1.0


def test_parse_rejects_zero_tokens_with_line_number():
    with pytest.raises(RespevalInputError, match="^line 2: token count must be positive"):
        parse_ner_annotations(io.StringIO(f"{HEADER}\n0,0,0,0,0\n"))


def test_parse_requires_header():
    with pytest.raises(RespevalInputError, match="^line 1: header must start with"):
        parse_ner_annotations(io.StringIO("100,0,0,0,0\n"))


def test_parse_rejects_bad_field_with_line_number():
    with pytest.raises(RespevalInputError, match="^line 3: column 'minor_count' must be an integer"):
        parse_ner_annotations(io.StringIO(f"{HEADER}\n100,0,0,0,0\n80,x,0,0,0\n"))


def test_parse_header_only_is_empty():
    assert parse_ner_annotations(io.StringIO(f"{HEADER}\n")) == []


def test_parse_optional_reduction_columns():
    text = f"{HEADER},original_tokens,subtitle_tokens\n100,0,0,0,0,120,100\n"
    records = parse_ner_annotations(io.StringIO(text))
    assert records[0].original_length == 120
    assert records[0].subtitle_length == 100


def test_parse_rejects_negative_subtitle_length_and_keeps_zero():
    header = f"{HEADER},original_tokens,subtitle_tokens\n"
    with pytest.raises(RespevalInputError, match="^line 3: subtitle length must be >= 0, got -5"):
        parse_ner_annotations(io.StringIO(f"{header}100,0,0,0,0,120,100\n100,0,0,0,0,120,-5\n"))
    record = parse_ner_annotations(io.StringIO(f"{header}100,0,0,0,0,120,0\n"))[0]
    assert record.reduction_rate == 100.0


def test_parse_chars_columns_selected_by_flag():
    text = f"{HEADER},original_chars,subtitle_chars\n100,0,0,0,0,600,480\n"
    assert parse_ner_annotations(io.StringIO(text))[0].original_length is None
    records = parse_ner_annotations(io.StringIO(text), use_chars=True)
    assert records[0].original_length == 600
    assert records[0].subtitle_length == 480


def test_parse_rejects_unknown_column():
    with pytest.raises(RespevalInputError, match="^line 1: unknown column 'bogus'"):
        parse_ner_annotations(io.StringIO(f"{HEADER},bogus\n1,0,0,0,0,1\n"))


def test_parse_skips_blank_lines_before_header():
    records = parse_ner_annotations(io.StringIO(f"\n , \n{HEADER}\n\n100,0,0,0,0\n"))
    assert [record.tokens for record in records] == [100]
    with pytest.raises(RespevalInputError, match="^line 3: unknown column 'bogus'"):
        parse_ner_annotations(io.StringIO(f"\n\n{HEADER},bogus\n1,0,0,0,0,1\n"))


def test_parse_rejects_repeated_column():
    with pytest.raises(RespevalInputError, match="^line 1: duplicate column 'N'$"):
        parse_ner_annotations(io.StringIO(f"{HEADER},N\n100,0,0,0,0,100\n"))


def test_parse_from_path(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text(f"{HEADER}\n50,1,0,0,0.5\n", encoding="utf-8")
    records = parse_ner_annotations(path)
    assert ner_accuracy(records[0]) == pytest.approx((50 - 0.25 - 0.5) / 50 * 100)
