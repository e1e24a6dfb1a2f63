import json
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgforge import InvariantFactors, ValidationError, cayley_table, derive_cube, rat
from hgforge.groups import DEFAULT_ORDER_CAP
from hgforge.formats import (
    MAX_OPERAND_DIGITS,
    FormatError,
    cube_to_document,
    group_to_document,
    load_cube,
    load_group,
    load_measure,
    measure_to_document,
    parse_cube_document,
    parse_group_document,
    parse_measure_document,
    parse_scalar,
    scalar_to_json,
    serialize,
    write_document,
)
from oracles import int_planes, oracle_load


class TestScalars:
    def test_int(self):
        assert parse_scalar(1, "x") == rat(1)

    def test_fraction_string(self):
        assert parse_scalar("3/4", "x") == rat(3, 4)

    def test_decimal_string(self):
        assert parse_scalar("0.75", "x") == rat(3, 4)
        assert parse_scalar("0.1", "x") == rat(1, 10)

    def test_bare_float_rejected_with_guidance(self):
        with pytest.raises(FormatError, match="quote"):
            parse_scalar(0.75, "entries[0][0][0]")

    def test_boolean_rejected(self):
        with pytest.raises(FormatError):
            parse_scalar(True, "x")

    def test_unparseable_string(self):
        with pytest.raises(FormatError, match="x"):
            parse_scalar("three quarters", "x")

    def test_zero_denominator_string(self):
        with pytest.raises(FormatError):
            parse_scalar("1/0", "x")

    def test_exponent_at_the_bound(self):
        assert parse_scalar("1e-4300", "x") == Fraction(1, 10**4300)
        assert parse_scalar("1E+4300", "x") == 10**4300
        assert parse_scalar("2.5e-0004300", "x") == Fraction(25, 10**4301)

    def test_exponent_past_the_bound(self):
        for text in ("1e-4301", "1E+4301", "0.5e4301", "1e-3000000", "1e+3000000", "1e" + "9" * 5000):
            with pytest.raises(FormatError, match="exponent"):
                parse_scalar(text, "x")

    def test_canonical_output(self):
        assert scalar_to_json(rat(3, 4)) == "3/4"
        assert scalar_to_json(rat(2, 4)) == "1/2"
        assert scalar_to_json(rat(2)) == 2
        assert scalar_to_json(rat(0)) == 0


class TestCubeDocuments:
    def test_round_trip(self, z2_cube):
        doc = cube_to_document(z2_cube)
        assert parse_cube_document(json.loads(serialize(doc))) == z2_cube

    def test_round_trip_big_denominators(self):
        from hgforge import validate_cube

        big = 10**9 + 7
        cube = validate_cube(
            [
                [[rat(1, big), rat(big - 1, big)], [rat(big - 1, big), rat(1, big)]],
                [[rat(big - 1, big), rat(1, big)], [rat(1, big), rat(big - 1, big)]],
            ]
        )
        assert parse_cube_document(json.loads(serialize(cube_to_document(cube)))) == cube

    def test_shape_mismatch_is_format_error(self):
        with pytest.raises(FormatError, match="entries"):
            parse_cube_document({"n": 2, "entries": [[[1, 0], [0, 1]]]})

    def test_missing_n(self):
        with pytest.raises(FormatError, match='"n"'):
            parse_cube_document({"entries": []})

    def test_error_location_in_message(self):
        doc = {"n": 2, "entries": [[[1, 0], [0, 1]], [[0, 1], ["1/3", 0.5]]]}
        with pytest.raises(FormatError, match=r"entries\[1\]\[1\]\[1\]"):
            parse_cube_document(doc)

    def test_validation_violations_pass_through(self):
        doc = {"n": 2, "entries": [[["1/2", "2/5"], [0, 1]], [[0, 1], [1, 0]]]}
        with pytest.raises(ValidationError):
            parse_cube_document(doc)


class TestOperandDigits:
    """The common denominator D and every numerator over D are bounded."""

    def test_bound_leaves_room_for_witnesses_over_d_squared(self):
        assert 2 * MAX_OPERAND_DIGITS <= 4300

    def test_denominator_at_the_bound(self):
        d = 10**MAX_OPERAND_DIGITS - 1
        cube = parse_cube_document({"n": 1, "entries": [[[f"{d}/{d}"]]]})
        assert cube.entries[0][0][0] == 1
        values = [f"1/{d}", f"{d - 1}/{d}"]
        assert parse_measure_document({"n": 2, "values": values}).values == (rat(1, d), rat(d - 1, d))

    def test_denominator_past_the_bound(self):
        for entry in ("1e-4300", f"1/{10**MAX_OPERAND_DIGITS}"):
            with pytest.raises(FormatError, match="common denominator exceeds"):
                parse_cube_document({"n": 1, "entries": [[[entry]]]})
        with pytest.raises(FormatError, match="common denominator exceeds"):
            parse_measure_document({"n": 1, "values": ["1e-4300"]})

    def test_common_denominator_is_the_lcm(self):
        # each denominator is short; their lcm is not
        half = MAX_OPERAND_DIGITS // 2 + 1
        a, b = 10**half + 1, 10**half + 3
        entries = [[[f"1/{a}", f"{a - 1}/{a}"], [0, 1]], [[0, 1], [f"1/{b}", f"{b - 1}/{b}"]]]
        doc = {"n": 2, "entries": entries}
        with pytest.raises(FormatError, match="common denominator exceeds"):
            parse_cube_document(doc)

    def test_numerator_past_the_bound(self):
        for entry in ("1e4300", 10**MAX_OPERAND_DIGITS, -(10**MAX_OPERAND_DIGITS)):
            with pytest.raises(FormatError, match="numerator"):
                parse_cube_document({"n": 1, "entries": [[[entry]]]})
        # a small value over a wide common denominator widens its numerator
        d = 10 ** (MAX_OPERAND_DIGITS - 1) + 1
        doc = {"n": 2, "entries": [[[f"1/{d}", f"{d - 1}/{d}"], [0, 1]], [[0, 1], [11, -10]]]}
        with pytest.raises(FormatError, match="numerator"):
            parse_cube_document(doc)


class TestCubeOrderCap:
    """A cube's order is bounded by the group-order cap, before any scalar is parsed."""

    def test_order_past_the_cap_refused_before_any_scalar(self, monkeypatch):
        import hgforge.formats as formats

        def no_scalar(*args):
            raise AssertionError("a scalar was parsed")

        monkeypatch.setattr(formats, "parse_scalar", no_scalar)
        n = DEFAULT_ORDER_CAP + 1
        message = f"n: cube order {n} exceeds the cap {DEFAULT_ORDER_CAP}"
        for entries in ([], [[["1/2"]]]):
            with pytest.raises(FormatError, match=re.escape(message)):
                parse_cube_document({"n": n, "entries": entries})

    def test_order_at_the_cap_reaches_the_entries_check(self):
        with pytest.raises(FormatError, match=re.escape(f"entries: expected {DEFAULT_ORDER_CAP} items, found 0")):
            parse_cube_document({"n": DEFAULT_ORDER_CAP, "entries": []})

    def test_path_and_cap_in_the_file_error(self, tmp_path):
        path = tmp_path / "cube.json"
        path.write_text('{"n": 257, "entries": []}')
        with pytest.raises(FormatError) as err:
            load_cube(path)
        assert str(err.value) == f"{path}: n: cube order 257 exceeds the cap 256"


class TestOneLoadingPass:
    def test_json_ints_are_not_parsed(self, monkeypatch):
        import hgforge.formats as formats

        parsed = []

        def counting(value, where):
            parsed.append(where)
            return parse_scalar(value, where)

        monkeypatch.setattr(formats, "parse_scalar", counting)
        doc = {"n": 2, "entries": [[["1/2", "0.5"], [0, 1]], [[1, 0], ["5e-1", "2/4"]]]}
        cube = parse_cube_document(doc)
        assert parsed == ["entries[0][0][0]", "entries[0][0][1]", "entries[1][1][0]", "entries[1][1][1]"]
        assert (cube.denominator, int_planes(cube)) == (2, (((1, 1), (0, 2)), ((2, 0), (1, 1))))

    def test_each_distinct_string_is_parsed_once(self, monkeypatch):
        import hgforge.formats as formats

        # a walk on Z_4 x Z_4: three 40-bit "p/q" values, each n^2 times,
        # and JSON-int zeros
        rng = random.Random(16)
        weights = [rng.getrandbits(40) | 1 << 39 for _ in range(3)]
        measure = [rat(w, sum(weights)) for w in weights] + [0] * 13
        cube = derive_cube(cayley_table(InvariantFactors((4, 4))), measure)
        doc = json.loads(serialize(cube_to_document(cube)))
        strings = [x for plane in doc["entries"] for col in plane for x in col if type(x) is not int]
        assert len(strings) == 3 * 16 * 16 and len(set(strings)) == 3
        parsed = []

        def counting(value, where):
            parsed.append(value)
            return parse_scalar(value, where)

        monkeypatch.setattr(formats, "parse_scalar", counting)
        assert parse_cube_document(doc) == cube
        assert sorted(parsed) == sorted(set(strings))

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("true", "expected a number, found a boolean"),
            ("1.0", 'bare floats are inexact; quote the value, e.g. "3/4" or "0.75"'),
        ],
        ids=["bool", "float"],
    )
    def test_column_equal_to_an_earlier_int_column_is_refused_in_place(self, entry, message):
        # [0, true] and [0, 1.0] equal [0, 1] as tuples, yet are no int column
        doc = json.loads('{"n": 2, "entries": [[[1, 0], [0, 1]], [[0, %s], [1, 0]]]}' % entry)
        with pytest.raises(FormatError) as err:
            parse_cube_document(doc)
        assert str(err.value) == f"entries[1][0][1]: {message}"

    def test_a_repeated_bad_column_is_reported_at_each_place(self):
        # [2, -1] at (1, 1) and (2, 2), and 1/2 written two ways at (1, 2)
        # and (2, 1): each is checked once, and reported wherever it stands
        doc = {"n": 2, "entries": [[[2, -1], ["1/2", 0]], [["0.5", 0], [2, -1]]]}
        with pytest.raises(ValidationError) as err:
            parse_cube_document(doc)
        assert [(v.kind, v.indices, v.detail) for v in err.value.violations] == [
            ("negative-entry", (1, 1, 2), "-1"),
            ("column-sum-not-one", (1, 2), "sums to 1/2"),
            ("column-sum-not-one", (2, 1), "sums to 1/2"),
            ("negative-entry", (2, 2, 2), "-1"),
        ]
        assert oracle_load(doc) == ("violations", [(v.kind, v.indices, v.detail) for v in err.value.violations])

    def test_a_derived_cube_holds_one_object_per_distinct_column(self):
        rng = random.Random(4)
        measure = [rat(rng.randrange(1, 100), 1000) for _ in range(15)]
        measure.append(1 - sum(measure))
        cube = derive_cube(cayley_table(InvariantFactors((4, 4))), measure)
        loaded = parse_cube_document(json.loads(serialize(cube_to_document(cube))))
        assert loaded == cube
        assert len(loaded.columns) == 16

    def test_boolean_entry_still_refused(self):
        with pytest.raises(FormatError, match=re.escape("entries[0][0][0]: expected a number, found a boolean")):
            parse_cube_document({"n": 1, "entries": [[[True]]]})

    def test_lcm_stops_at_the_bound(self):
        # each of the 1000 denominators has 2101 digits, under the bound;
        # their full lcm would have over two million
        base = 10**2100
        denominators = iter(base + 2 * k + 1 for k in range(1000))
        entries = [[[f"1/{next(denominators)}" for _ in range(10)] for _ in range(10)] for _ in range(10)]
        start = time.perf_counter()
        with pytest.raises(FormatError, match="entries: the common denominator exceeds 2150 digits"):
            parse_cube_document({"n": 10, "entries": entries})
        assert time.perf_counter() - start < 5


# entries to widen a document with: each tuple alone keeps the operands
# within the bound (one 2150-digit denominator) or pushes D (10**2150, or
# two coprime 1101-digit denominators) or a numerator over D past it
_WIDENINGS = (
    (),
    (Fraction(1, 10**2149 + 1),),
    (Fraction(1, 10**2150),),
    (Fraction(1, 10**1100 + 1), Fraction(1, 10**1100 + 3)),
    (Fraction(10**2150),),
    (Fraction(-(10**2150)),),
    (Fraction(1, 10**2149 + 1), Fraction(11)),
)


def _decimal_text(q, exponent_form):
    """q as an exact decimal string, or None if its expansion does not end."""
    d, twos, fives = q.denominator, 0, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    while d % 5 == 0:
        d, fives = d // 5, fives + 1
    if d != 1:
        return None
    places = max(twos, fives)
    digits = q.numerator * 10**places // q.denominator
    if exponent_form:
        return f"{digits}e-{places}"
    sign, text = ("-" if digits < 0 else ""), str(abs(digits)).rjust(places + 1, "0")
    return sign + (f"{text[:-places]}.{text[-places:]}" if places else text)


@st.composite
def _scalar_text(draw, q):
    form = draw(st.sampled_from(["int", "ratio", "scaled", "decimal", "exponent"]))
    if form == "int" and q.denominator == 1:
        return q.numerator
    if form in ("decimal", "exponent"):
        text = _decimal_text(q, form == "exponent")
        if text is not None:
            return text
    scale = draw(st.integers(2, 5)) if form == "scaled" else 1
    return f"{q.numerator * scale}/{q.denominator * scale}"


@st.composite
def _cube_documents(draw):
    """Cube documents of order 1-3: probability columns and arbitrary ones,
    some entries widened past the operand bound, every scalar written in
    one of a pool of one or two accepted forms drawn per value, so that a
    document repeats its strings, and some columns copied to other slots,
    so that it repeats valid and invalid columns."""
    n = draw(st.integers(1, 3))
    valid = draw(st.booleans())
    entries = []
    for _ in range(n * n):
        if valid or draw(st.booleans()):
            weights = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any))
            entries.append([Fraction(w, sum(weights)) for w in weights])
        else:
            denominators = st.sampled_from([1, 2, 3, 4, 5, 8, 10, 25])
            entries.append([Fraction(draw(st.integers(-3, 6)), draw(denominators)) for _ in range(n)])
    for value in draw(st.sampled_from(_WIDENINGS[:1] * 4 + _WIDENINGS)):
        entries[draw(st.integers(0, n * n - 1))][draw(st.integers(0, n - 1))] = value
    texts = {}
    for q in (q for col in entries for q in col):
        if q not in texts:
            texts[q] = draw(st.lists(_scalar_text(q), min_size=1, max_size=2))
    columns = [[draw(st.sampled_from(texts[q])) for q in col] for col in entries]
    # repeat some columns, written as drawn, in other slots
    for _ in range(draw(st.integers(0, n * n))):
        columns[draw(st.integers(0, n * n - 1))] = list(columns[draw(st.integers(0, n * n - 1))])
    return {"n": n, "entries": [columns[i * n:(i + 1) * n] for i in range(n)]}


@settings(max_examples=150)
@given(doc=_cube_documents())
def test_loading_agrees_with_the_fraction_oracle(doc):
    expected = oracle_load(doc)
    doc = json.loads(json.dumps(doc))
    try:
        cube = parse_cube_document(doc)
    except FormatError as err:
        phrase = {"denominator": "the common denominator exceeds", "numerator": "a numerator over the common"}
        assert expected[0] == "bound" and str(err).startswith(f"entries: {phrase[expected[1]]}")
    except ValidationError as err:
        assert expected == ("violations", [(v.kind, v.indices, v.detail) for v in err.violations])
    else:
        planes = [[list(col) for col in plane] for plane in int_planes(cube)]
        assert expected == ("cube", cube.denominator, planes)


class TestMeasureDocuments:
    def test_round_trip(self):
        from hgforge import validate_measure

        measure = validate_measure(["3/4", "1/4"])
        assert parse_measure_document(json.loads(serialize(measure_to_document(measure)))) == measure

    def test_length_checked(self):
        with pytest.raises(FormatError):
            parse_measure_document({"n": 3, "values": ["1/2", "1/2"]})


class TestGroupDocuments:
    def test_factors_form(self):
        table = parse_group_document({"invariant_factors": [2, 4]})
        assert table.rows == cayley_table(InvariantFactors((2, 4))).rows

    def test_trivial_group(self):
        assert parse_group_document({"invariant_factors": []}).n == 1

    def test_table_form(self):
        table = parse_group_document({"cayley_table": [[1, 2], [2, 1]]})
        assert table.n == 2

    def test_exactly_one_field(self):
        with pytest.raises(FormatError, match="exactly one"):
            parse_group_document({"invariant_factors": [2], "cayley_table": [[1]]})
        with pytest.raises(FormatError, match="exactly one"):
            parse_group_document({})

    def test_bad_factors(self):
        with pytest.raises(FormatError):
            parse_group_document({"invariant_factors": [2, 3]})

    def test_non_group_table_rejected(self):
        with pytest.raises(FormatError, match="cayley_table: latin-square fails"):
            parse_group_document({"cayley_table": [[1, 2], [2, 2]]})

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[1, 2], [1, 2]], "cayley_table: latin-square fails"),
            ([], "cayley_table: table must be square and non-empty"),
            ([[2, 1], [1, 2]], "cayley_table: identity at state 2, expected state 1"),
        ],
    )
    def test_invalid_table_is_format_error(self, table, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_group_document({"cayley_table": table})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"invariant_factors": [2.0]}, "invariant_factors[0]: expected an integer"),
            ({"cayley_table": [[1, True], [2, 1]]}, "cayley_table[0][1]: expected an integer state label"),
        ],
        ids=["float-factor", "bool-label"],
    )
    def test_non_integer_group_data_refused(self, tmp_path, doc, message):
        path = tmp_path / "group.json"
        write_document(path, doc)
        with pytest.raises(FormatError) as err:
            load_group(path)
        assert str(err.value) == f"{path}: {message}"

    def test_order_above_the_cap_refused_before_building(self, monkeypatch):
        import hgforge.formats as formats

        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(formats, "cayley_table", no_table)
        monkeypatch.setattr(formats, "CayleyTable", no_table)
        assert DEFAULT_ORDER_CAP < 512
        with pytest.raises(FormatError, match=f"group order 512 exceeds the cap {DEFAULT_ORDER_CAP}"):
            parse_group_document({"invariant_factors": [2] * 9})
        with pytest.raises(FormatError, match=f"group order 512 exceeds the cap {DEFAULT_ORDER_CAP}"):
            parse_group_document({"cayley_table": [[1] * 512] * 512})

    def test_order_at_the_cap_reaches_the_table(self, monkeypatch):
        import hgforge.formats as formats

        monkeypatch.setattr(formats, "cayley_table", lambda factors: factors.order)
        assert parse_group_document({"invariant_factors": [DEFAULT_ORDER_CAP]}) == DEFAULT_ORDER_CAP

    def test_serialized_group_reloads(self, tmp_path):
        table = cayley_table(InvariantFactors((2, 2)))
        path = tmp_path / "group.json"
        write_document(path, group_to_document(table))
        assert load_group(path).rows == table.rows


class TestFiles:
    def test_file_round_trip(self, tmp_path, z2_cube):
        path = tmp_path / "cube.json"
        write_document(path, cube_to_document(z2_cube))
        assert load_cube(path) == z2_cube

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(FormatError, match="JSON"):
            load_cube(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 1, "entries": [[[' + "1" * 5000 + "]]]}",
            "[" * 100000 + "]" * 100000,
        ],
        ids=["integer-past-digit-limit", "deep-nesting"],
    )
    def test_undecodable_json(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="JSON"):
            load_cube(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"n": 1, "entries": [[["\xff"]]]}')
        with pytest.raises(FormatError, match="JSON"):
            load_cube(path)

    def test_path_in_error(self, tmp_path):
        path = tmp_path / "cube.json"
        path.write_text('{"n": 1}')
        with pytest.raises(FormatError, match="cube.json"):
            load_cube(path)

    def test_measure_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"n": 2, "values": ["0.25", "0.75"]}')
        measure = load_measure(path)
        assert measure.values == (rat(1, 4), rat(3, 4))

    def test_serialization_is_stable(self, z2_cube):
        assert serialize(cube_to_document(z2_cube)) == serialize(cube_to_document(z2_cube))
