"""Alarm limit fitting, persistence-based extraction, and trace/sequence I/O."""

import csv
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from alarmhmm import DomainError, SchemaError, UnknownSymbolError, alarms
from alarmhmm.alarms import (
    HIGH,
    LOW,
    AlarmLimits,
    AlarmSequence,
    AlarmSymbolCodebook,
    MeasurementTrace,
    extract_sequence,
    fit_limits,
    read_sequences_jsonl,
    read_trace_csv,
    sequence_from_dict,
    write_sequences_jsonl,
    write_trace_csv,
)

from alarmhmm.documents import save_document

import oracles

VALID_RECORD = {"fault": 1, "symbols": [3, 0, 5], "times": [0.0, 10.0, 10.0],
                "meta": {"n_measurements": 4}}

NOT_AN_INT = st.one_of(
    st.booleans(), st.floats(), st.text(max_size=3), st.lists(st.integers(), max_size=2)
)
NOT_A_FINITE_NUMBER = st.one_of(
    st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
    st.text(max_size=3), st.none(), st.lists(st.floats(), max_size=2),
)


def _replace(field, value):
    return {**VALID_RECORD, field: value}


def _replace_item(field, index, value):
    items = list(VALID_RECORD[field])
    items[index] = value
    return _replace(field, items)


def malformed_records():
    """JSONL records that each break the sequence schema in one way."""
    return st.one_of(
        st.sampled_from(sorted(VALID_RECORD)).map(
            lambda key: {k: v for k, v in VALID_RECORD.items() if k != key}
        ),
        NOT_AN_INT.map(lambda v: _replace("fault", v)),
        st.tuples(st.integers(0, 2), st.one_of(NOT_AN_INT, st.none())).map(
            lambda a: _replace_item("symbols", *a)
        ),
        st.tuples(st.integers(0, 2), NOT_A_FINITE_NUMBER).map(
            lambda a: _replace_item("times", *a)
        ),
        st.one_of(NOT_AN_INT, st.integers(-3, 0)).map(
            lambda v: _replace("meta", {"n_measurements": v})
        ),
        st.one_of(st.text(max_size=3), st.lists(st.integers(), max_size=2), st.integers()).map(
            lambda v: _replace("meta", v)
        ),
        st.sampled_from([
            _replace("symbols", [3, 0]),            # lengths differ
            _replace("times", "0.0"),
            _replace("symbols", [3, 0, 3]),         # a repeated alarm
            _replace("times", [0.0, 10.0, 5.0]),    # out of order
            [VALID_RECORD],
            "record",
        ]),
    )


def single_limits(mean=10.0, std=1.0, kappa=3.0):
    return AlarmLimits(mean=[mean], std=[std], kappa=kappa, meas_ids=("m0",))


def single_trace(readings, sample_period=10.0):
    return MeasurementTrace(
        sample_period=sample_period,
        values=np.asarray(readings, dtype=float)[:, None],
        meas_ids=["m0"],
    )


class TestCodebook:
    def test_round_trip_covers_every_symbol(self):
        book = AlarmSymbolCodebook(n_measurements=41)
        seen = set()
        for m in range(book.n_measurements):
            for direction in (HIGH, LOW):
                symbol = book.encode(m, direction)
                assert book.decode(symbol) == (m, direction)
                seen.add(symbol)
        assert seen == set(range(book.n_symbols))

    def test_numbering_convention(self):
        book = AlarmSymbolCodebook(n_measurements=41)
        assert book.encode(0, HIGH) == 0
        assert book.encode(40, HIGH) == 40
        assert book.encode(0, LOW) == 41
        assert book.encode(40, LOW) == 81

    def test_bad_inputs_rejected(self):
        book = AlarmSymbolCodebook(n_measurements=3)
        with pytest.raises(DomainError):
            book.encode(3, HIGH)
        with pytest.raises(DomainError):
            book.encode(0, "sideways")
        with pytest.raises(DomainError):
            book.decode(6)
        with pytest.raises(DomainError, match="^symbol indices must be integers$"):
            book.decode(1.5)

    @pytest.mark.parametrize("size", [2.5, True])
    def test_size_must_be_an_integer(self, size):
        with pytest.raises(DomainError, match=f"^n_measurements must be an integer, got {size}$"):
            AlarmSymbolCodebook(size)
        assert AlarmSymbolCodebook(np.int64(3)).n_symbols == 6


class TestFitLimits:
    def test_recovers_known_moments(self):
        rng = np.random.default_rng(2024)
        readings = 10.0 + rng.normal(0.0, 1.0, size=4000)
        trace = single_trace(readings)
        limits = fit_limits([trace], kappa=3.0)
        mean, std = oracles.sample_moments(readings)
        assert limits.mean[0] == pytest.approx(mean, abs=1e-12)
        assert limits.std[0] == pytest.approx(std, abs=1e-12)
        assert limits.high[0] == pytest.approx(13.0, abs=0.2)
        assert limits.low[0] == pytest.approx(7.0, abs=0.2)

    def test_zero_kappa_collapses_the_band(self):
        rng = np.random.default_rng(7)
        trace = single_trace(5.0 + rng.normal(size=100))
        limits = fit_limits([trace], kappa=0.0)
        assert limits.high[0] == limits.low[0] == limits.mean[0]

    def test_pooling_identical_traces_changes_nothing(self):
        rng = np.random.default_rng(8)
        trace = single_trace(rng.normal(size=50))
        one = fit_limits([trace], kappa=3.0)
        two = fit_limits([trace, trace], kappa=3.0)
        assert one.mean[0] == pytest.approx(two.mean[0], abs=1e-12)
        assert one.std[0] == pytest.approx(two.std[0], abs=1e-12)

    def test_zero_variance_measurement_is_named(self):
        trace = MeasurementTrace(
            sample_period=1.0,
            values=np.column_stack([np.random.default_rng(1).normal(size=10), np.full(10, 4.0)]),
            meas_ids=["ok", "flatline"],
        )
        with pytest.raises(DomainError, match="flatline"):
            fit_limits([trace])

    def test_needs_data(self):
        with pytest.raises(DomainError):
            fit_limits([])
        with pytest.raises(DomainError, match="two pooled samples"):
            fit_limits([single_trace([1.0])])

    def test_mismatched_ids_rejected(self):
        a = single_trace(np.arange(10.0))
        b = MeasurementTrace(sample_period=10.0, values=np.arange(10.0)[:, None], meas_ids=["other"])
        with pytest.raises(DomainError, match="same measurement ids"):
            fit_limits([a, b])


class TestExtraction:
    def test_quiet_trace_produces_no_alarms(self):
        trace = single_trace(np.full(100, 10.0) + 0.1)
        seq = extract_sequence(trace, single_limits(), AlarmSymbolCodebook(1), persist_t=300.0)
        assert seq.symbols == [] and seq.times == []

    def test_persistent_step_alarms_at_interval_start(self):
        readings = np.full(100, 10.0)
        readings[10:] = 15.0  # steps above the high limit at t = 100 s and stays
        seq = extract_sequence(
            single_trace(readings), single_limits(), AlarmSymbolCodebook(1), persist_t=300.0
        )
        assert seq.symbols == [0]
        assert seq.times == [100.0]

    @pytest.mark.parametrize(
        "persist_t,expected_symbols,expected_times",
        [(300.0, [], []), (150.0, [0], [50.0])],
    )
    def test_square_wave_against_interval_scan(self, persist_t, expected_symbols, expected_times):
        # 200 s dwell above the limit, 200 s back at baseline, repeated.
        block = [15.0] * 20 + [10.0] * 20
        readings = [10.0] * 5 + block * 4
        trace = single_trace(readings)
        limits = single_limits()
        seq = extract_sequence(trace, limits, AlarmSymbolCodebook(1), persist_t=persist_t)
        assert seq.symbols == expected_symbols
        assert seq.times == expected_times

        high_start, low_start = oracles.scan_alarm_runs(
            readings, limits.low[0], limits.high[0], trace.sample_period, persist_t
        )
        assert low_start is None
        if high_start is None:
            assert seq.symbols == []
        else:
            assert seq.times == [high_start * trace.sample_period]

    def test_symbol_emitted_once_despite_repeat_excursions(self):
        block = [15.0] * 20 + [10.0] * 20
        seq = extract_sequence(
            single_trace(block * 3), single_limits(), AlarmSymbolCodebook(1), persist_t=100.0
        )
        assert seq.symbols == [0]
        assert seq.times == [0.0]

    def test_high_and_low_can_both_fire(self):
        readings = [15.0] * 40 + [5.0] * 40
        seq = extract_sequence(
            single_trace(readings), single_limits(), AlarmSymbolCodebook(1), persist_t=300.0
        )
        assert seq.symbols == [0, 1]
        assert seq.times == [0.0, 400.0]

    def test_simultaneous_activations_sort_by_symbol(self):
        values = np.column_stack([np.full(50, 15.0), np.full(50, -15.0)])
        trace = MeasurementTrace(sample_period=10.0, values=values, meas_ids=["a", "b"])
        limits = AlarmLimits(mean=[10.0, -10.0], std=[1.0, 1.0], kappa=3.0, meas_ids=("a", "b"))
        seq = extract_sequence(trace, limits, AlarmSymbolCodebook(2), persist_t=100.0)
        assert seq.symbols == [0, 3]  # high of a, low of b, both at t=0
        assert seq.times == [0.0, 0.0]

    def test_sub_period_persistence_accepts_single_samples(self):
        readings = [10.0] * 5 + [15.0] + [10.0] * 5
        seq = extract_sequence(
            single_trace(readings), single_limits(), AlarmSymbolCodebook(1), persist_t=5.0
        )
        assert seq.symbols == [0]
        assert seq.times == [50.0]

    def test_reading_exactly_at_the_limit_is_normal(self):
        readings = np.full(50, 13.0)  # exactly mean + kappa*std
        seq = extract_sequence(
            single_trace(readings), single_limits(), AlarmSymbolCodebook(1), persist_t=0.0
        )
        assert seq.symbols == []

    def test_dimension_mismatch_rejected(self):
        trace = single_trace(np.zeros(10))
        with pytest.raises(DomainError, match="codebook"):
            extract_sequence(trace, single_limits(), AlarmSymbolCodebook(2), persist_t=1.0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), short=st.integers(0, 30), extra=st.integers(1, 30))
    def test_larger_persistence_extracts_a_subset(self, seed, short, extra):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, 1.5, size=(rng.integers(2, 120), 2))
        trace = MeasurementTrace(sample_period=2.0, values=values, meas_ids=["a", "b"])
        limits = AlarmLimits(mean=[0.0, 0.0], std=[1.0, 1.0], kappa=1.0, meas_ids=("a", "b"))
        book = AlarmSymbolCodebook(2)
        loose = extract_sequence(trace, limits, book, persist_t=float(short))
        tight = extract_sequence(trace, limits, book, persist_t=float(short + extra))
        assert set(tight.symbols) <= set(loose.symbols)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), n_meas=st.integers(1, 4), n_samples=st.integers(1, 60),
           period=st.sampled_from([1.0, 2.0, 5.0, 10.0]))
    def test_matches_the_sample_scan_oracle(self, data, n_meas, n_samples, period):
        # Readings in {-2, ..., 2} against limits -1 and 1: both directions
        # fire, and readings exactly at a limit stay normal.
        values = np.asarray(data.draw(st.lists(
            st.integers(-2, 2), min_size=n_meas * n_samples, max_size=n_meas * n_samples
        )), dtype=float).reshape(n_samples, n_meas)
        # Quarter periods land on and between the multiples of the period,
        # up to past the end of the trace.
        persist_t = data.draw(st.one_of(
            st.integers(0, 4 * (n_samples + 2)).map(lambda quarters: quarters * period / 4),
            st.just(1e308),
        ))
        ids = [f"m{m}" for m in range(n_meas)]
        limits = AlarmLimits(mean=np.zeros(n_meas), std=np.ones(n_meas), kappa=1.0,
                             meas_ids=tuple(ids))
        trace = MeasurementTrace(sample_period=period, values=values, meas_ids=ids)
        seq = extract_sequence(trace, limits, AlarmSymbolCodebook(n_meas), persist_t=persist_t)

        expected = []
        for m in range(n_meas):
            starts = oracles.scan_alarm_runs(values[:, m], -1.0, 1.0, period, persist_t)
            for start, symbol in zip(starts, (m, m + n_meas)):
                if start is not None:
                    expected.append((start * period, symbol))
        assert list(zip(seq.times, seq.symbols)) == sorted(expected)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        trace = MeasurementTrace(
            sample_period=10.0, values=rng.normal(size=(20, 3)), meas_ids=["x", "y", "z"]
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        loaded = read_trace_csv(path)
        assert loaded.sample_period == trace.sample_period
        assert loaded.meas_ids == trace.meas_ids
        assert np.array_equal(loaded.values, trace.values)

    def test_numpy_scalar_period_round_trips(self, tmp_path):
        trace = MeasurementTrace(sample_period=np.float64(10.0), values=[[1.0], [2.0], [3.0]],
                                 meas_ids=["x"])
        assert type(trace.sample_period) is float
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        assert path.read_text().splitlines()[1:] == ["0.0,1.0", "10.0,2.0", "20.0,3.0"]
        assert read_trace_csv(path).sample_period == 10.0

    @pytest.mark.parametrize("values, ids, message", [
        ([1.0, 2.0], ["x"], "trace values must be a (samples, measurements) matrix"),
        ([[1.0], [math.inf]], ["x"], "trace contains non-finite values"),
        ([[1.0], [2.0]], ["x", "y"], "meas_ids length does not match the value columns"),
    ], ids=["1-d", "non-finite", "id-count"])
    def test_values_must_be_a_finite_matrix_with_one_id_per_column(self, values, ids, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            MeasurementTrace(sample_period=1.0, values=values, meas_ids=ids)

    @pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -1.0, "10", True])
    def test_period_must_be_finite_and_positive(self, period):
        with pytest.raises(DomainError, match="^sample_period must be finite and positive"):
            MeasurementTrace(sample_period=period, values=[[1.0], [2.0]], meas_ids=["x"])

    def test_non_uniform_sampling_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,a\n0,1.0\n10,1.1\n25,1.2\n")
        with pytest.raises(SchemaError, match="uniformly"):
            read_trace_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b\n1,2\n2,3\n")
        with pytest.raises(SchemaError, match="time"):
            read_trace_csv(path)

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,a\n0,1.0\n")
        with pytest.raises(SchemaError, match="two samples"):
            read_trace_csv(path)


#: Fields the trace fuzz swaps in: underscores, non-finite and overflowing
#: numbers, signed zero, non-ASCII digits and spaces, padding, quoting, and
#: fields no float reads.  Of all code points, only the separator controls
#: \x1c-\x1f at a field's edge are read by numpy.loadtxt (2.4) and rejected by
#: float; '#' starts a loadtxt comment unless comments=None; both strip \x0c, \x0b.
ODD_FIELDS = ("1_0", "nan", "inf", "-inf", "1e400", "-1e400", "-0.0", "5e-324", "1e308",
              "\u0661\u0662", "\u0663.\u0665", " 1.5", "2.5 ", "\t3", "\xa04", "", "x",
              "0x10", "\x001", "2\u2028", "\ufeff3", '"1.0"', '"1,5"', '"2\n3"', '"', '"\r"',
              "\x1c1", "1\x1f", "#1", "1#", "\x0c1", "1\x0b")


@st.composite
def trace_texts(draw):
    """A trace CSV text as the writer spells one, then mutated: other line ends or
    none after the last line, blank lines, padded, quoted or odd fields, extra or
    missing fields, empty or repeated measurement ids."""
    n_meas, n_rows = draw(st.integers(1, 3)), draw(st.integers(0, 70))
    period = draw(st.sampled_from([10.0, 0.1, 1 / 3, 1e-300, 1e300]))
    values = iter(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=n_rows * n_meas, max_size=n_rows * n_meas)))
    rows = [["time", *(f"m{j}" for j in range(n_meas))]]
    rows += [[repr(i * period), *(repr(next(values)) for _ in range(n_meas))]
             for i in range(n_rows)]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(rows) - 1))
        fields = rows[row]
        column = draw(st.integers(0, max(len(fields) - 1, 0)))
        kind = draw(st.sampled_from(["odd", "pad", "quote", "blank", "extra", "missing", "id"]))
        if kind == "blank":
            rows.insert(row + 1, [])
        elif kind == "extra":
            fields.insert(column, draw(st.sampled_from(["0", ""])))
        elif not fields:
            continue
        elif kind == "missing":
            del fields[column]
        elif kind == "odd":
            fields[column] = draw(st.sampled_from(ODD_FIELDS))
        elif kind == "pad":
            fields[column] = draw(st.sampled_from([" ", "\t"])) + fields[column] + " "
        elif kind == "quote":
            fields[column] = f'"{fields[column]}"'
        elif rows[0]:
            header = rows[0]
            header[draw(st.integers(0, len(header) - 1))] = draw(st.sampled_from(["", "m0"]))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r", None]))
    ends = [ending or draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in rows]
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(",".join(fields) + end for fields, end in zip(rows, ends))


def trace_outcome(read, path):
    """What ``read(path)`` gives: the trace's period, ids and value bits, or the
    type and message of what it raised."""
    try:
        trace = read(path)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return trace.sample_period, trace.meas_ids, trace.values.shape, trace.values.tobytes()


class TestTraceCsvBlocks:
    """The fast parser against the csv-module loop, and the writer against csv.writer."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=trace_texts())
    @example(text="time,a\r\n0.0,1.0\r\n10.0,-0.0\r\n")
    @example(text="time,a\n0.0,1_0\n10.0,\u0661\n")
    @example(text="time,a\r\n0.0,1.0\r10.0,2.0\r\n")
    @example(text="time,a\n0.0,1.0,\n10.0\n")
    @example(text="time,a\n0.0,1.0\n\n10.0,2.0\n")
    @example(text="time,a\n1e400,1.0\n10.0,2.0\n")
    @example(text="time,a\n0.0,0." + "0" * 131072 + "1\n10.0,2.0\n")  # beyond the csv field limit
    @example(text="time,m0\n\n")  # numpy.loadtxt warns "input contained no data"
    @example(text="time,a\n0.0,\x1c1\n10.0,1\x1f\n")  # numpy.loadtxt strips these; float fails
    @example(text="time,a\n0.0,1.0\n10.0,2#\n")  # '#' starts a numpy.loadtxt comment
    @example(text="time,a\r\n0.0,1.0\r\n10.0,2.0\r\n\r\n")  # numpy.loadtxt skips blank lines
    @example(text="time,a\r0.0\n10.0,1.0\n20.0,2.0\n")  # a CR ends the header's csv line
    def test_equals_the_csv_module_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "mutated.csv"
        path.write_bytes(text.encode())
        assert trace_outcome(read_trace_csv, path) == \
            trace_outcome(oracles.loop_read_trace_csv, path)

    @staticmethod
    def read_written_trace(tmp_path, monkeypatch, newline, trace):
        """Write ``trace`` with ``newline`` line ends and read it back, failing if
        the reader falls back to the csv module."""
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        path.write_bytes(path.read_bytes().replace(b"\r\n", newline.encode()))

        def fail(path, text):
            raise AssertionError(f"{path} went through the csv module")

        monkeypatch.setattr(alarms, "_csv_trace", fail)
        loaded = read_trace_csv(path)
        assert loaded.meas_ids == trace.meas_ids
        assert loaded.values.tobytes() == trace.values.tobytes()
        return path, loaded

    @pytest.mark.parametrize("newline", ["\r\n", "\n"], ids=["crlf", "lf"])
    @pytest.mark.parametrize("n_samples", [2, 31, 32, 33, 200])
    def test_written_traces_take_the_block_parser(self, tmp_path, monkeypatch, newline,
                                                  n_samples):
        rng = np.random.default_rng(n_samples)
        values = rng.normal(scale=1e3, size=(n_samples, 4))
        values[0] = [-0.0, 5e-324, 1e308, -1e308]
        trace = MeasurementTrace(sample_period=0.1, values=values, meas_ids=list("abcd"))
        _, loaded = self.read_written_trace(tmp_path, monkeypatch, newline, trace)
        assert loaded.sample_period == pytest.approx(0.1)

    @pytest.mark.parametrize("newline", ["\r\n", "\n"], ids=["crlf", "lf"])
    def test_bundled_size_traces_take_the_fast_parser(self, tmp_path, monkeypatch, newline):
        # The bundled plant's fault traces: 180 samples of 41 measurements.
        values = np.random.default_rng(41).normal(size=(180, 41))
        trace = MeasurementTrace(sample_period=10.0, values=values,
                                 meas_ids=[f"m{j:02d}" for j in range(41)])
        path, loaded = self.read_written_trace(tmp_path, monkeypatch, newline, trace)
        assert path.stat().st_size > csv.field_size_limit()  # longer than any one field may be
        assert loaded.sample_period == 10.0

    @pytest.mark.parametrize("header, problem", [
        ("time,m01,m01", "'m01' in column 3 repeats column 2"),
        ("time,,m02", "'' in column 2 is empty"),
        ("time,m01,", "'' in column 3 is empty"),
    ])
    @pytest.mark.parametrize("body", ["0,1,2\n10,1,2\n", '0,"1",2\n10,1,2\n'],
                             ids=["blocks", "csv-module"])
    def test_measurement_ids_must_be_unique_and_non_empty(self, tmp_path, header, problem,
                                                          body):
        path = tmp_path / "trace.csv"
        path.write_text(header + "\n" + body)
        message = f"^{re.escape(f'{path}: measurement id {problem}')}$"
        with pytest.raises(SchemaError, match=message):
            read_trace_csv(path)
        with pytest.raises(SchemaError, match=message):
            oracles.loop_read_trace_csv(path)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), period=st.one_of(st.sampled_from([0.1, 1 / 3, 0.7, 10.0]),
                                            st.floats(1e-6, 1e6)))
    def test_writer_bytes_equal_csv_writer(self, tmp_path_factory, data, period):
        special = st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308])
        values = data.draw(arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=6),
                                  elements=st.floats(allow_nan=False, allow_infinity=False)
                                  | special))
        ids = data.draw(st.lists(st.sampled_from(["m0", "m1", "a,b", 'q"x', "s p"]),
                                 min_size=values.shape[1], max_size=values.shape[1]))
        trace = MeasurementTrace(sample_period=period, values=values, meas_ids=ids)
        root = tmp_path_factory.getbasetemp()
        write_trace_csv(root / "blocks.csv", trace)
        oracles.csv_write_trace(root / "writer.csv", trace)
        assert (root / "blocks.csv").read_bytes() == (root / "writer.csv").read_bytes()


class TestSequenceJsonl:
    def test_round_trip(self, tmp_path):
        sequences = [
            AlarmSequence(symbols=[3, 1, 7], times=[10.0, 20.0, 20.0], fault=2, meta={"k": 1}),
            AlarmSequence(symbols=[], times=[], fault=None),
        ]
        path = tmp_path / "seqs.jsonl"
        write_sequences_jsonl(path, sequences)
        loaded = read_sequences_jsonl(path)
        assert len(loaded) == 2
        assert loaded[0].symbols == [3, 1, 7]
        assert loaded[0].times == [10.0, 20.0, 20.0]
        assert loaded[0].fault == 2
        assert loaded[0].meta["k"] == 1
        assert loaded[1].fault is None

    def test_numpy_integers_are_written_as_plain_integers(self, tmp_path):
        paths = [tmp_path / "python.jsonl", tmp_path / "numpy.jsonl"]
        for path, integer in zip(paths, (int, np.int64)):
            write_sequences_jsonl(path, [AlarmSequence(
                symbols=[3, 1], times=[0.0, 1.0], fault=integer(2), meta={"seed": integer(7)})])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert read_sequences_jsonl(paths[1])[0].meta["seed"] == 7

    @pytest.mark.parametrize("value", [np.array([1]), object(), 1j])
    def test_writers_still_reject_values_json_cannot_spell(self, tmp_path, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_sequences_jsonl(tmp_path / "seqs.jsonl", [
                AlarmSequence(symbols=[1], times=[0.0], meta={"k": value})])
        with pytest.raises(TypeError, match="is not JSON serializable"):
            save_document(tmp_path / "doc.json", {"k": value})

    def test_schema_violations_are_located(self, tmp_path):
        path = tmp_path / "seqs.jsonl"
        path.write_text('{"fault": null, "symbols": [1], "times": [0.0]}\n')
        with pytest.raises(SchemaError, match="meta"):
            read_sequences_jsonl(path)
        path.write_text("{broken\n")
        with pytest.raises(SchemaError, match="JSON"):
            read_sequences_jsonl(path)
        path.write_text('{"fault": "x", "symbols": [1], "times": [0.0], "meta": {}}\n')
        with pytest.raises(SchemaError, match="fault"):
            read_sequences_jsonl(path)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(record=malformed_records())
    @example(record={"fault": True, "symbols": [3, 3, True], "times": [5.0, math.nan, 1.0],
                     "meta": {}})
    def test_malformed_records_raise_located_schema_errors(self, record, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "malformed.jsonl"
        path.write_text(json.dumps(VALID_RECORD) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:2: "):
            read_sequences_jsonl(path)

    @pytest.mark.parametrize("version", ["9", 1, None])
    def test_meta_format_version_is_checked(self, tmp_path, version):
        path = tmp_path / "seqs.jsonl"
        current = dict(VALID_RECORD, meta={"format_version": "1"})
        other = dict(VALID_RECORD, meta={"format_version": version})
        path.write_text("\n".join(json.dumps(r) for r in (VALID_RECORD, current, other)) + "\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:3: meta format_version"):
            read_sequences_jsonl(path)
        path.write_text("\n".join(json.dumps(r) for r in (VALID_RECORD, current)) + "\n")
        assert len(read_sequences_jsonl(path)) == 2

    def test_validate_enforces_sequence_invariants(self):
        def record(symbols, times, **meta):
            return {"fault": None, "symbols": symbols, "times": times, "meta": meta}

        with pytest.raises(SchemaError, match="^symbols and activation times differ in length$"):
            sequence_from_dict(record([1, 2], [0.0]))
        with pytest.raises(SchemaError, match="distinct"):
            sequence_from_dict(record([1, 1], [0.0, 1.0]))
        with pytest.raises(SchemaError, match="non-decreasing"):
            sequence_from_dict(record([1, 2], [5.0, 1.0]))
        with pytest.raises(UnknownSymbolError,
                           match=r"^symbol 9 at position 1 is outside \[0, 4\)$"):
            sequence_from_dict(record([0, 9], [0.0, 1.0], n_measurements=2))
        assert sequence_from_dict(record([], [], n_measurements=2)).symbols == []
        # In memory a flood may repeat a symbol out of order, as dechatter's input does.
        assert AlarmSequence(symbols=[1, 1], times=[5.0, 1.0]).symbols == [1, 1]

    @pytest.mark.parametrize("symbols", [[1.5, 2], [True, False], [[1, 2]]])
    def test_symbols_must_be_integers(self, symbols):
        with pytest.raises(DomainError, match="^symbol indices must"):
            AlarmSequence(symbols=symbols, times=[0.0, 1.0])

    def test_numpy_symbols_become_python_integers(self):
        sequence = AlarmSequence(symbols=np.array([3, 1], dtype=np.uint8), times=[0.0, 1.0])
        assert sequence.symbols == [3, 1] and type(sequence.symbols[0]) is int
