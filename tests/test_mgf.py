"""MGF parsing and canonical serialization."""

import dataclasses
import time

import numpy as np
import pytest

import mgf_reference
from mzembed.data import Peak, Spectrum, clean_spectra, load_mgf, parse_mgf, save_mgf, serialize_mgf
from mzembed.data.mgf import _format_intensity
from mzembed.embed import normalize_intensities
from mzembed.errors import ParseError

SIMPLE = """BEGIN IONS
TITLE=spec_001
PEPMASS=512.23450 1.0
STRUCTUREID=mol_7
CHARGE=2+
100.1234 0.5
200.56 1.0
END IONS
"""


class TestParse:
    def test_simple_block(self):
        (s,) = parse_mgf(SIMPLE)
        assert s.id == "spec_001"
        assert s.structure_id == "mol_7"
        assert s.precursor.mz == pytest.approx(512.2345)
        assert s.precursor.intensity == 1.0
        assert s.n_peaks == 3  # precursor counts as a peak
        assert len(s.fragments) == 2
        assert s.fragments[0].mz == pytest.approx(100.1234)
        assert s.metadata == {"CHARGE": "2+"}

    def test_decimal_places_recorded(self):
        (s,) = parse_mgf(SIMPLE)
        # Precursor first, then the fragments in file order.
        assert s.mz_decimals == (5, 4, 2)

    def test_pepmass_intensity_optional(self):
        text = SIMPLE.replace("PEPMASS=512.23450 1.0", "PEPMASS=512.2345")
        (s,) = parse_mgf(text)
        assert s.precursor.intensity == 0.0

    def test_blank_lines_between_blocks(self):
        two = SIMPLE + "\n\n" + SIMPLE.replace("spec_001", "spec_002")
        spectra = parse_mgf(two)
        assert [s.id for s in spectra] == ["spec_001", "spec_002"]

    def test_unknown_headers_preserved(self):
        text = SIMPLE.replace("CHARGE=2+", "RTINSECONDS=12.5\nSOURCE=lib A")
        (s,) = parse_mgf(text)
        assert s.metadata["RTINSECONDS"] == "12.5"
        assert s.metadata["SOURCE"] == "lib A"


class TestParseErrors:
    @pytest.mark.parametrize(
        "mutate, line_no",
        [
            # Block-level problems anchor at the BEGIN IONS line.
            (lambda t: t.replace("TITLE=spec_001\n", ""), 1),
            (lambda t: t.replace("PEPMASS=512.23450 1.0\n", ""), 1),
            (lambda t: t.replace("100.1234 0.5", "100.1234"), 6),
            (lambda t: t.replace("100.1234 0.5", "100.1234 0.5 9 9"), 6),
            (lambda t: t.replace("100.1234 0.5", "-5.0 0.5"), 6),
            (lambda t: t.replace("100.1234 0.5", "abc 0.5"), 6),
            (lambda t: "stray\n" + t, 1),
            (lambda t: t.replace("BEGIN IONS", "BEGIN IONS\nBEGIN IONS"), 2),
        ],
    )
    def test_line_numbers(self, mutate, line_no):
        with pytest.raises(ParseError) as err:
            parse_mgf(mutate(SIMPLE))
        assert err.value.line == line_no

    @pytest.mark.parametrize("old,new,line_no", [
        ("100.1234 0.5", "{big} 0.5", 6),
        ("100.1234 0.5", "100.1234 {big}", 6),
        ("PEPMASS=512.23450 1.0", "PEPMASS={big} 1.0", 3),
    ], ids=["fragment_mz", "fragment_intensity", "precursor_mz"])
    def test_number_beyond_binary64_rejected(self, old, new, line_no):
        big = "1" + "0" * 400 + ".0000"
        with pytest.raises(ParseError) as err:
            parse_mgf(SIMPLE.replace(old, new.format(big=big)))
        assert err.value.line == line_no
        assert repr(big) in str(err.value)

    def test_long_bad_token_refused_in_linear_time(self):
        # A token grammar that splits a run of digits two ways backtracks
        # quadratically here: tens of seconds for 40,000 digits.
        start = time.perf_counter()
        with pytest.raises(ParseError, match="is not a plain decimal number") as err:
            parse_mgf(SIMPLE.replace("100.1234 0.5", "1" * 40000 + "x 0.5"))
        assert err.value.line == 6
        assert time.perf_counter() - start < 2.0

    def test_duplicate_title_rejected(self):
        with pytest.raises(ParseError):
            parse_mgf(SIMPLE + "\n" + SIMPLE)

    @pytest.mark.parametrize("title", ["s0\t0", "a\tb\tc", "\t\ts0\tx"])
    def test_title_with_a_tab_rejected(self, title):
        # The id is a column of every TSV output. Tabs at either end are
        # stripped with the header value; one inside is refused.
        text = "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1 1\nEND IONS\n\n"
        with pytest.raises(ParseError) as err:
            parse_mgf(text + SIMPLE.replace("spec_001", title))
        assert err.value.line == 7
        assert str(err.value) == f"line 7: TITLE {title.strip()!r} holds a tab"

    def test_duplicate_header_rejected(self):
        with pytest.raises(ParseError):
            parse_mgf(SIMPLE.replace("CHARGE=2+", "CHARGE=2+\nCHARGE=3+"))

    def test_header_after_peaks_rejected(self):
        with pytest.raises(ParseError):
            parse_mgf(SIMPLE.replace("200.56 1.0", "200.56 1.0\nCHARGE=1+"))

    def test_unterminated_block_rejected(self):
        with pytest.raises(ParseError):
            parse_mgf(SIMPLE.replace("END IONS\n", ""))


class TestSerialize:
    def test_round_trip_values(self):
        spectra = parse_mgf(SIMPLE)
        text = serialize_mgf(spectra)
        again = parse_mgf(text)
        assert again[0].id == spectra[0].id
        assert again[0].precursor.mz == spectra[0].precursor.mz
        assert [p.mz for p in again[0].fragments] == [
            pytest.approx(p.mz) for p in spectra[0].fragments
        ]
        assert again[0].metadata == spectra[0].metadata

    def test_canonical_form_is_fixed_point(self):
        text = serialize_mgf(parse_mgf(SIMPLE))
        assert serialize_mgf(parse_mgf(text)) == text

    def test_fragments_sorted_by_mz_then_intensity(self):
        s = Spectrum(
            id="x",
            precursor=Peak(500.0, 1.0),
            fragments=(Peak(300.0, 0.2), Peak(100.0, 0.9), Peak(300.0, 0.1)),
        )
        text = serialize_mgf([s])
        rows = [l for l in text.splitlines() if l and l[0].isdigit()]
        assert rows == ["100.00000 0.9", "300.00000 0.1", "300.00000 0.2"]

    def test_fragment_order_leaves_bytes(self):
        rng = np.random.default_rng(0)
        mz = rng.choice([100.0, 100.00001, 250.5], 12)
        intensity = rng.choice([0.1, 0.5, 1.0], 12)
        peaks = [Peak(float(m), float(v)) for m, v in zip(mz, intensity)]
        s = Spectrum(id="x", precursor=Peak(500.0, 1.0), fragments=tuple(peaks))
        text = serialize_mgf([s])
        for _ in range(10):
            order = rng.permutation(len(peaks))
            shuffled = Spectrum(
                id="x", precursor=Peak(500.0, 1.0),
                fragments=tuple(peaks[i] for i in order),
            )
            assert serialize_mgf([shuffled]) == text

    def test_blocks_sorted_consistently(self):
        spectra = parse_mgf(SIMPLE + "\n" + SIMPLE.replace("spec_001", "spec_000"))
        text = serialize_mgf(spectra)
        assert text.index("spec_001") < text.index("spec_000") or (
            serialize_mgf(sorted(spectra, key=lambda s: s.id)) == serialize_mgf(spectra)
        )

    def test_file_round_trip_bytes(self, tmp_path):
        spectra = parse_mgf(SIMPLE)
        p1 = tmp_path / "a.mgf"
        save_mgf(p1, spectra)
        loaded = load_mgf(p1)
        p2 = tmp_path / "b.mgf"
        save_mgf(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_intensity_formatting_shortest_round_trip(self):
        s = Spectrum(
            id="x",
            precursor=Peak(500.0, 1.0),
            fragments=(Peak(100.0, 0.1), Peak(200.0, 1.0), Peak(300.0, 12345.6789)),
        )
        text = serialize_mgf([s])
        assert "100.00000 0.1\n" in text
        assert "200.00000 1\n" in text or "200.00000 1.0\n" in text
        again = parse_mgf(text)
        assert [p.intensity for p in again[0].fragments] == [0.1, 1.0, 12345.6789]


# ------------------------------------------------------------------
# The block parser and the array writer against their per-peak references
# ------------------------------------------------------------------

# Whitespace str.split and str.strip see, none of it a line break for
# text.split("\n"); and decimal digits of three scripts.
SPACES = " \t\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2009\u2028\u2029\u3000"
DIGITS = tuple("".join(map(chr, range(zero, zero + 10))) for zero in (0x30, 0x660, 0x966, 0xFF10))
MUTATIONS = "0123456789.+-=# \t\n\rea\u0663\xa0\x0b"


def _spaces(rng, least=0):
    return "".join(
        " " if rng.random() < 0.7 else SPACES[rng.integers(len(SPACES))]
        for _ in range(int(rng.integers(least, least + 3)))
    )


def _digits(rng, n, first=0):
    out = []
    for i in range(n):
        digit = int(rng.integers(first if i == 0 else 0, 10))
        script = DIGITS[rng.integers(1, 4)] if rng.random() < 0.03 else DIGITS[0]
        out.append(script[digit])
    return "".join(out)


def _number(rng):
    """A positive decimal token in one of the forms a peak line may take;
    now and then a sign, a zero or a value beyond binary64."""
    whole = _digits(rng, int(rng.integers(1, 4)), first=1)
    form = rng.random()
    if form < 0.1:
        body = whole
    elif form < 0.2:
        body = whole + "."
    elif form < 0.3:
        body = "." + _digits(rng, int(rng.integers(1, 5)), first=1)
    elif form < 0.4:
        body = whole + "." + _digits(rng, int(rng.integers(17, 40)))
    elif form < 0.405:
        body = "1" + "0" * 400 + ".0"
    elif form < 0.415:
        body = "0." + "0" * int(rng.integers(0, 3))
    else:
        body = whole + "." + _digits(rng, int(rng.integers(1, 7)))
    sign = ("+", "-")[rng.integers(2)] if rng.random() < 0.02 else ""
    return sign + body


def _block(rng, title):
    headers = [f"TITLE={title}", f"PEPMASS={_number(rng)}"]
    if rng.random() < 0.5:
        headers[1] += _spaces(rng, 1) + _number(rng)
    if rng.random() < 0.7:
        headers.append(f"STRUCTUREID=m{rng.integers(5)}")
    headers += [
        h for h in ("RTINSECONDS=12.5", "source = lib A", "NAME=a=b", "charge=2+")
        if rng.random() < 0.3
    ]
    headers = [headers[i] for i in rng.permutation(len(headers))]
    peaks = [
        _spaces(rng) + _number(rng) + _spaces(rng, 1) + _number(rng) + _spaces(rng)
        for _ in range(int(rng.integers(1, 8)))
    ]
    lines = [_spaces(rng) + "BEGIN IONS", *headers, *peaks, "END IONS" + _spaces(rng)]
    return ("\r\n" if rng.random() < 0.2 else "\n").join(lines)


def generated_mgf(rng):
    """MGF text with comments, blank and whitespace lines between blocks,
    CRLF and LF line ends, unknown headers, and tokens in every form."""
    parts = []
    for i in range(int(rng.integers(1, 4))):
        between = ["", _spaces(rng), "# a comment", "#"]
        parts += [between[j] for j in rng.integers(0, 4, int(rng.integers(0, 3)))]
        parts.append(_block(rng, f"spec_{i}"))
    return "\n".join(parts) + ("\n" if rng.random() < 0.8 else "")


def mutated(text, rng):
    """The text with one character replaced, deleted or inserted."""
    at = int(rng.integers(len(text)))
    char = MUTATIONS[rng.integers(len(MUTATIONS))]
    return [
        text[:at] + char + text[at + 1:],
        text[:at] + text[at + 1:],
        text[:at] + char + text[at:],
    ][rng.integers(3)]


def parse_outcome(parse, text):
    """What a parser makes of the text: per spectrum its id, structure id,
    headers, decimal counts and the bits of every value; or the
    ParseError's message and line."""
    try:
        spectra = parse(text)
    except ParseError as err:
        return str(err), err.line
    return [
        (
            s.id, s.structure_id, s.metadata, s.mz_decimals,
            np.array([s.precursor.mz, s.precursor.intensity]).tobytes(),
            s.fragments.mz.tobytes(), s.fragments.intensity.tobytes(),
        )
        for s in spectra
    ]


def benchmark_like_mgf(rng, n_spectra):
    """Spectra drawn like the benchmark's: 20-79 peaks at m/z 80-900 with
    four decimals, intensities 0.05-1 in their shortest form."""
    blocks = []
    for i in range(n_spectra):
        n = int(rng.integers(20, 80))
        mz = np.round(np.sort(rng.uniform(80.0, 900.0, n)), 4)
        intensity = rng.uniform(0.05, 1.0, n)
        lines = ["BEGIN IONS", f"TITLE=s{i}", f"PEPMASS={rng.uniform(900.0, 1100.0):.4f} 1.0",
                 f"STRUCTUREID=m{i % 7}"]
        lines += [f"{m:.4f} {np.format_float_positional(v, unique=True)}" for m, v in zip(mz, intensity)]
        blocks.append("\n".join(lines + ["END IONS"]))
    return "\n\n".join(blocks) + "\n"


class TestAgainstReference:
    """``parse_mgf`` and ``serialize_mgf`` against the per-line parser and
    per-peak writer in ``mgf_reference``."""

    def test_generated_text_parses_the_same(self):
        rng = np.random.default_rng(2024)
        outcomes = []
        for _ in range(400):
            text = generated_mgf(rng)
            for candidate in [text] + [mutated(text, rng) for _ in range(8)]:
                expected = parse_outcome(mgf_reference.parse_mgf, candidate)
                assert parse_outcome(parse_mgf, candidate) == expected, candidate
                outcomes.append(expected)
        parsed = [o for o in outcomes if isinstance(o, list)]
        # The first words of each message after "line N:".
        messages = {" ".join(o[0].split()[2:5]) for o in outcomes if isinstance(o, tuple)}
        # Both sides of the comparison are well exercised.
        assert len(parsed) > len(outcomes) // 4
        assert len(outcomes) - len(parsed) > len(outcomes) // 4
        assert len(messages) >= 10, messages

    @pytest.mark.parametrize("text", [
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1 1\nEND IONS",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1 1",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1 -1",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1 1\n",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1 1\n200.1 2\n300.1\nEND IONS\n",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1 1\n200.1 -0.0\nEND IONS\n",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1 1\n-0.0 2\nEND IONS\n",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1 1\n200.1 2\nX=1\nEND IONS\n",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1 1\n\nEND IONS\n",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1 1\nBEGIN IONS\n",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\nEND IONS\n",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n1e5 1\nEND IONS\n",
        "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1 1 \r\nEND IONS\n",
    ])
    def test_edge_cases_parse_the_same(self, text):
        assert parse_outcome(parse_mgf, text) == parse_outcome(mgf_reference.parse_mgf, text)

    def test_intensity_format_is_numpy_positional(self):
        # repr turns to exponent form below 1e-4 and from 1e16 on; the
        # writer must not.
        rng = np.random.default_rng(7)
        edges = [1e-4, 1e16, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        values = [0.0, -0.0, 1e300, *edges]
        values += [float(np.nextafter(v, side)) for v in edges[:-1] for side in (0.0, np.inf)]
        values.append(float(np.nextafter(edges[-1], 0.0)))
        values += [float(v) for v in rng.integers(0, 2**53, 300)]
        values += (10.0 ** rng.uniform(-323.0, 300.0, 3000)).tolist()
        values += rng.integers(0, 0x7FF0000000000000, 3000, dtype=np.int64).view(np.float64).tolist()
        for v in values:
            assert _format_intensity(v) == np.format_float_positional(v, unique=True, trim="0"), v

    def test_writer_bytes_match_the_per_peak_writer(self):
        rng = np.random.default_rng(31)
        spectra = parse_mgf(benchmark_like_mgf(rng, 60))
        normalized = [normalize_intensities(s) for s in spectra]
        shuffled = [
            dataclasses.replace(s, fragments=tuple(s.fragments[i] for i in rng.permutation(len(s.fragments))))
            for s in spectra[:10]
        ]
        for batch in (spectra, normalized, shuffled):
            assert serialize_mgf(batch) == mgf_reference.serialize_mgf(batch)


class TestFileLineEnds:
    """A file parses as its text does, whatever its line ends."""

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_load_mgf_parses_the_file_text(self, tmp_path, end):
        rng = np.random.default_rng(11)
        texts = [
            "BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n100.1234\r0.5\n200.1234 1\nEND IONS\n",
            benchmark_like_mgf(rng, 3),
        ]
        texts += [generated_mgf(rng) for _ in range(20)]
        texts += [mutated(text, rng) for text in texts[2:]]
        path = tmp_path / "in.mgf"
        for i, text in enumerate(texts):
            text = text.replace("\n", end)
            path.write_bytes(text.encode("utf-8"))
            assert parse_outcome(load_mgf, path) == parse_outcome(parse_mgf, text), text
            if i == 0 and end == "\n":
                # The lone "\r" separates the peak's two numbers.
                (spectrum,) = load_mgf(path)
                assert spectrum.fragments.mz.tolist() == [100.1234, 200.1234]


class TestNoFragmentPeaks:
    def test_parse_normalize_encode_write_build_only_precursors(self, monkeypatch):
        from mzembed.encoder import EncoderConfig, encode_many, init_weights
        from mzembed.search import index_key, modified_cosine

        text = benchmark_like_mgf(np.random.default_rng(5), 12)
        cfg = EncoderConfig(d=8, layers=1, heads=1, inner_dim=8, max_fragments=32)
        weights = init_weights(cfg, seed=0)
        real, built = Peak.__init__, []

        def spy(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Peak, "__init__", spy)
        spectra = parse_mgf(text)
        assert len(built) == len(spectra) == 12  # one precursor each
        built.clear()
        kept, _ = clean_spectra(spectra)
        normalized = [normalize_intensities(s) for s in kept]
        assert built == [s.precursor for s in normalized]
        built.clear()
        encode_many(normalized, cfg, weights)
        modified_cosine(normalized[0], normalized[1])
        index_key(normalized, cfg, weights)
        serialize_mgf(spectra)
        assert built == []
