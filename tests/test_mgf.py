"""MGF parsing and canonical serialization."""

import numpy as np
import pytest

from mzembed.data import Peak, Spectrum, load_mgf, parse_mgf, save_mgf, serialize_mgf
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

    def test_duplicate_title_rejected(self):
        with pytest.raises(ParseError):
            parse_mgf(SIMPLE + "\n" + SIMPLE)

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
