"""Spectrum records, cleaning rules, label files, coverage checks and split
construction."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import toy_dataset, toy_spectrum
from mzembed.data import (
    MIN_MZ_DECIMALS,
    MIN_PEAKS,
    Fragments,
    MoleculeRecord,
    Peak,
    Spectrum,
    clean_spectra,
    labeled_structures,
    load_molecules,
    make_split,
    parse_fingerprints,
    parse_mgf,
    parse_properties,
    read_manifest,
    rejection_reason,
    validate_coverage,
    write_manifest,
    write_rejection_log,
)
from mzembed.data import labels
from mzembed.data.labels import PROPERTY_NAMES
from mzembed.embed.features import normalize_intensities
from mzembed.errors import DataError, ParseError


def spectrum_with(n_fragments, decimals, intensity=1.0):
    frags = tuple(Peak(100.0 + i, intensity) for i in range(n_fragments))
    return Spectrum(
        id="s",
        precursor=Peak(500.0, 1.0),
        fragments=frags,
        structure_id="m",
        mz_decimals=(decimals,) * (n_fragments + 1),
    )


class TestPeak:
    @pytest.mark.parametrize("mz,intensity,field", [
        (float("nan"), 1.0, "m/z"),
        (float("inf"), 1.0, "m/z"),
        (0.0, 1.0, "m/z"),
        (100.0, float("nan"), "intensity"),
        (100.0, float("inf"), "intensity"),
        (100.0, -1.0, "intensity"),
    ])
    def test_non_finite_or_out_of_range_value_rejected(self, mz, intensity, field):
        with pytest.raises(DataError, match=f"peak {field} must be"):
            Peak(mz, intensity)

    @pytest.mark.parametrize("mz,intensity", [
        (float("nan"), 1.0), (0.0, 1.0), (-2.0, float("inf")), (100.0, -1.0), (100.0, float("nan")),
    ])
    def test_fragment_arrays_refuse_what_a_peak_refuses(self, mz, intensity):
        with pytest.raises(DataError) as expected:
            Peak(mz, intensity)
        with pytest.raises(DataError, match=f"^{re.escape(str(expected.value))}$"):
            Fragments([100.0, mz, 300.0], [1.0, intensity, -1.0])


class TestFragments:
    PEAKS = (Peak(300.0, 0.2), Peak(100.0, 0.9), Peak(300.0, 0.1))

    def test_reads_as_the_tuple_of_peaks(self):
        f = Fragments.of(self.PEAKS)
        assert len(f) == 3
        assert f[0] == self.PEAKS[0] and f[-1] == self.PEAKS[-1]
        assert f[1:] == self.PEAKS[1:] and isinstance(f[1:], tuple)
        assert tuple(f) == self.PEAKS and list(f) == list(self.PEAKS)
        assert Peak(100.0, 0.9) in f
        assert type(f[0].mz) is float
        with pytest.raises(IndexError):
            f[3]

    @pytest.mark.parametrize("other", [
        PEAKS,
        (Peak(300.0, 0.2), Peak(100.0, 0.9), Peak(300.0, -0.0)),
        (Peak(300.0, 0.2), Peak(100.0, 0.9)),
        (Peak(100.0, 0.9), Peak(300.0, 0.2), Peak(300.0, 0.1)),
    ], ids=["same", "minus-zero", "shorter", "reordered"])
    def test_equality_and_hash_follow_the_tuples(self, other):
        zero = (Peak(300.0, 0.2), Peak(100.0, 0.9), Peak(300.0, 0.0))
        for mine in (self.PEAKS, zero):
            a, b = Fragments.of(mine), Fragments.of(other)
            assert (a == b) == (mine == other)
            assert (a == other) == (mine == other)
            assert hash(a) == hash(mine)

    def test_spectrum_converts_peaks_and_compares_by_value(self):
        s = Spectrum(id="x", precursor=Peak(500.0, 1.0), fragments=self.PEAKS)
        assert isinstance(s.fragments, Fragments)
        same = Spectrum(id="x", precursor=Peak(500.0, 1.0), fragments=Fragments.of(self.PEAKS))
        assert s == same and hash(s) == hash(same)
        moved = dataclasses.replace(s, fragments=self.PEAKS[::-1])
        assert isinstance(moved.fragments, Fragments) and moved != s
        assert tuple(moved.fragments) == self.PEAKS[::-1]

    def test_canonical_arrays_are_computed_once_and_read_only(self):
        mz, intensity = np.array([300.0, 100.0, 300.0]), np.array([0.2, 0.9, 0.1])
        s = Spectrum(id="x", precursor=Peak(500.0, 1.0), fragments=Fragments(mz, intensity))
        mz[0] = 1.0  # the spectrum holds its own copy
        first = s.fragment_arrays()
        assert all(a is b for a, b in zip(s.fragment_arrays(), first))
        assert first[0].tolist() == [100.0, 300.0, 300.0]
        assert first[1].tolist() == [0.9, 0.1, 0.2]
        assert s.fragments.mz.tolist() == [300.0, 100.0, 300.0]
        for array in (*first, s.fragments.mz, s.fragments.intensity):
            assert not array.flags.writeable
        ordered = Fragments([100.0, 200.0], [1.0, 0.5])
        assert ordered.canonical[0] is ordered.mz and ordered.canonical[1] is ordered.intensity

    def test_read_only_arrays_are_shared_and_others_copied(self):
        owned = np.array([100.0, 200.0])
        owned.flags.writeable = False
        base = np.array([1.0, 0.5])
        view = base[:]
        view.flags.writeable = False  # base can still change it
        f = Fragments(owned, view)
        assert f.mz is owned
        assert f.intensity is not view and not np.shares_memory(f.intensity, base)
        base[0] = 7.0
        assert f.intensity.tolist() == [1.0, 0.5]

    def test_normalizing_shares_the_parsed_mz(self):
        (s,) = parse_mgf("BEGIN IONS\nTITLE=a\nPEPMASS=500.1\n200.1234 2\n100.1234 4\nEND IONS\n")
        normalized = normalize_intensities(s)
        assert normalized.fragments.mz is s.fragments.mz
        assert normalized.fragments.intensity.tolist() == [0.5, 1.0]
        assert not normalized.fragments.intensity.flags.writeable


class TestCleaning:
    def test_minimums_are_paper_values(self):
        assert MIN_PEAKS == 5
        assert MIN_MZ_DECIMALS == 3

    def test_five_peaks_total_pass(self):
        # 4 fragments + precursor = 5 peaks.
        assert rejection_reason(spectrum_with(4, 4)) is None

    def test_four_peaks_total_rejected(self):
        reason = rejection_reason(spectrum_with(3, 4))
        assert reason is not None and "peak" in reason

    def test_low_decimals_rejected(self):
        reason = rejection_reason(spectrum_with(6, 2))
        assert reason is not None and "decimal" in reason

    def test_exactly_three_decimals_pass(self):
        assert rejection_reason(spectrum_with(6, 3)) is None

    def test_missing_decimal_records_rejected(self):
        s = Spectrum(
            id="s", precursor=Peak(500.0, 1.0),
            fragments=tuple(Peak(100.0 + i, 1.0) for i in range(6)),
        )
        assert s.mz_decimals is None
        assert rejection_reason(s) is not None

    def test_all_zero_intensities_rejected(self):
        zero = spectrum_with(6, 4, intensity=0.0)
        assert rejection_reason(zero) == "all fragment intensities are zero"
        kept, rejected = clean_spectra([zero])
        assert kept == []
        assert rejected == [("s", "all fragment intensities are zero")]

    def test_one_positive_intensity_passes(self):
        zero = spectrum_with(6, 4, intensity=0.0)
        lit = Spectrum(
            id="s", precursor=zero.precursor,
            fragments=zero.fragments[:-1] + (Peak(105.0, 0.5),),
            structure_id=zero.structure_id,
            mz_decimals=zero.mz_decimals,
        )
        assert rejection_reason(lit) is None

    def test_missing_structure_id_rejected_last(self):
        good = spectrum_with(6, 4)
        unlabeled = Spectrum(
            id="u", precursor=good.precursor, fragments=good.fragments,
            mz_decimals=good.mz_decimals,
        )
        assert rejection_reason(unlabeled) == "no structure id"
        kept, rejected = clean_spectra([good, unlabeled])
        assert kept == [good] and rejected == [("u", "no structure id")]
        # A spectrum that breaks an earlier rule too reports that rule.
        short = Spectrum(
            id="t", precursor=good.precursor, fragments=good.fragments[:3],
            mz_decimals=good.mz_decimals[:4],
        )
        assert "peak" in rejection_reason(short)

    def test_clean_spectra_partitions(self):
        good = spectrum_with(6, 4)
        bad = Spectrum(
            id="t", precursor=Peak(500.0, 1.0),
            fragments=(Peak(100.0, 1.0),),
            mz_decimals=(4, 4),
        )
        kept, rejected = clean_spectra([good, bad])
        assert [s.id for s in kept] == ["s"]
        assert rejected[0][0] == "t"

    def test_rejection_log_round_trip(self, tmp_path):
        path = tmp_path / "rej.tsv"
        write_rejection_log(path, [("t", "only 2 peaks, need at least 5")])
        body = path.read_text()
        assert body.startswith("spectrum_id\treason\n")
        assert "t\tonly 2 peaks" in body


class TestLabels:
    def test_property_names_match_reported_order(self):
        assert PROPERTY_NAMES == (
            "atomic_logp",
            "num_h_acceptors",
            "num_h_donors",
            "polar_surface_area",
            "num_rotatable_bonds",
            "num_aromatic_rings",
            "num_aliphatic_rings",
            "num_heteroatoms",
            "fraction_csp3",
            "qed",
        )

    def test_fingerprint_hex_decoding(self):
        fps = parse_fingerprints("m1\tf0a1\nm2\t0000\n")
        assert np.array_equal(
            fps["m1"][:8], [1, 1, 1, 1, 0, 0, 0, 0]
        )  # f -> 1111 (MSB first)
        assert np.array_equal(fps["m1"][8:12], [1, 0, 1, 0])  # a -> 1010
        assert fps["m2"].sum() == 0
        assert fps["m1"].dtype == np.uint8

    def test_fingerprint_width_must_be_uniform(self):
        with pytest.raises(ParseError):
            parse_fingerprints("m1\tf0a1\nm2\t00\n")

    def test_fingerprint_bad_hex_rejected(self):
        with pytest.raises(ParseError):
            parse_fingerprints("m1\txyzw\n")


PROPERTY_HEADER = "structure_id\t" + "\t".join(PROPERTY_NAMES)


def property_row(structure_id, value="1.0"):
    return structure_id + "\t" + "\t".join([value] * len(PROPERTY_NAMES))


def per_digit_hex_to_bits(token, line_no):
    """The former decoder, one table lookup per hex digit: the reference
    for ``labels._hex_to_bits``."""
    table = {f"{v:x}": [(v >> (3 - b)) & 1 for b in range(4)] for v in range(16)}
    bits = []
    for ch in token.lower():
        try:
            bits.extend(table[ch])
        except KeyError:
            raise ParseError(f"invalid hex digit {ch!r} in fingerprint", line_no) from None
    return np.array(bits, dtype=np.uint8)


class TestHexDecoding:
    @staticmethod
    def outcome(decode, token):
        try:
            bits = decode(token, 7)
        except ParseError as err:
            return str(err), err.line
        return bits.dtype, bits.shape, bits.tobytes()

    @pytest.mark.parametrize("length", [1, 2, 3, 8, 255, 256])
    def test_bits_match_the_per_digit_decoder(self, rng, length):
        for _ in range(20):
            token = "".join(rng.choice(list("0123456789abcdefABCDEF"), size=length))
            want = self.outcome(per_digit_hex_to_bits, token)
            assert self.outcome(labels._hex_to_bits, token) == want, token
            assert want[1] == (4 * length,)

    @pytest.mark.parametrize("bad", [
        " ", "\t", "\r", "\x0b", "\x0c", "g", "x", "G", "-", "+", ".", "\x00",
        "٣", "０", "é", "İ",
    ])
    @pytest.mark.parametrize("where", ["start", "middle", "end"])
    def test_refusals_match_the_per_digit_decoder(self, bad, where):
        # bytes.fromhex would skip the ASCII whitespace, and "İ"
        # lowercases to two characters, the first an ASCII "i".
        token = {"start": bad + "a0f", "middle": "a0" + bad + "f", "end": "a0f" + bad}[where]
        want = self.outcome(per_digit_hex_to_bits, token)
        assert want[0].startswith("line 7: invalid hex digit")
        assert self.outcome(labels._hex_to_bits, token) == want

    def test_properties_header_is_strict(self):
        header = "structure_id\t" + "\t".join(PROPERTY_NAMES)
        row = "m1\t" + "\t".join("1.0" for _ in PROPERTY_NAMES)
        props = parse_properties(header + "\n" + row + "\n")
        assert props["m1"].shape == (10,)
        scrambled = "structure_id\t" + "\t".join(reversed(PROPERTY_NAMES))
        with pytest.raises(ParseError):
            parse_properties(scrambled + "\n" + row + "\n")

    def test_properties_must_be_finite(self):
        header = "structure_id\t" + "\t".join(PROPERTY_NAMES)
        row = "m1\t" + "\t".join(["1.0"] * 9 + ["nan"])
        with pytest.raises(ParseError):
            parse_properties(header + "\n" + row + "\n")

    @pytest.mark.parametrize("text,error,line,message", [
        ("", DataError, None, "fingerprint file contains no records"),
        ("# a comment\n\n", DataError, None, "fingerprint file contains no records"),
        ("m1\tff\tff\n", ParseError, 1,
         "fingerprint line must be 'structure_id<TAB>hex', got 3 fields"),
        ("m1\tff\n# a comment\nm1\t00\n", ParseError, 3, "duplicate fingerprint for 'm1'"),
        ("m1\tff\nm2\tfff\n", ParseError, 2,
         "fingerprint width 12 for 'm2' differs from earlier width 8"),
    ])
    def test_fingerprint_refusals(self, text, error, line, message):
        with pytest.raises(error) as err:
            parse_fingerprints(text)
        assert getattr(err.value, "line", None) == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize("text,error,line,message", [
        ("", DataError, None, "property file contains no records"),
        ("# a comment\n\n", DataError, None, "property file contains no records"),
        (PROPERTY_HEADER + "\n# a comment\n", DataError, None,
         "property file contains no records"),
        (PROPERTY_HEADER + "\nm1\t1.0\n", ParseError, 2, "expected 11 columns, got 2"),
        (PROPERTY_HEADER + "\n" + property_row("m1") + "\n\n" + property_row("m1") + "\n",
         ParseError, 4, "duplicate properties for 'm1'"),
        (PROPERTY_HEADER + "\n" + property_row("m1", "x"), ParseError, 2,
         "non-numeric property value: could not convert string to float: 'x'"),
        (PROPERTY_HEADER + "\n" + property_row("m1", "inf"), ParseError, 2,
         "non-finite property value for 'm1'"),
    ])
    def test_property_refusals(self, text, error, line, message):
        with pytest.raises(error) as err:
            parse_properties(text)
        assert getattr(err.value, "line", None) == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize("fingerprint_ids,property_ids,message", [
        (["m1", "m2"], ["m1"], "missing properties for ['m2']"),
        (["m1"], ["m1", "m2"], "missing fingerprints for ['m2']"),
        (["m1", "m3"], ["m1", "m2"],
         "missing properties for ['m3']; missing fingerprints for ['m2']"),
    ])
    def test_load_molecules_names_the_unmatched_ids(
        self, tmp_path, fingerprint_ids, property_ids, message
    ):
        fp = tmp_path / "fp.tsv"
        fp.write_text("".join(f"{sid}\tff\n" for sid in fingerprint_ids))
        pr = tmp_path / "props.tsv"
        pr.write_text(PROPERTY_HEADER + "\n" + "\n".join(map(property_row, property_ids)))
        with pytest.raises(DataError) as err:
            load_molecules(fp, pr)
        assert str(err.value) == "label files disagree: " + message

    def test_load_molecules_requires_matching_ids(self, tmp_path):
        fp = tmp_path / "fp.tsv"
        fp.write_text("m1\tff\nm2\t00\n")
        pr = tmp_path / "props.tsv"
        header = "structure_id\t" + "\t".join(PROPERTY_NAMES)
        pr.write_text(header + "\nm1\t" + "\t".join(["1.0"] * 10) + "\n")
        with pytest.raises(DataError):
            load_molecules(fp, pr)

    def test_validate_coverage_names_missing_structures(self):
        spectra, molecules = toy_dataset(n_structures=3, spectra_per=2)
        validate_coverage(spectra, molecules)
        del molecules["m1"]
        with pytest.raises(DataError) as err:
            validate_coverage(spectra, molecules)
        assert "m1" in str(err.value)

    def test_unlabeled_spectra_are_refused(self):
        spectra, molecules = toy_dataset(n_structures=2, spectra_per=2)
        rng = np.random.default_rng(0)
        unlabeled = toy_spectrum("anon", None, rng)
        with pytest.raises(DataError, match="^spectrum 'anon' has no structure id$"):
            validate_coverage(spectra + [unlabeled], molecules)

    def test_labeled_structures_are_sorted_and_distinct(self):
        spectra, _ = toy_dataset(n_structures=3, spectra_per=2)
        assert labeled_structures(spectra[::-1]) == ["m0", "m1", "m2"]
        assert labeled_structures([]) == []

    def test_labeled_structures_names_the_first_unlabeled_spectrum(self):
        spectra, _ = toy_dataset(n_structures=3, spectra_per=2)
        rng = np.random.default_rng(0)
        anon = [toy_spectrum(f"anon{i}", None, rng) for i in range(2)]
        with pytest.raises(DataError, match="^spectrum 'anon1' has no structure id$"):
            labeled_structures(spectra[:3] + anon[::-1] + spectra[3:])


class TestSplits:
    def test_split_is_disjoint_and_complete(self):
        spectra, _ = toy_dataset(n_structures=10, spectra_per=4)
        assignment = make_split(spectra, n_novel=2, n_known=5, seed=0)
        all_ids = {s.id for s in spectra}
        assert assignment.train_ids | assignment.known_ids | assignment.novel_ids == all_ids
        assert not assignment.train_ids & assignment.known_ids
        assert not assignment.train_ids & assignment.novel_ids
        assert not assignment.known_ids & assignment.novel_ids

    def test_novel_structures_move_wholesale(self):
        spectra, _ = toy_dataset(n_structures=8, spectra_per=3)
        assignment = make_split(spectra, n_novel=3, n_known=0, seed=1)
        by_structure = {}
        for s in spectra:
            by_structure.setdefault(s.structure_id, set()).add(s.id)
        novel_structures = {s.structure_id for s in spectra if s.id in assignment.novel_ids}
        assert len(novel_structures) == 3
        for structure in novel_structures:
            assert by_structure[structure] <= assignment.novel_ids

    def test_known_structures_stay_in_train(self):
        spectra, _ = toy_dataset(n_structures=6, spectra_per=3)
        assignment = make_split(spectra, n_novel=0, n_known=6, seed=2)
        remaining = {}
        for s in spectra:
            if s.id in assignment.train_ids:
                remaining[s.structure_id] = remaining.get(s.structure_id, 0) + 1
        for s in spectra:
            if s.id in assignment.known_ids:
                assert remaining.get(s.structure_id, 0) >= 1

    def test_unlabeled_spectrum_is_refused(self):
        spectra, _ = toy_dataset(n_structures=4, spectra_per=3)
        rng = np.random.default_rng(0)
        anon = toy_spectrum("anon", None, rng)
        with pytest.raises(DataError, match="^spectrum 'anon' has no structure id$"):
            make_split(spectra + [anon], n_novel=1, n_known=2, seed=0)

    def test_same_seed_same_split(self):
        spectra, _ = toy_dataset(n_structures=10, spectra_per=4)
        a = make_split(spectra, n_novel=2, n_known=5, seed=9)
        b = make_split(spectra, n_novel=2, n_known=5, seed=9)
        assert a.novel_ids == b.novel_ids and a.known_ids == b.known_ids
        c = make_split(spectra, n_novel=2, n_known=5, seed=10)
        assert a.novel_ids != c.novel_ids or a.known_ids != c.known_ids

    def test_impossible_requests_raise(self):
        spectra, _ = toy_dataset(n_structures=3, spectra_per=2)
        with pytest.raises(DataError):
            make_split(spectra, n_novel=4, n_known=0, seed=0)
        with pytest.raises(DataError):
            # Each 2-spectrum structure can spare exactly one known spectrum.
            make_split(spectra, n_novel=0, n_known=4, seed=0)

    def test_manifest_round_trip(self, tmp_path):
        spectra, _ = toy_dataset(n_structures=6, spectra_per=3)
        assignment = make_split(spectra, n_novel=1, n_known=3, seed=5)
        path = tmp_path / "manifest.tsv"
        write_manifest(path, spectra, assignment)
        again = read_manifest(path, spectra)
        assert again.train_ids == assignment.train_ids
        assert again.known_ids == assignment.known_ids
        assert again.novel_ids == assignment.novel_ids

    def test_manifest_rejects_unknown_spectra(self, tmp_path):
        spectra, _ = toy_dataset(n_structures=4, spectra_per=3)
        assignment = make_split(spectra, n_novel=1, n_known=2, seed=5)
        path = tmp_path / "manifest.tsv"
        write_manifest(path, spectra, assignment)
        with pytest.raises(DataError):
            read_manifest(path, spectra[:-1])

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: ["spectrum_id\tsplit", *lines[1:]],
         "{path}: not a split manifest (bad header)"),
        (lambda lines: [*lines[:2], lines[2] + "\textra", *lines[3:]],
         "{path}:3: expected 3 columns, got 4"),
        (lambda lines: [*lines[:2], lines[2].replace("novel", "test"), *lines[3:]],
         "{path}:3: unknown split 'test'"),
        (lambda lines: [*lines, lines[1]], "{path}:14: duplicate spectrum 's0_0'"),
        (lambda lines: [lines[0], *lines[3:]], "manifest does not cover spectra: ['s0_0', 's0_1']"),
    ], ids=["header", "columns", "split", "duplicate", "uncovered"])
    def test_manifest_refusals(self, tmp_path, edit, message):
        spectra, _ = toy_dataset(n_structures=4, spectra_per=3)
        assignment = make_split(spectra, n_novel=1, n_known=2, seed=5)
        path = tmp_path / "manifest.tsv"
        write_manifest(path, spectra, assignment)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:3] == ["s0_0\tm0\tnovel", "s0_1\tm0\tnovel"]
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            read_manifest(path, spectra)
        assert str(err.value) == message.format(path=path)

    @staticmethod
    def edited_manifest(tmp_path, spectra, assignment, new_split):
        """The assignment's manifest with each row's split replaced by
        new_split(spectrum_id, structure_id, split)."""
        path = tmp_path / "manifest.tsv"
        write_manifest(path, spectra, assignment)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        edited = []
        for row in rows:
            spectrum_id, structure_id, split = row.split("\t")
            split = new_split(spectrum_id, structure_id, split)
            edited.append(f"{spectrum_id}\t{structure_id}\t{split}")
        path.write_text("\n".join([header, *edited]) + "\n", encoding="utf-8")
        return path

    def test_manifest_refuses_a_novel_spectrum_in_train(self, tmp_path):
        spectra, _ = toy_dataset(n_structures=6, spectra_per=3)
        assignment = make_split(spectra, n_novel=2, n_known=2, seed=5)
        moved = min(assignment.novel_ids)
        path = self.edited_manifest(
            tmp_path, spectra, assignment,
            lambda spectrum_id, sid, split: "train" if spectrum_id == moved else split,
        )
        with pytest.raises(DataError, match="^novel structures leak into the training structures$"):
            read_manifest(path, spectra)

    def test_manifest_refuses_an_empty_structure_column(self, tmp_path):
        spectra, _ = toy_dataset(n_structures=4, spectra_per=3)
        assignment = make_split(spectra, n_novel=1, n_known=2, seed=5)
        path = tmp_path / "manifest.tsv"
        write_manifest(path, spectra, assignment)
        lines = path.read_text(encoding="utf-8").splitlines()
        spectrum_id, _, split = lines[3].split("\t")
        lines[3] = f"{spectrum_id}\t\t{split}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = f"^{re.escape(str(path))}:4: spectrum {spectrum_id!r} has no structure id$"
        # Refused at its line whether or not the spectrum has an id.
        with pytest.raises(DataError, match=message):
            read_manifest(path, spectra)
        unlabeled = [
            dataclasses.replace(s, structure_id=None) if s.id == spectrum_id else s
            for s in spectra
        ]
        with pytest.raises(DataError, match=message):
            read_manifest(path, unlabeled)

    def test_manifest_refuses_an_unlabeled_spectrum_under_a_structure(self, tmp_path):
        spectra, _ = toy_dataset(n_structures=4, spectra_per=3)
        assignment = make_split(spectra, n_novel=1, n_known=2, seed=5)
        path = tmp_path / "manifest.tsv"
        write_manifest(path, spectra, assignment)
        unlabeled = [dataclasses.replace(spectra[0], structure_id=None), *spectra[1:]]
        with pytest.raises(
            DataError,
            match=f"^{re.escape(str(path))}:2: structure mismatch for 's0_0': "
            "manifest says 'm0', data says None$",
        ):
            read_manifest(path, unlabeled)

    def test_manifest_refuses_a_split_without_train(self, tmp_path):
        # Every row novel: both readers refuse it before any command
        # writes an output.
        spectra, _ = toy_dataset(n_structures=4, spectra_per=3)
        assignment = make_split(spectra, n_novel=1, n_known=2, seed=5)
        path = self.edited_manifest(tmp_path, spectra, assignment, lambda *_: "novel")
        with pytest.raises(DataError, match="^split leaves no training spectra$"):
            read_manifest(path, spectra)

    def test_split_without_train_is_refused(self):
        spectra, _ = toy_dataset(n_structures=2, spectra_per=1)
        with pytest.raises(DataError, match="^split leaves no training spectra$"):
            make_split(spectra, n_novel=2, n_known=0, seed=0)

    def test_manifest_refuses_a_known_structure_absent_from_train(self, tmp_path):
        spectra, _ = toy_dataset(n_structures=6, spectra_per=3)
        assignment = make_split(spectra, n_novel=2, n_known=2, seed=5)
        structure = next(
            s.structure_id for s in sorted(spectra, key=lambda s: s.id)
            if s.id in assignment.train_ids
        )
        path = self.edited_manifest(
            tmp_path, spectra, assignment,
            lambda spectrum_id, sid, split: "known" if sid == structure else split,
        )
        with pytest.raises(
            DataError, match="^known spectra reference structures absent from train$"
        ):
            read_manifest(path, spectra)


class TestFileLineEnds:
    """Label files and manifests are read as their text is, whatever
    their line ends: a lone "\r" is not a line break in either."""

    @staticmethod
    def outcome(read):
        """Each structure's fingerprint and property bits, or the
        ParseError's message and line."""
        try:
            fingerprints, properties = read()
        except ParseError as err:
            return str(err), err.line
        return sorted((k, v.tobytes(), properties[k].tobytes()) for k, v in fingerprints.items())

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_load_molecules_parses_the_file_text(self, tmp_path, end):
        header = "structure_id\t" + "\t".join(PROPERTY_NAMES)
        values = "\t".join(str(0.25 * i) for i in range(10))
        properties = f"{header}\nm1\t{values}\nm2\t{values}\n"
        cases = [
            ("m1\tf0\nm2\t0a\n", properties),
            ("m1\tf\r0\nm2\t0a\n", properties),  # "\r" inside a hex token
            ("m1\tf0\nm2\t0a\n", properties.replace("\nm2", "\rm2")),
            ("m1\tf0\nm2\t0a\n", properties.replace("\t0.5", "\r0.5")),
        ]
        fp, pr = tmp_path / "fp.tsv", tmp_path / "props.tsv"
        for fp_text, pr_text in cases:
            fp_text, pr_text = fp_text.replace("\n", end), pr_text.replace("\n", end)
            fp.write_bytes(fp_text.encode("utf-8"))
            pr.write_bytes(pr_text.encode("utf-8"))

            def from_files():
                records = load_molecules(fp, pr)
                return (
                    {k: r.fingerprint for k, r in records.items()},
                    {k: r.properties for k, r in records.items()},
                )

            want = self.outcome(lambda: (parse_fingerprints(fp_text), parse_properties(pr_text)))
            assert self.outcome(from_files) == want, (fp_text, pr_text)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_manifest_reads_the_file_text(self, tmp_path, end):
        spectra, _ = toy_dataset(n_structures=4, spectra_per=3)
        assignment = make_split(spectra, n_novel=1, n_known=2, seed=5)
        path = tmp_path / "manifest.tsv"
        write_manifest(path, spectra, assignment)
        path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        if end == "\n":
            assert read_manifest(path, spectra).train_ids == assignment.train_ids
        else:
            # Its first line is not the header: it ends in "\r" (CRLF) or
            # runs on into the rows (lone "\r").
            with pytest.raises(DataError, match="bad header"):
                read_manifest(path, spectra)
