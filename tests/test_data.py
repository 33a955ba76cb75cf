"""Dataset ingestion, normalization, selection, synthetic generation."""

import os
import re

import numpy as np
import pytest

from fdo_mlp.data import (LabeledDataset, NormalizationState, ScaleOverflowError,
                          csv_data_line, generate_synthetic, load_csv,
                          min_max_normalize, normalize_with, save_csv,
                          select_features, write_text_atomic, xor_csv_path)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_structure(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
        data = load_csv(path, "label")
        assert data.n_samples == 3
        assert data.n_features == 2
        assert data.column_names == ("a", "b")
        np.testing.assert_array_equal(data.labels, [0, 1, 0])

    def test_label_column_anywhere(self, tmp_path):
        path = write(tmp_path, "label,a\n1,9\n0,8\n")
        data = load_csv(path, "label")
        np.testing.assert_array_equal(data.features[:, 0], [9.0, 8.0])

    def test_non_numeric_cell_names_location(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,abc,0\n")
        with pytest.raises(ValueError, match=r"line 2, column 'b'"):
            load_csv(path, "label")

    def test_non_binary_label(self, tmp_path):
        path = write(tmp_path, "a,label\n1,2\n")
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            load_csv(path, "label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "label")

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="no column named"):
            load_csv(path, "label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_location(self, tmp_path, cell):
        path = write(tmp_path, f"a,b,label\n1,2,0\n3,{cell},1\n")
        with pytest.raises(ValueError, match=rf"data.csv: line 3, column 'b'.*{cell}"):
            load_csv(path, "label")

    @pytest.mark.parametrize("text, message", [
        ("", "file is empty"),
        ("label\n1\n", "no feature columns besides the label"),
        ("a,label\n", "no data rows"),
    ], ids=["empty", "label-only", "header-only"])
    def test_file_without_features_or_rows_names_file(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(ValueError, match=rf"data.csv: {message}$"):
            load_csv(path, "label")

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,0\n3,4\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path, "label")

    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path):
        path = write(tmp_path, "a,label\n1,0\n" + "9" * 140_000 + ",1\n")
        with pytest.raises(ValueError,
                           match=r"data.csv: line 3: field larger than field limit"):
            load_csv(path, "label")

    def test_lines_after_a_quoted_field_spanning_lines_are_file_lines(self, tmp_path):
        """Rows are numbered by the file line they start on, not by record."""
        path = write(tmp_path, 'a,label\n"1\n",0\nx,1\n')
        with pytest.raises(ValueError, match=r"data.csv: line 4, column 'a': cannot parse 'x'"):
            load_csv(path, "label")
        path = write(tmp_path, 'a,label\n"1\n",0\n"2\n\n",1\n3\n')
        with pytest.raises(ValueError, match=r"data.csv: line 7 has 1 cells, expected 2"):
            load_csv(path, "label")

    def test_non_utf8_byte_names_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,label\n1,0\n\xff,1\n")
        with pytest.raises(ValueError, match=r"data.csv: not UTF-8 text: .* 0xff"):
            load_csv(path, "label")

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        """A BOM before a first-column label; errors still name file lines."""
        path = write(tmp_path, "\ufefflabel,a\n1,9\n0,8\n")
        data = load_csv(path, "label")
        assert data.column_names == ("a",)
        np.testing.assert_array_equal(data.labels, [1, 0])
        path = write(tmp_path, '\ufefflabel,a\n1,9\n0,"8\n"\n1,x\n')
        with pytest.raises(ValueError, match=r"data.csv: line 5, column 'a': cannot parse 'x'"):
            load_csv(path, "label")
        assert [csv_data_line(path, row) for row in range(3)] == [2, 3, 5]

    @pytest.mark.parametrize("header", ["a,a,label", "a,b, a,label", "a,label,label"])
    def test_repeated_column_name_names_file_and_column(self, tmp_path, header):
        name = "label" if header.endswith("label,label") else "a"
        path = write(tmp_path, header + "\n" + ",".join(["1"] * header.count(",")) + ",0\n")
        with pytest.raises(ValueError,
                           match=rf"data.csv: column '{name}' appears twice in the header"):
            load_csv(path, "label")


class TestLabeledDataset:
    @pytest.mark.parametrize("features, labels, names, message", [
        (np.zeros(3), [0, 1, 0], ("a",), "features must be a 2-D matrix"),
        (np.zeros((3, 1)), [0, 1], ("a",), "labels length does not match the number of rows"),
        (np.zeros((2, 1)), [0, 2], ("a",), r"labels must be binary \(0 or 1\)"),
        (np.zeros((2, 1)), [0, 1], ("a", "b"),
         "column_names length does not match feature width"),
    ], ids=["one-dimensional", "label-count", "non-binary", "name-count"])
    def test_inconsistent_parts_rejected(self, features, labels, names, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LabeledDataset(features, labels, names)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_row_and_column(self, value):
        features = np.zeros((3, 2))
        features[2, 1] = value
        with pytest.raises(ValueError, match=re.escape(
                f"row 2, column 'b': feature {value} is not finite")):
            LabeledDataset(features, [0, 1, 0], ("a", "b"))

    def test_first_non_finite_feature_is_named(self):
        features = np.zeros((4, 3))
        features[3, 0] = np.inf
        features[1, 2] = np.nan
        with pytest.raises(ValueError, match="row 1, column 'c'"):
            LabeledDataset(features, [0, 1, 0, 1], ("a", "b", "c"))

    @pytest.mark.parametrize("indices", [[2, 0], np.array([True, False, True])])
    def test_subset_shares_no_memory_with_its_parent(self, indices):
        data = LabeledDataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], ("a", "b"))
        part = data.subset(indices)
        assert not np.shares_memory(part.features, data.features)
        assert not np.shares_memory(part.labels, data.labels)
        np.testing.assert_array_equal(part.features, data.features[indices])


class TestNormalize:
    def test_column_scaling(self):
        data = LabeledDataset(np.array([[0.0], [5.0], [10.0]]),
                              np.array([0, 1, 0]), ("x",))
        normalized = min_max_normalize(data)
        np.testing.assert_allclose(normalized.features[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        data = LabeledDataset(np.array([[7.0], [7.0], [7.0]]),
                              np.array([0, 1, 0]), ("x",))
        normalized = min_max_normalize(data)
        np.testing.assert_array_equal(normalized.features[:, 0], [0.0, 0.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(41)
        data = LabeledDataset(rng.normal(size=(20, 4)) * 10,
                              rng.integers(0, 2, 20), tuple("abcd"))
        once = min_max_normalize(data)
        twice = min_max_normalize(once)
        np.testing.assert_array_equal(once.features, twice.features)

    def test_recorded_state_inverts(self):
        rng = np.random.default_rng(43)
        data = LabeledDataset(rng.normal(size=(15, 3)) * 5 + 2,
                              rng.integers(0, 2, 15), tuple("abc"))
        normalized = min_max_normalize(data)
        state = normalized.normalization
        restored = normalized.features * (state.maxs - state.mins) + state.mins
        np.testing.assert_allclose(restored, data.features, atol=1e-12)

    def test_range_fuzz(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            data = LabeledDataset(rng.normal(size=(12, 3)) * rng.uniform(1, 100),
                                  rng.integers(0, 2, 12), tuple("abc"))
            normalized = min_max_normalize(data)
            assert normalized.features.min() >= 0.0
            assert normalized.features.max() <= 1.0

    def test_replay_uses_training_state(self):
        train = LabeledDataset(np.array([[0.0], [10.0]]), np.array([0, 1]), ("x",))
        test = LabeledDataset(np.array([[5.0], [20.0]]), np.array([0, 1]), ("x",))
        fitted = min_max_normalize(train)
        replayed = normalize_with(test, fitted.normalization)
        np.testing.assert_allclose(replayed.features[:, 0], [0.5, 2.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fit_whose_span_overflows_names_row_and_column(self):
        """Fitting goes through the replay's finite check: a column spanning
        the whole float range cannot be scaled, and no numpy warning comes
        first."""
        wide = LabeledDataset(np.array([[0.5, -1e308], [0.7, 1e308]]), [0, 1], ("a", "b"))
        with pytest.raises(ScaleOverflowError, match="^row 1, column 'b': value 1e"):
            min_max_normalize(wide)

    def test_replay_of_a_state_of_another_width_rejected(self):
        state = NormalizationState(np.zeros(3), np.ones(3))
        data = LabeledDataset(np.zeros((2, 2)), np.array([0, 1]), ("a", "b"))
        with pytest.raises(ValueError,
                           match="normalization state does not match feature width"):
            normalize_with(data, state)

    def test_replay_past_the_float_range_names_row_and_column(self):
        state = NormalizationState(np.array([0.0, 0.0]), np.array([1.0, 1e-300]))
        far = LabeledDataset(np.array([[0.5, 0.5], [0.5, 1e10]]), np.array([0, 1]),
                             ("a", "b"))
        with pytest.raises(ScaleOverflowError,
                           match="^row 1, column 'b': value 10000000000.0 scales past") as err:
            normalize_with(far, state)
        assert (err.value.row, err.value.column, err.value.value) == (1, "b", 1e10)


class TestCsvDataLine:
    def test_counts_file_lines_as_load_csv_does(self, tmp_path):
        path = write(tmp_path, 'a,label\n"1\n\n",0\n2,1\n3,0\n')
        assert [csv_data_line(path, row) for row in range(3)] == [2, 5, 6]

    def test_missing_row(self, tmp_path):
        path = write(tmp_path, "a,label\n1,0\n")
        with pytest.raises(ValueError, match="no data row 1"):
            csv_data_line(path, 1)


class TestSelectFeatures:
    def make(self):
        rng = np.random.default_rng(47)
        return LabeledDataset(rng.normal(size=(5, 4)), rng.integers(0, 2, 5),
                              ("a", "b", "c", "d"))

    def test_keep_all_is_identity(self):
        data = self.make()
        kept = select_features(data, ["a", "b", "c", "d"])
        np.testing.assert_array_equal(kept.features, data.features)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            select_features(self.make(), [])

    def test_unknown_column(self):
        with pytest.raises(ValueError, match="unknown column"):
            select_features(self.make(), ["a", "zz"])

    def test_repeated_column_rejected(self):
        with pytest.raises(ValueError, match="column 'b' is kept more than once"):
            select_features(self.make(), ["a", "b", "b"])

    def test_order_preserved(self):
        data = self.make()
        kept = select_features(data, ["d", "a"])
        assert kept.column_names == ("d", "a")
        np.testing.assert_array_equal(kept.features[:, 0], data.features[:, 3])

    def test_eighteen_of_twenty(self):
        rng = np.random.default_rng(48)
        names = tuple(f"c{i:02d}" for i in range(20))
        data = LabeledDataset(rng.normal(size=(6, 20)), rng.integers(0, 2, 6), names)
        kept = select_features(data, list(names[:18]))
        assert kept.n_features == 18


class TestGenerateSynthetic:
    def test_reference_balance(self):
        data = generate_synthetic(287, 18, 6.0, 183 / 287, np.random.default_rng(7))
        assert int(np.sum(data.labels == 1)) == 183
        assert int(np.sum(data.labels == 0)) == 104
        assert data.features.shape == (287, 18)

    def test_separation_realized(self):
        data = generate_synthetic(400, 5, 6.0, 0.5, np.random.default_rng(8))
        gap = (data.features[data.labels == 1].mean(axis=0)
               - data.features[data.labels == 0].mean(axis=0))
        assert 5.0 < np.linalg.norm(gap) < 7.0

    def test_zero_separation_overlaps(self):
        data = generate_synthetic(400, 5, 0.0, 0.5, np.random.default_rng(9))
        gap = (data.features[data.labels == 1].mean(axis=0)
               - data.features[data.labels == 0].mean(axis=0))
        assert np.linalg.norm(gap) < 1.0

    def test_rows_shuffled(self):
        data = generate_synthetic(100, 2, 3.0, 0.5, np.random.default_rng(10))
        assert data.labels[:50].sum() not in (0, 50)

    @pytest.mark.parametrize("samples, features", [(1, 2), (10, 0)])
    def test_too_few_samples_or_features_rejected(self, samples, features):
        with pytest.raises(ValueError, match="need at least 2 samples and 1 feature"):
            generate_synthetic(samples, features, 1.0, 0.5, np.random.default_rng(0))

    def test_negative_separation_rejected(self):
        with pytest.raises(ValueError, match="class_separation must be non-negative"):
            generate_synthetic(10, 2, -1.0, 0.5, np.random.default_rng(0))

    def test_degenerate_balance_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(10, 2, 1.0, 0.999, np.random.default_rng(0))


class TestCsvRoundtrip:
    def test_save_load_exact(self, tmp_path):
        data = generate_synthetic(25, 3, 2.0, 0.4, np.random.default_rng(11))
        path = tmp_path / "round.csv"
        save_csv(data, path)
        again = load_csv(path, "label")
        np.testing.assert_array_equal(again.features, data.features)
        np.testing.assert_array_equal(again.labels, data.labels)
        assert again.column_names == data.column_names


class TestBundledXor:
    def test_loads(self):
        data = load_csv(xor_csv_path(), "label")
        assert data.n_samples == 4
        assert data.n_features == 2
        np.testing.assert_array_equal(np.sort(data.labels), [0, 0, 1, 1])


class TestWriteTextAtomic:
    def test_replaces_file_and_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "sub" / "out.txt"
        write_text_atomic(target, "old\n")
        write_text_atomic(target, "new\n")
        assert target.read_text() == "new\n"
        assert os.listdir(target.parent) == ["out.txt"]

    def test_keeps_the_default_file_mode(self, tmp_path):
        (tmp_path / "plain.txt").write_text("x")
        write_text_atomic(tmp_path / "atomic.txt", "x")
        assert ((tmp_path / "atomic.txt").stat().st_mode
                == (tmp_path / "plain.txt").stat().st_mode)

    def test_failed_rename_removes_temporary_and_keeps_target(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        (target / "inside").write_text("keep")
        with pytest.raises(OSError):
            write_text_atomic(target, "text")
        assert sorted(os.listdir(tmp_path)) == ["taken"]
        assert (target / "inside").read_text() == "keep"

    def test_temporary_name_is_per_process(self, tmp_path, monkeypatch):
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(os.path.basename(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        write_text_atomic(tmp_path / "out.csv", "x")
        assert seen == [f".out.csv.{os.getpid()}.tmp"]
