"""Scenario generators: bounds, moments, reproducibility, file format."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from sparsemix.simulate import (
    ScenarioConfig,
    data_hash,
    gen_centers,
    gen_replicate,
    gen_sample,
    read_sample,
    replicate_seed_seq,
    write_sample,
)


def config(dim=2, dilation=10.0, **kw):
    return ScenarioConfig(dim=dim, dilation=dilation, **kw)


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            config(dilation=0.0)
        with pytest.raises(ValueError):
            config(weights=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            config(variances=(5.0, -1.0, 10.0))
        with pytest.raises(ValueError):
            ScenarioConfig(dim=0, dilation=10.0)

    def test_cube_bounds(self):
        assert config(dilation=10.0).cube_bounds == (-5.0, 5.0)
        assert config(dilation=100.0).cube_bounds == (-50.0, 50.0)


class TestGenCenters:
    def test_bounds_dilation_10(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            centers = gen_centers(config(dilation=10.0), rng)
            assert centers.shape == (3, 2)
            assert np.all(centers >= -5.0) and np.all(centers <= 5.0)

    def test_bounds_dilation_100(self):
        rng = np.random.default_rng(1)
        centers = gen_centers(config(dilation=100.0), rng)
        assert np.all(centers >= -50.0) and np.all(centers <= 50.0)

    def test_deterministic_given_seed(self):
        a = gen_centers(config(), np.random.default_rng(42))
        b = gen_centers(config(), np.random.default_rng(42))
        npt.assert_array_equal(a, b)

    def test_coordinate_marginals_uniform(self):
        # Kolmogorov-Smirnov on 10^4 coordinate draws at significance 0.01
        cfg = config(dim=2, dilation=20.0)
        rng = np.random.default_rng(7)
        draws = np.concatenate([gen_centers(cfg, rng).ravel() for _ in range(1667)])[:10000]
        result = stats.kstest(draws, stats.uniform(loc=-10.0, scale=20.0).cdf)
        assert result.pvalue > 0.01


class TestGenSample:
    def test_degenerate_variances_hit_centers(self):
        cfg = ScenarioConfig(dim=2, dilation=10.0, variances=(1e-20, 1e-20, 1e-20))
        rng = np.random.default_rng(3)
        centers = gen_centers(cfg, rng)
        sample = gen_sample(cfg, centers, rng)
        npt.assert_allclose(sample.points, centers[sample.labels], atol=1e-8)

    def test_label_frequencies(self):
        cfg = ScenarioConfig(dim=2, dilation=10.0, n_points=100_000)
        rng = np.random.default_rng(4)
        sample = gen_sample(cfg, gen_centers(cfg, rng), rng)
        freq = np.bincount(sample.labels, minlength=3) / 100_000
        for k, p in enumerate((0.3, 0.2, 0.5)):
            se = np.sqrt(p * (1 - p) / 100_000)
            assert abs(freq[k] - p) < 3 * se

    def test_component_moments(self):
        cfg = ScenarioConfig(dim=3, dilation=10.0, n_points=100_000)
        rng = np.random.default_rng(5)
        centers = gen_centers(cfg, rng)
        sample = gen_sample(cfg, centers, rng)
        for k, var in enumerate((5.0, 7.0, 10.0)):
            pts = sample.points[sample.labels == k]
            emp_mean = pts.mean(axis=0)
            npt.assert_allclose(emp_mean, centers[k], atol=4 * np.sqrt(var / len(pts)))
            emp_cov = np.cov(pts.T)
            npt.assert_allclose(np.diag(emp_cov), var, rtol=0.1)
            off = emp_cov - np.diag(np.diag(emp_cov))
            assert np.max(np.abs(off)) < 0.1 * var

    def test_labels_in_range(self):
        cfg = config()
        rng = np.random.default_rng(6)
        sample = gen_sample(cfg, gen_centers(cfg, rng), rng)
        assert sample.labels.min() >= 0 and sample.labels.max() < 3


class TestReplicateStreams:
    def test_replicates_reproducible_and_distinct(self):
        cfg = config(dilation=30.0)
        a = gen_replicate(cfg, 5)
        b = gen_replicate(cfg, 5)
        npt.assert_array_equal(a.points, b.points)
        c = gen_replicate(cfg, 6)
        assert not np.array_equal(a.points, c.points)

    def test_streams_independent_of_spawn_order(self):
        s1 = replicate_seed_seq(0, 2, 10.0, 3)
        s2 = replicate_seed_seq(0, 2, 10.0, 3)
        assert s1.entropy == s2.entropy

    def test_cells_use_distinct_streams(self):
        assert replicate_seed_seq(0, 2, 10.0, 0).entropy != replicate_seed_seq(0, 3, 10.0, 0).entropy
        assert replicate_seed_seq(0, 2, 10.0, 0).entropy != replicate_seed_seq(0, 2, 20.0, 0).entropy
        assert replicate_seed_seq(0, 2, 10.0, 0).entropy != replicate_seed_seq(1, 2, 10.0, 0).entropy

    def test_data_hash_stable(self):
        cfg = config(dilation=30.0)
        assert data_hash(gen_replicate(cfg, 1)) == data_hash(gen_replicate(cfg, 1))
        assert data_hash(gen_replicate(cfg, 1)) != data_hash(gen_replicate(cfg, 2))


class TestSampleFiles:
    def test_roundtrip(self, tmp_path):
        cfg = config(dilation=30.0)
        sample = gen_replicate(cfg, 0)
        path = tmp_path / "sample.txt"
        write_sample(path, sample)
        points, labels = read_sample(path)
        npt.assert_array_equal(points, sample.points)
        npt.assert_array_equal(labels, sample.labels)

    def test_header_line_format(self, tmp_path):
        cfg = config(dim=2, dilation=10.0, n_points=10)
        path = tmp_path / "sample.txt"
        write_sample(path, gen_replicate(cfg, 0))
        first = path.read_text().splitlines()[0]
        assert first == "2 10 3"

    def test_headerless_table_accepted(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("1.0 2.0\n3.0 4.0\n-1.5 0.25\n")
        points, labels = read_sample(path)
        assert labels is None
        npt.assert_array_equal(points, [[1.0, 2.0], [3.0, 4.0], [-1.5, 0.25]])

    def test_three_integer_columns_without_header(self, tmp_path):
        # a second line without d + 1 fields rules out the "d n K" header
        path = tmp_path / "plain.txt"
        path.write_text("1 2 3\n4 5 6\n")
        points, labels = read_sample(path)
        assert labels is None
        npt.assert_array_equal(points, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        # so does one whose first row has a value below 1
        path.write_text("0 1 2\n3 4 5\n")
        points, labels = read_sample(path)
        assert labels is None
        npt.assert_array_equal(points, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])

    def test_malformed_lines_name_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 3\n1.0 2.0 0\n1.0 oops 1\n")
        with pytest.raises(ValueError, match="line 3"):
            read_sample(path)
        path.write_text("2 2 3\n1.0 2.0 0\n")
        with pytest.raises(ValueError, match="expected 2 data lines"):
            read_sample(path)
        path.write_text("")
        with pytest.raises(ValueError, match="line 1"):
            read_sample(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1 2\n0.0 5\n")
        with pytest.raises(ValueError, match="label out of range"):
            read_sample(path)

    @pytest.mark.parametrize("text, message", [
        # headered: "d n K", then n lines of d coordinates and a label
        ("", "line 1: file contains no data"),
        ("\n  \n", "line 1: file contains no data"),
        ("2 2 3\n1.0 2.0 0\n1.0 2.0\n", "line 3: expected 3 fields, found 2"),
        ("2 2 3\n1.0 inf 0\n1.0 2.0 1\n", "non-finite coordinate values"),
        ("2 2 3\n1.0 inf 0\n1.0 x 1\n", "line 3: unparseable value"),
        ("0 2 3\n1.0 0\n1.0 1\n", "line 1: header values must be positive"),
        ("\n\n2 -1 3\n", "line 3: header values must be positive"),
        ("1 2 2\n0.0 1.5\n1.0 1\n", "line 2: unparseable value"),
        ("1 2 2\n0.0 2\n1.0 x\n", "line 2: label out of range [0, 2)"),
        ("2 2 3\n1.0 x 0\n", "expected 2 data lines, found 1"),
        ("2 3 2\n0.5 1.5 0\n-1.0 2.0 1\n", "expected 3 data lines, found 2"),
        ("2 2 3\n\n1.0 2.0 0\n\n\n1.0 x 1\n", "line 6: unparseable value"),
        ("\n2 2 3\n1.0 2.0 0\n\n1.0 2.0 0 4\n", "line 5: expected 3 fields, found 4"),
        # headerless: rows of as many floats as the first row
        ("1.0 2.0\n3.0\n", "line 2: expected 2 fields, found 1"),
        ("1.0 2.0\n3.0 nan\n", "non-finite coordinate values"),
        ("1.0 2.0\n3.0 x\n", "line 2: unparseable value"),
        ("\n1.0 2.0\n\n\n3.0 4.0 5.0\n", "line 5: expected 2 fields, found 3"),
        ("\n\n1.0 2.0\n\n3.0 x\n", "line 5: unparseable value"),
        ("1 2 x\n", "line 1: unparseable value"),
    ])
    def test_error_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_sample(path)
        assert str(err.value) == f"{path}: {message}"

    def test_blank_lines_are_skipped_in_both_layouts(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("\n2 2 3\n\n1.0 2.0 0\n\n-1.5 0.25 2\n\n")
        points, labels = read_sample(path)
        npt.assert_array_equal(points, [[1.0, 2.0], [-1.5, 0.25]])
        npt.assert_array_equal(labels, [0, 2])
        path.write_text("\n1.0 2.0\n\n-1.5 0.25\n\n")
        points, labels = read_sample(path)
        assert labels is None
        npt.assert_array_equal(points, [[1.0, 2.0], [-1.5, 0.25]])
