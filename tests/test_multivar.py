import math
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmerge.multivar import factor_plot_medians, pca, project_first_plane
from rankmerge.svgplot import PALETTE, build_plot_spec, escape, render_svg

SQRT5 = math.sqrt(5.0)


class TestPcaLineExample:
    """Three collinear points carry all variance on one axis."""

    data = [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]

    def test_eigenvalues(self):
        r = pca(self.data)
        assert r.eigenvalues[0] == pytest.approx(5.0, abs=1e-8)
        assert r.eigenvalues[1] == pytest.approx(0.0, abs=1e-8)

    def test_first_loading_direction(self):
        r = pca(self.data)
        expected = np.array([1.0, 2.0]) / SQRT5
        assert r.loadings[:, 0] == pytest.approx(expected, abs=1e-8)

    def test_scores_along_the_line(self):
        r = pca(self.data)
        assert r.scores[:, 0] == pytest.approx([-SQRT5, 0.0, SQRT5], abs=1e-8)

    def test_second_axis_empty(self):
        r = pca(self.data)
        pts = project_first_plane(r, ["a", "b", "c"])
        assert all(abs(y) < 1e-8 for _, _, y, _ in pts)


class TestPcaStructure:
    def test_orthogonal_contrast_equal_eigenvalues(self):
        data = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
        r = pca(data)
        assert r.eigenvalues[0] == pytest.approx(r.eigenvalues[1], abs=1e-10)

    def test_loadings_orthonormal(self):
        rng = np.random.default_rng(21)
        r = pca(rng.normal(size=(40, 6)))
        gram = r.loadings.T @ r.loadings
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8

    def test_eigenvalue_sum_is_total_variance(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(30, 5)) * np.array([1, 2, 3, 4, 5.0])
        r = pca(x)
        assert r.eigenvalues.sum() == pytest.approx(
            np.var(x, axis=0, ddof=1).sum(), rel=1e-10)

    def test_rank_two_reconstruction(self):
        rng = np.random.default_rng(23)
        basis = rng.normal(size=(2, 5))
        weights = rng.normal(size=(50, 2))
        x = weights @ basis
        r = pca(x)
        assert np.all(r.eigenvalues[2:] < 1e-12)
        x_hat = r.scores[:, :2] @ r.loadings[:, :2].T + r.centers
        assert np.max(np.abs(x_hat - x)) < 1e-8

    def test_variable_permutation_equivariance(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(25, 4))
        perm = [2, 0, 3, 1]
        r = pca(x)
        r_perm = pca(x[:, perm])
        assert r_perm.eigenvalues == pytest.approx(r.eigenvalues, abs=1e-10)
        # scores are coordinate-free up to the sign convention; compare
        # absolute values to stay convention-independent
        assert np.abs(r_perm.scores) == pytest.approx(np.abs(r.scores),
                                                      abs=1e-8)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(20, 3))
        r = pca(x)
        r_shift = pca(x + np.array([100.0, -7.0, 3.5]))
        assert r_shift.eigenvalues == pytest.approx(r.eigenvalues, abs=1e-8)
        assert r_shift.scores == pytest.approx(r.scores, abs=1e-8)

    def test_scaled_pca_ignores_variable_units(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(30, 3))
        r = pca(x, scale=True)
        r_units = pca(x * np.array([1.0, 1000.0, 0.01]), scale=True)
        assert r_units.eigenvalues == pytest.approx(r.eigenvalues, abs=1e-8)

    def test_scale_rejects_constant_variable(self):
        with pytest.raises(ValueError, match="constant"):
            pca([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]], scale=True)

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            pca([[1.0, float("nan")], [2.0, 3.0]])

    def test_single_individual_rejected(self):
        with pytest.raises(ValueError, match="two individuals"):
            pca([[1.0, 2.0]])

    def test_one_dim_input_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            pca([1.0, 2.0, 3.0])


class TestProjectFirstPlane:
    def test_labels_and_names_pass_through(self):
        r = pca([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        pts = project_first_plane(r, ["x", "y", "x"], names=["s1", "s2", "s3"])
        assert [(p[0], p[3]) for p in pts] \
            == [("s1", "x"), ("s2", "y"), ("s3", "x")]

    def test_default_names_are_indices(self):
        r = pca([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        pts = project_first_plane(r, ["a"] * 3)
        assert [p[0] for p in pts] == ["0", "1", "2"]

    def test_label_count_mismatch(self):
        r = pca([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(ValueError, match="label"):
            project_first_plane(r, ["a", "b"])

    def test_single_component_rejected(self):
        rng = np.random.default_rng(27)
        r = pca(rng.normal(size=(5, 1)))
        with pytest.raises(ValueError, match="two components"):
            project_first_plane(r, list("abcde"))


class TestFactorPlotMedians:
    def medians(self, rng, n_feat=50, n_ds=4):
        return rng.normal(size=(n_feat, n_ds))

    def test_identical_datasets_identical_coordinates(self):
        rng = np.random.default_rng(31)
        v = rng.normal(size=50)
        m = np.column_stack([v, v, rng.normal(size=50)])
        out = factor_plot_medians(m, ["a", "b", "c"])
        (xa, ya), (xb, yb) = (out[0][1], out[0][2]), (out[1][1], out[1][2])
        assert xa == pytest.approx(xb, abs=1e-10)
        assert ya == pytest.approx(yb, abs=1e-10)

    def test_sign_flipped_dataset_diametrically_opposed(self):
        rng = np.random.default_rng(32)
        v = rng.normal(size=60)
        m = np.column_stack([v, -v, rng.normal(size=60)])
        out = factor_plot_medians(m, ["a", "b", "c"])
        assert out[0][1] == pytest.approx(-out[1][1], abs=1e-10)
        assert out[0][2] == pytest.approx(-out[1][2], abs=1e-10)

    def test_loading_magnitude_bounded(self):
        rng = np.random.default_rng(33)
        out = factor_plot_medians(self.medians(rng, 80, 6),
                                  [f"d{i}" for i in range(6)])
        for _, x, y in out:
            assert abs(x) <= 1.0 + 1e-12 and abs(y) <= 1.0 + 1e-12

    def test_names_preserved_in_order(self):
        rng = np.random.default_rng(34)
        out = factor_plot_medians(self.medians(rng), list("wxyz"))
        assert [name for name, _, _ in out] == ["w", "x", "y", "z"]

    def test_constant_vector_rejected_by_name(self):
        rng = np.random.default_rng(35)
        m = self.medians(rng)
        m[:, 2] = 7.0
        with pytest.raises(ValueError, match="'y'"):
            factor_plot_medians(m, list("wxyz"))

    def test_too_few_datasets(self):
        rng = np.random.default_rng(36)
        with pytest.raises(ValueError, match="at least 3"):
            factor_plot_medians(rng.normal(size=(50, 2)), ["a", "b"])

    def test_name_count_mismatch(self):
        rng = np.random.default_rng(37)
        with pytest.raises(ValueError, match="name per dataset"):
            factor_plot_medians(self.medians(rng), ["a", "b", "c"])


class TestSvgPlot:
    def points(self):
        return [(0.0, 0.0, "beta"), (1.5, -2.25, "alpha"),
                (-3.0, 4.0, "beta"), (0.25, 0.75, "gamma")]

    def test_byte_identical_across_builds(self):
        a = render_svg(build_plot_spec(self.points(), "x", "y", "t"))
        b = render_svg(build_plot_spec(list(self.points()), "x", "y", "t"))
        assert a == b

    def test_palette_assigned_lexicographically(self):
        spec = build_plot_spec(self.points(), "x", "y", "t")
        assert [label for label, _ in spec.palette] \
            == ["alpha", "beta", "gamma"]
        assert [color for _, color in spec.palette] == list(PALETTE[:3])

    def test_label_order_in_input_is_irrelevant(self):
        rev = list(reversed(self.points()))
        a = build_plot_spec(self.points(), "x", "y", "t").palette
        b = build_plot_spec(rev, "x", "y", "t").palette
        assert a == b

    def test_svg_header_and_size(self):
        svg = render_svg(build_plot_spec(self.points(), "x", "y", "t"))
        assert svg.startswith('<?xml version="1.0"')
        assert '<svg xmlns="http://www.w3.org/2000/svg" version="1.1"' in svg
        assert 'width="640"' in svg and 'height="480"' in svg

    def test_labels_escaped(self):
        pts = [(0.0, 0.0, "a<b&c"), (1.0, 1.0, "plain")]
        svg = render_svg(build_plot_spec(pts, "x<axis>", "y&z", "t"))
        assert "a&lt;b&amp;c" in svg
        assert "<b&c" not in svg

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.sampled_from("&<>;amp lgt\"'\u00e9\n")
                   | st.characters()))
    def test_escape_matches_saxutils(self, text):
        assert escape(text) == saxutils.escape(text)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="nothing"):
            build_plot_spec([], "x", "y", "t")

    def test_more_labels_than_palette_cycles(self):
        pts = [(float(i), float(i), f"l{i:02d}") for i in range(12)]
        spec = build_plot_spec(pts, "x", "y", "t")
        colors = [c for _, c in spec.palette]
        assert colors[10] == PALETTE[0] and colors[11] == PALETTE[1]
