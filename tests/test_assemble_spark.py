"""Tests for the unified feature representation (Spark featurization)."""
import numpy as np
import pytest

from repro.datasets.base import ROW_ID
from repro.features.assemble import (
    build_context,
    collect_feature_matrices,
    features_sdf,
    featurize_pdf,
    featurize_rows,
)
from repro.features.correlation import top_related
from repro.features.criteria import Criterion


@pytest.fixture(scope="module")
def ctx(hospital_stats):
    related = top_related(hospital_stats, 2)
    criteria = {
        a: [Criterion(a, "not_missing", "nm"), Criterion(a, "length", "len", {"lo": 1, "hi": 60})]
        for a in hospital_stats.attrs
    }
    return build_context(hospital_stats, related, criteria)


@pytest.fixture(scope="module")
def feats(spark, hospital_sdf, ctx, hospital_tiny):
    sdf = features_sdf(hospital_sdf, ctx).cache()
    return collect_feature_matrices(sdf, hospital_tiny.attrs)


def test_dims(ctx):
    for a in ctx.attrs:
        base = 5 + len(ctx.related[a]) + ctx.emb_dim + 2
        assert ctx.base_dim(a) == base
        assert ctx.full_dim(a) == base + sum(ctx.base_dim(q) for q in ctx.related[a])


def test_matrix_shapes(feats, ctx, hospital_tiny):
    row_ids, mats = feats
    assert list(row_ids) == list(range(len(hospital_tiny.dirty)))
    for a in ctx.attrs:
        assert mats[a].shape == (len(hospital_tiny.dirty), ctx.full_dim(a))
        assert np.isfinite(mats[a]).all()


def test_features_bounded(feats, ctx):
    _, mats = feats
    for a in ctx.attrs:
        assert mats[a].max() <= 1.0 + 1e-9
        assert mats[a].min() >= -1.0 - 1e-9


def test_spark_matches_driver_featurization(feats, ctx, hospital_tiny):
    """mapInPandas output == the same driver-side computation, row by row."""
    _, mats = feats
    pdf = hospital_tiny.dirty.copy()
    pdf.insert(0, ROW_ID, range(len(pdf)))
    local = featurize_pdf(ctx, pdf.head(20))
    for a in ctx.attrs[:4]:
        np.testing.assert_allclose(mats[a][:20], local[a], atol=1e-12)


def test_featurize_pdf_matches_per_cell_reference(ctx, hospital_tiny):
    """Each row is f_base(own) ⊕ related_weight·f_base(q), cell by cell."""
    pdf = hospital_tiny.dirty.head(15).copy()
    pdf.insert(0, ROW_ID, range(len(pdf)))
    mats = featurize_pdf(ctx, pdf)
    for i, row in enumerate(pdf.to_dict("records")):
        for a in ctx.attrs:
            ref = np.concatenate(
                [ctx.base_features(a, row[a], row)]
                + [ctx.related_weight * ctx.base_features(q, row[q], row) for q in ctx.related[a]]
            )
            np.testing.assert_array_equal(mats[a][i], ref)


def test_synthetic_row_copy_featurizes_like_real_row(feats, ctx, hospital_tiny):
    """A synthetic row equal to real row i gets mats[a][i] (classifier path)."""
    _, mats = feats
    for i in (0, 7, 42):
        synth = hospital_tiny.dirty.iloc[i].to_dict()
        for a in ctx.attrs:
            np.testing.assert_array_equal(featurize_rows(ctx, [synth], [a])[a][0], mats[a][i])


def test_zero_rows_keep_full_dim(ctx):
    out = featurize_rows(ctx, [], ctx.attrs)
    for a in ctx.attrs:
        assert out[a].shape == (0, ctx.full_dim(a))


def test_loo_unique_value_scores_zero(ctx):
    """A value appearing once in the data must read frequency 0 (LOO)."""
    row = {a: "" for a in ctx.attrs}
    row["city"] = "value-that-does-not-exist"
    f = ctx.base_features("city", row["city"], row)
    assert f[0] == 0.0  # value frequency


def test_loo_synth_matches_real_for_shared_value(ctx, hospital_tiny):
    """A synthetic cell carrying an existing value featurizes identically."""
    real_row = hospital_tiny.dirty.iloc[0].to_dict()
    synth_row = dict(real_row)  # same values, not present in the table
    a = "city"
    np.testing.assert_allclose(
        ctx.base_features(a, real_row[a], real_row),
        ctx.base_features(a, synth_row[a], synth_row),
    )


def test_criteria_bits_present(ctx):
    row = {a: "x" for a in ctx.attrs}
    f = ctx.base_features("city", "", row)
    # last two slots are the criteria bits; empty value fails not_missing
    assert f[-2] == 0.0  # not_missing
    assert f[-1] == 1.0  # length abstains on missing (passes)


def test_vicinity_slot_reflects_cooccurrence(ctx, hospital_tiny):
    clean = hospital_tiny.clean
    city = clean["city"].mode()[0]
    row = clean[clean["city"] == city].iloc[0].to_dict()
    q = ctx.related["state"]
    f = ctx.base_features("state", row["state"], row)
    # vicinity features live right after the 5 frequency slots
    vic = f[5: 5 + len(q)]
    assert (vic >= 0).all() and (vic <= 1).all()
