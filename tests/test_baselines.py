"""Tests for the six baseline reimplementations."""
import numpy as np
import pytest

from repro.baselines import activeclean, dboost, fm_ed, katara, nadeef, raha
from repro.core.metrics import prf


def _shape_ok(mask, ds):
    assert mask.shape == ds.dirty.shape
    assert list(mask.columns) == ds.attrs
    assert mask.dtypes.map(lambda d: d == bool).all()


# ------------------------------------------------------------------- dBoost


def test_dboost_shape_and_determinism(spark, hospital_tiny, hospital_stats):
    m1 = dboost.detect(spark, hospital_tiny, hospital_stats)
    m2 = dboost.detect(spark, hospital_tiny, hospital_stats)
    _shape_ok(m1, hospital_tiny)
    assert m1.equals(m2)


def test_dboost_flags_numeric_outliers(spark, hospital_tiny, hospital_stats):
    mask = dboost.detect(spark, hospital_tiny, hospital_stats)
    types = hospital_tiny.error_types
    o_cells = [
        (i, "sample") for i in range(len(types))
        if types.iloc[i, hospital_tiny.attrs.index("sample")] == "O"
    ]
    if o_cells:
        hits = sum(mask.iloc[i][a] for i, a in o_cells)
        assert hits / len(o_cells) > 0.7


def test_dboost_ignores_missing(spark, flights_tiny):
    # Table I: dBoost does not process missing-value errors
    mask = dboost.detect(spark, flights_tiny)
    mv = flights_tiny.error_types.to_numpy() == "MV"
    assert mask.to_numpy()[mv].mean() == 0.0


def test_dboost_cannot_see_rule_violations(spark, hospital_tiny, hospital_stats):
    mask = dboost.detect(spark, hospital_tiny, hospital_stats)
    rv = hospital_tiny.error_types.to_numpy() == "RV"
    if rv.sum() >= 5:
        # RV cells look statistically normal — dBoost recall on them is low
        assert mask.to_numpy()[rv].mean() < 0.5


# ------------------------------------------------------------------- NADEEF


def test_nadeef_flags_pattern_violations(spark, hospital_tiny):
    mask = nadeef.detect(spark, hospital_tiny)
    _shape_ok(mask, hospital_tiny)
    types = hospital_tiny.error_types
    ruled = set(hospital_tiny.nadeef_attrs or hospital_tiny.patterns)
    pv = [
        (i, a) for a in ruled for i in range(len(types))
        if types.iloc[i, hospital_tiny.attrs.index(a)] in ("PV", "MV")
    ]
    if pv:
        hits = sum(mask.iloc[i][a] for i, a in pv)
        assert hits / len(pv) > 0.6


def test_nadeef_fd_violation_flags_group(spark, hospital_tiny):
    mask = nadeef.detect(spark, hospital_tiny)
    types = hospital_tiny.error_types.to_numpy()
    rv = types == "RV"
    if rv.sum() >= 3:
        assert mask.to_numpy()[rv].mean() > 0.5  # violating cells get caught...
        m = prf(mask, hospital_tiny.error_mask)
        assert m["prec"] < 0.8  # ...at the cost of flagging clean group peers


def test_nadeef_clean_dataset_mostly_unflagged(spark, hospital_tiny):
    import pandas as pd

    from repro.datasets.base import Dataset

    clean_ds = Dataset(
        name="clean", dirty=hospital_tiny.clean.copy(), clean=hospital_tiny.clean.copy(),
        fds=hospital_tiny.fds, patterns=hospital_tiny.patterns,
    )
    mask = nadeef.detect(spark, clean_ds)
    assert mask.to_numpy().mean() < 0.02


@pytest.mark.parametrize(
    "fd, violating_rows",
    [(("zip.code", "city name"), [0, 1]), (("city name", "zip.code"), [2, 5])],
    ids=["zip_to_city", "city_to_zip"],
)
def test_nadeef_fd_on_dotted_and_spaced_names(spark, fd, violating_rows):
    import pandas as pd

    from repro.datasets.base import Dataset

    dirty = pd.DataFrame(
        {
            "zip.code": ["10001", "10001", "10002", "10003", "10003", "10004"],
            "city name": ["New York", "Newark", "Boston", "Chicago", "Chicago", "Boston"],
        }
    )
    ds = Dataset(name="fd_names", dirty=dirty, clean=dirty.copy(), fds=[fd])
    mask = nadeef.detect(spark, ds)
    _shape_ok(mask, ds)
    flagged = mask.any(axis=1)
    assert list(flagged[flagged].index) == violating_rows
    assert mask.loc[violating_rows].all().all()


# ------------------------------------------------------------------- KATARA


def test_katara_flags_kb_contradictions(spark, hospital_tiny):
    mask = katara.detect(spark, hospital_tiny)
    _shape_ok(mask, hospital_tiny)
    # every flagged cell genuinely contradicts the KB
    for (lhs, rhs), mapping in hospital_tiny.kb.items():
        flagged = mask[rhs]
        for i in np.flatnonzero(flagged.to_numpy()):
            lv = hospital_tiny.dirty[lhs].iloc[i]
            assert lv in mapping
            assert hospital_tiny.dirty[rhs].iloc[i] != mapping[lv]


def test_katara_zero_without_kb(spark, flights_tiny):
    mask = katara.detect(spark, flights_tiny)
    assert not mask.to_numpy().any()


# -------------------------------------------------------------- ActiveClean


def test_activeclean_tuple_granularity(spark, flights_tiny):
    mask = activeclean.detect(spark, flights_tiny, seed=0)
    _shape_ok(mask, flights_tiny)
    # flags are tuple-level: each row is all-true or all-false
    per_row = mask.to_numpy().sum(axis=1)
    assert set(per_row) <= {0, len(flights_tiny.attrs)}


def test_activeclean_high_recall_low_precision_on_dirty_data(spark, flights_tiny):
    mask = activeclean.detect(spark, flights_tiny, seed=0)
    m = prf(mask, flights_tiny.error_mask)
    assert m["rec"] > 0.6
    assert m["prec"] < 0.6


# --------------------------------------------------------------------- Raha


def test_raha_shape_and_determinism(spark, flights_tiny, hospital_stats):
    m1 = raha.detect(spark, flights_tiny, seed=0)
    m2 = raha.detect(spark, flights_tiny, seed=0)
    _shape_ok(m1, flights_tiny)
    assert m1.equals(m2)


def test_raha_low_budget_limits_recall(spark, hospital_tiny, hospital_stats):
    mask = raha.detect(spark, hospital_tiny, hospital_stats, labeled_tuples=2, seed=0)
    m = prf(mask, hospital_tiny.error_mask)
    assert m["rec"] < 0.7  # 2 labeled tuples cannot cover all error patterns


def test_raha_more_labels_helps(spark, flights_tiny):
    low = prf(raha.detect(spark, flights_tiny, labeled_tuples=2, seed=0), flights_tiny.error_mask)
    high = prf(raha.detect(spark, flights_tiny, labeled_tuples=20, seed=0), flights_tiny.error_mask)
    assert high["f1"] >= low["f1"] - 0.05


# -------------------------------------------------------------------- FM_ED


def test_fm_ed_mask_and_usage(spark, hospital_tiny):
    mask, usage = fm_ed.detect(spark, hospital_tiny, seed=0)
    _shape_ok(mask, hospital_tiny)
    assert usage.calls == len(hospital_tiny.dirty)  # one prompt per tuple
    assert usage.prompt_tokens > usage.completion_tokens


def test_fm_ed_catches_missing_values(spark, flights_tiny):
    mask, _ = fm_ed.detect(spark, flights_tiny, seed=0)
    mv = flights_tiny.error_types.to_numpy() == "MV"
    assert mask.to_numpy()[mv].mean() > 0.7


def test_fm_ed_misses_rule_violations(spark, hospital_tiny):
    mask, _ = fm_ed.detect(spark, hospital_tiny, seed=0)
    rv = hospital_tiny.error_types.to_numpy() == "RV"
    if rv.sum() >= 5:
        assert mask.to_numpy()[rv].mean() < 0.5  # no cross-tuple context


def test_fm_ed_input_tokens_scale_with_rows(spark, hospital_tiny, flights_tiny):
    _, u_small = fm_ed.detect(spark, flights_tiny, seed=0)
    half = flights_tiny.dirty.head(75)
    from repro.datasets.base import Dataset

    ds_half = Dataset("half", half, flights_tiny.clean.head(75))
    _, u_half = fm_ed.detect(spark, ds_half, seed=0)
    assert u_small.prompt_tokens > 1.5 * u_half.prompt_tokens
