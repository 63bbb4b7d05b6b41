"""Tests for the predictor's Spearman ρ: a numpy computation that must
equal ``scipy.stats.spearmanr`` bit for bit, so that the ``predict``
artifact never imports ``scipy.stats``."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import spearman_rho

SRC = Path(__file__).resolve().parents[2] / "src"


@st.composite
def samples(draw):
    """Paired samples of 2..200 points.  Each side draws either from a
    small integer pool (ties, down to a constant sample) or from
    continuous values, optionally correlated with the other side."""
    n = draw(st.integers(min_value=2, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def side(base):
        pool = draw(st.sampled_from([None, 1, 2, 3, 10, n]))
        if pool is not None:
            return rng.integers(0, pool, n).astype(float)
        return draw(st.sampled_from([0.0, 0.5, -2.0])) * base + rng.normal(size=n)

    x = side(np.zeros(n))
    return x, side(x)


@settings(max_examples=300, deadline=None)
@given(samples())
def test_matches_scipy_bit_for_bit(xy):
    from scipy.stats import spearmanr

    x, y = xy
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on constant input
        expected = float(spearmanr(x, y).statistic)
    got = spearman_rho(x, y)
    if np.isnan(expected):
        assert np.isnan(got)
    else:
        assert got == expected


def test_constant_input_is_nan_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
        assert np.isnan(spearman_rho([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))
        assert np.isnan(spearman_rho([1.0], [2.0]))


def test_predict_artifact_leaves_scipy_stats_unimported(tmp_path):
    # A fresh interpreter: the test process itself has imported scipy.stats.
    script = (
        "import json, sys\n"
        "from repro import ExperimentConfig, Session\n"
        "config = ExperimentConfig(workloads=('G-CC', 'fotonik3d', 'swaptions'))\n"
        "scores = Session(config).run('predict').result.scores\n"
        "print(json.dumps({'rho': scores['rank_correlation'],\n"
        "                  'stats': 'scipy.stats' in sys.modules}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["stats"] is False
    assert -1.0 <= out["rho"] <= 1.0
