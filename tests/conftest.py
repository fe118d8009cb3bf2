import pytest

from seqrec.configs import DatasetConfig, EncoderConfig
from seqrec.pipeline import prepare


@pytest.fixture(scope="session")
def micro_enc_cfg():
    return EncoderConfig(d_model=8, n_heads=2, n_layers=2, max_seq_len=5,
                         dropout=0.0, pooling="attention", d_ff=16, n_surfaces=2)


@pytest.fixture(scope="session")
def small_world_data():
    """One modest drifting world shared by the slower integration tests."""
    cfg = DatasetConfig(users=120, posts_per_day=80, days=18, drift_rate=0.03,
                        calibrate_survival=False)
    return prepare(cfg, seed=3, enc_cfg=EncoderConfig(), eval_holdout_days=3, m=5)


@pytest.fixture(scope="session")
def marginal_world_data():
    """A tiny world with generator profiles and cold/marginal users."""
    cfg = DatasetConfig(users=40, posts_per_day=20, days=10, marginal_user_frac=0.3,
                        cold_user_frac=0.1, calibrate_survival=False)
    return prepare(cfg, seed=3, enc_cfg=EncoderConfig(max_seq_len=8),
                   eval_holdout_days=3, m=3)
