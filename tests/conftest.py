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
