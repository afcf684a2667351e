import numpy as np
import pytest

from cfdetox.lexicon import Lexicon
from cfdetox.model import ModelConfig, init_params


@pytest.fixture
def tiny_lexicon() -> Lexicon:
    return Lexicon({"hoe": "OnI", "ass": "OnI", "black": "nOI", "zorp": "OI"})


@pytest.fixture
def tiny_params():
    cfg = ModelConfig(vocab_size=12, embed_dim=5, hidden=7)
    return init_params(cfg, np.random.default_rng(11))
