"""DET001 triggers: global / unseeded randomness and OS entropy."""

import os
import random

import numpy as np


def jitter() -> float:
    return random.random() + random.uniform(0.0, 1.0)


def make_generator():
    return random.Random()


def legacy_draw():
    return np.random.rand(4)


def unseeded_rng():
    return np.random.default_rng()


def checkpoint_nonce() -> str:
    return os.urandom(4).hex()
