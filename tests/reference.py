"""Reference routes that more than one test module checks the engines against."""
import math
from dataclasses import replace

import numpy as np

from coinlab.bounds import Params, derive
from coinlab.exact import count_sum_ge
from coinlab.iteration import IterationConfig, rounds_per_block, run_rounds
from coinlab.mc import clopper_pearson
from coinlab.walks import ROUND_TAG


def round_coins(seed: int, i: int, size: int) -> np.ndarray:
    """Round i's first ``size`` coins of ``seed``'s round stream, by hand: a
    fresh PCG64 advanced to ``i * W`` outputs, ``W = ceil(size / 64)``, and
    coin k read as bit ``k % 64`` of output ``k // 64`` by shift and mask."""
    width = -(-size // 64)
    bit_generator = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(ROUND_TAG,)))
    bit_generator.advance(i * width)
    words = bit_generator.random_raw(width).tolist()
    return np.array([1 if words[k // 64] >> (k % 64) & 1 else -1 for k in range(size)],
                    dtype=np.int8)


# coin-iter's defaults: n = 60, t = 3, one stream excluded and two stopped
COIN_ITER_DEFAULTS = IterationConfig(n=60, t=3, t_excluded=1, t_stopped=2)


def good_event_check(seed: int, rounds: int = 20_000, confidence: float = 1 - 1e-6):
    """The good events of ``rounds`` rounds at coin-iter's defaults, their
    Clopper-Pearson interval at ``confidence``, and the exact probability it
    should cover: the core's 54 streams of 60 coins sum to at least
    ceil(alpha') with probability count_sum_ge(3240, ceil(alpha')) / 2**3240."""
    config = replace(COIN_ITER_DEFAULTS, seed=seed)
    block = rounds_per_block(config)
    hits = sum(int(np.count_nonzero(run_rounds(config, start, min(block, rounds - start))
                                    .good_event))
               for start in range(0, rounds, block))
    core = config.complete_count * config.n
    level = math.ceil(derive(Params(n=config.n, t=config.t)).alpha_prime)
    return hits, clopper_pearson(hits, rounds, confidence), count_sum_ge(core, level) / 2**core
