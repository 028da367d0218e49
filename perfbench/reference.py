"""A fixed reference kernel that measures how fast the machine runs right now.

Shared virtual machines change speed: for minutes at a time every pass can
run 1.5-2x slower, and the change can come in the middle of a set of runs.
The kernel does a fixed amount of the work the workloads spend their time on,
without stability_lab: it splits a token string and maps each token to an
index through a dict (as corpus ingestion does), and races exponential draws
against a 3170 x 8 matrix of weights (as the transform's coupling does).

The benchmark times the kernel next to every pass and every setup probe, and
reports each time at the kernel's nominal speed (`scaled`). A change to
stability_lab cannot move the kernel, so it moves the scaled times exactly as
it moves the raw ones, while a change of machine speed moves both the pass
and the kernel and cancels.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time, in seconds, on the machine the baseline was taken on
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4) in its fast phase. It only
# sets the scale of the scaled times; ratios between commits do not use it.
NOMINAL_S = 0.1
# Few tokens, parsed many times, keep the kernel's memory small beside the
# workload's peak_rss_mb.
_TOKENS, _PARSES = 20_000, 10
_SYMBOLS = 5_000
_ROWS, _COLS, _RACES = 3170, 8, 400
_inputs: tuple | None = None


def _build() -> tuple:
    rng = np.random.default_rng(20230523)
    words = [f"w{i}" for i in range(_SYMBOLS)]
    text = " ".join(words[j] for j in (rng.zipf(1.1, _TOKENS) - 1) % _SYMBOLS)
    weights = rng.random((_ROWS, _COLS))
    weights /= weights.sum(axis=1, keepdims=True)
    return text, weights


def _kernel(text: str, weights: np.ndarray) -> int:
    winners = 0
    for _ in range(_PARSES):
        index: dict[str, int] = {}
        ids = [index.setdefault(token, len(index)) for token in text.split()]
        winners += int(np.bincount(np.asarray(ids)).argmax())
    rng = np.random.default_rng(5)
    for _ in range(_RACES):
        winners += int(np.argmin(rng.exponential(size=_COLS) / weights, axis=1).sum())
    return winners


def seconds() -> float:
    """Median wall time of three runs of the kernel (inputs built once, untimed)."""
    global _inputs
    if _inputs is None:
        _inputs = _build()
    times = []
    for _ in range(3):
        started = time.perf_counter()
        _kernel(*_inputs)
        times.append(time.perf_counter() - started)
    return sorted(times)[1]


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """wall_s at the kernel's nominal speed, from the kernel's times around it."""
    return wall_s * NOMINAL_S / (0.5 * (before_s + after_s))
