"""Seeded input generation for the benchmark workloads.

Every input is built here from the run's seed with numpy alone, never with
``cardsketch.streams``: a change to the library's own stream generator
cannot change a workload.  The exact counts the checks compare against are
computed here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_WORKLOAD_TAGS = {"bulk-ingest": 1, "cli-text": 2, "turnstile": 3, "simulate": 4}

M = 128
ALPHA = 0.05

# bulk-ingest: two shards of one hash chunk's worth of rows each (the library
# chunks at 2**22 hash words, i.e. 32768 rows at m=128)
BULK_SHARD_ELEMS = 16384
# cli-text: lines per text shard and the size of the Zipf id universe
CLI_SHARD_LINES = 16384
CLI_UNIVERSE = 20000
CLI_ZIPF_S = 1.1
# turnstile: independent tenants per job, then per shard live and churn
# items, micro-batch length and query spacing.  One stream's query outcomes
# hang on the long-memory state of its 128 accumulators, so its success
# share varies by about 15% between seeds; eight tenants bring the quartile
# spread of the success rate over ten seeds to about 5%.
TURN_TENANTS = 8
TURN_LIVE = 4000
TURN_CHURN = 4000
TURN_BATCH = 1000
TURN_QUERY_EVERY = 2
# churn deletions start after this share of the shard's timeline, so the
# first micro-batch holds insertions only
TURN_FIRST_DELETE = 0.15
TURN_WHOLE_DELETE = 0.7
# simulate: run_experiment replicates and the coupled_residuals stream length
SIM_C = 10**6
SIM_REPLICATES = 200
SIM_COUPLED_C = 2000
SIM_ALGOS = ("max-uniform", "max-exp", "max-geom", "kth", "bernoulli",
             "projection", "median", "loglog", "hll", "mincount")
# single-item updates timed in the traced run
UPDATE_KEYS = 4096


def workload_rng(seed: int, workload: str) -> np.random.Generator:
    """The generator for one workload's inputs; workloads never share a stream."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, _WORKLOAD_TAGS[workload]])


def distinct_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct uint64 keys in random order.

    An odd multiplier is a bijection modulo 2**64, so distinct counters stay
    distinct; the library avalanches keys, so their structure is harmless.
    """
    mult = rng.integers(0, 2**63, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    offset = rng.integers(0, 2**63, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = np.arange(n, dtype=np.uint64) * mult + offset
    return keys[rng.permutation(n)]


@dataclass
class BulkInputs:
    shards: list          # uint64 key arrays, unit quantities
    true_count: int
    salt: int
    update_keys: list     # python ints for single-item adds


def bulk_inputs(seed: int) -> BulkInputs:
    """Keys with skewed repetition: half the elements are distinct keys, the
    other half repeat keys drawn with a strong bias toward a few of them."""
    rng = workload_rng(seed, "bulk-ingest")
    n = 2 * BULK_SHARD_ELEMS
    distinct = n // 2
    keys = distinct_keys(rng, distinct)
    repeats = keys[(distinct * rng.random(n - distinct) ** 3).astype(np.int64)]
    stream = np.concatenate([keys, repeats])[rng.permutation(n)]
    return BulkInputs(
        shards=[stream[:BULK_SHARD_ELEMS], stream[BULK_SHARD_ELEMS:]],
        true_count=distinct,
        salt=int(rng.integers(2**32)),
        update_keys=distinct_keys(rng, UPDATE_KEYS).tolist(),
    )


@dataclass
class CliInputs:
    shard_texts: list     # one newline-terminated text per shard
    all_ids: list         # every line's id, shards concatenated
    true_count: int
    salt: int


def cli_inputs(seed: int) -> CliInputs:
    """String ids with Zipf repetition over a fixed universe, one per line."""
    rng = workload_rng(seed, "cli-text")
    tokens = distinct_keys(rng, CLI_UNIVERSE).tolist()
    ids = [f"user-{t:016x}" for t in tokens]
    weights = 1.0 / np.arange(1, CLI_UNIVERSE + 1) ** CLI_ZIPF_S
    draws = rng.choice(CLI_UNIVERSE, size=2 * CLI_SHARD_LINES, p=weights / weights.sum())
    all_ids = [ids[i] for i in draws.tolist()]
    texts = ["".join(f"{item}\n" for item in all_ids[lo:lo + CLI_SHARD_LINES])
             for lo in (0, CLI_SHARD_LINES)]
    return CliInputs(shard_texts=texts, all_ids=all_ids,
                     true_count=len(set(all_ids)), salt=int(rng.integers(2**32)))


@dataclass
class TurnstileShard:
    keys: np.ndarray      # uint64, in arrival order
    d: np.ndarray         # int64 signed quantities
    batches: list         # (lo, hi) micro-batch bounds
    queries: dict         # batch index -> exact live count after that batch
    final_count: int


@dataclass
class TurnstileTenant:
    shards: list          # TurnstileShard over disjoint keys
    true_count: int
    salt: int


@dataclass
class TurnstileInputs:
    tenants: list
    update_keys: list


def live_counts(keys: np.ndarray, d: np.ndarray, ends) -> list:
    """Exact live-item counts of the prefixes keys[:end], d[:end].

    Raises ValueError if some prefix leaves an item with a negative total,
    i.e. the stream is not a valid insert/delete history.
    """
    _, inverse = np.unique(keys, return_inverse=True)
    out = []
    for end in ends:
        totals = np.bincount(inverse[:end], weights=d[:end], minlength=inverse.max() + 1)
        if np.any(totals < 0):
            raise ValueError(f"prefix of length {end} has a negative item total")
        out.append(int((totals > 0).sum()))
    return out


def turnstile_shard(rng: np.random.Generator, keys: np.ndarray) -> TurnstileShard:
    """Live items inserted once, and churn items inserted once and later
    deleted wholly or in part; every deletion comes after its insertion."""
    n = len(keys)
    d = rng.integers(1, 11, size=n)
    t_ins = rng.random(n)
    churn = slice(TURN_LIVE, n)
    cd = d[churn]
    whole = (rng.random(len(cd)) < TURN_WHOLE_DELETE) | (cd == 1)
    partial = 1 + (rng.random(len(cd)) * (cd - 1)).astype(np.int64)
    removed = np.where(whole, cd, partial)
    start = np.maximum(t_ins[churn], TURN_FIRST_DELETE)
    t_del = start + (1.0 - start) * rng.random(len(cd))
    all_keys = np.concatenate([keys, keys[churn]])
    all_d = np.concatenate([d, -removed]).astype(np.int64)
    order = np.argsort(np.concatenate([t_ins, t_del]), kind="stable")
    all_keys, all_d = all_keys[order], all_d[order]
    batches = [(lo, min(lo + TURN_BATCH, len(all_keys)))
               for lo in range(0, len(all_keys), TURN_BATCH)]
    query_batches = [b for b in range(len(batches)) if (b + 1) % TURN_QUERY_EVERY == 0]
    counts = live_counts(all_keys, all_d, [batches[b][1] for b in query_batches]
                         + [len(all_keys)])
    return TurnstileShard(all_keys, all_d, batches,
                          dict(zip(query_batches, counts[:-1])), counts[-1])


def turnstile_inputs(seed: int) -> TurnstileInputs:
    """Independent tenants, each two shards over disjoint keys, so that each
    shard is a valid history on its own."""
    rng = workload_rng(seed, "turnstile")
    per_shard = TURN_LIVE + TURN_CHURN
    tenants = []
    for _ in range(TURN_TENANTS):
        keys = distinct_keys(rng, 2 * per_shard)
        shards = [turnstile_shard(rng, keys[:per_shard]),
                  turnstile_shard(rng, keys[per_shard:])]
        tenants.append(TurnstileTenant(shards, sum(s.final_count for s in shards),
                                       int(rng.integers(2**32))))
    return TurnstileInputs(tenants, distinct_keys(rng, UPDATE_KEYS).tolist())


@dataclass
class SimulateInputs:
    config: dict          # ExperimentConfig fields
    coupled_keys: np.ndarray
    coupled_salt: int
    sample_seed: int


def simulate_inputs(seed: int) -> SimulateInputs:
    rng = workload_rng(seed, "simulate")
    config = {"c": SIM_C, "m": M, "algos": list(SIM_ALGOS),
              "replicates": SIM_REPLICATES, "seed": int(rng.integers(2**32)),
              "alpha": ALPHA, "method": "sampled"}
    return SimulateInputs(config=config,
                          coupled_keys=distinct_keys(rng, SIM_COUPLED_C),
                          coupled_salt=int(rng.integers(2**32)),
                          sample_seed=int(rng.integers(2**32)))
