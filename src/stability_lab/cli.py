"""Command-line harness.

    stability-lab <subcommand> --config cfg.json [--seed N] [--out report.json] [--csv table.csv]

Subcommands: tv, naf-check, nfl-check, censorship, dp-beta, hist,
transform, prop1, ingest. All inputs come from a single JSON config
document, which holds only the fields its subcommand reads; the --seed
flag overrides the config's "seed" field (flag > config > default 0).
Every JSON object in the config, inline or a file, holds only the keys its
reader reads, and every error names its dotted path ("learner.smoothing",
"safe_models[1].model"). Reports are JSON with a versioned schema; the
same config and seed always produce the same payload. Exit codes: 0 on
pass, 2 when a subcommand's check fails, 1 on any error, a usage error
included.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .core import (
    ContentDomain,
    Dataset,
    DiscreteDistribution,
    load_dataset,
    tv_distance,
    tv_event_form,
    _JsonObject,
    _json_field,
    _json_value,
    _known_fields,
    _require_alpha,
    _require_count,
    _require_fraction,
    _require_nonnegative,
    _require_tokenization,
)
from .dp import (
    dp_beta,
    dp_beta_event_form,
    private_histogram,
    symmetric_dp_beta,
    _require_epsilon,
)
from .errors import ConfigError, StabilityLabError
from .learners import ingest_corpus, learner_constant, learner_empirical
from .naf import (
    SafeAssignment,
    Violation,
    censorship_report,
    naf_report,
    nfl_thresholds,
    nfl_witness,
)
from .transform import (
    TransformConfig,
    dp_transform_trace,
    transform_bound_experiment,
)
from .util import derive_seed

SCHEMA_VERSION = "1"
EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


# --- config access ----------------------------------------------------------


@contextlib.contextmanager
def _at(key: str):
    """Name each error raised in the block by its path under `key`: a
    ConfigError's path gains `key` in front (an "[i]" entry joins without a
    dot), and an error of the library, or a ValueError or OverflowError (a
    JSON integer too large for a float) from a reader or a constructor,
    becomes a ConfigError at `key`."""
    try:
        yield
    except ConfigError as exc:
        inner = exc.path if exc.path[:1] in ("", "[") else f".{exc.path}"
        raise ConfigError(key + inner, exc.reason) from exc
    except (StabilityLabError, OverflowError, ValueError) as exc:
        raise ConfigError(key, str(exc)) from exc


def _read(cfg: dict, key: str, read, *args):
    """read(cfg[key], *args), each error named by its path under `key`."""
    raw = _json_field(cfg, key)
    with _at(key):
        return read(raw, *args)


# Config field -> (JSON kind, the library's rule for the typed value): each
# scalar field's one rule, called as rule(field, value), which raises
# ValueError. A seed has no rule beyond its kind. The entries of alpha_grid
# follow "alpha". A number is read as a float.
_RULES = {
    "alpha": ("a number", _require_alpha),
    "margin": ("a number", _require_nonnegative),
    "smoothing": ("a number", _require_nonnegative),
    "epsilon": ("a number", _require_epsilon),
    "delta": ("a number", _require_fraction),
    "eta": ("a number", _require_fraction),
    "m": ("an integer", _require_count),
    "outer_trials": ("an integer", _require_count),
    "inner_trials": ("an integer", _require_count),
    "premise_trials": ("an integer", _require_count),
    "seed": ("an integer", None),
    "tape_seed": ("an integer", None),
    "tokenization": ("a string", _require_tokenization),
}


def _check(key: str, raw, field: str):
    """`raw` as `field`'s JSON kind (_json_value), passed by its rule, else a
    ConfigError at `key` with the rule's own message."""
    kind, rule = _RULES[field]
    value = _json_value(key, raw, kind)
    try:
        if kind == "a number":
            value = float(value)
        if rule is not None:
            rule(field, value)
    except (OverflowError, ValueError) as exc:  # OverflowError: an int too large for a float
        raise ConfigError(key, str(exc)) from exc
    return value


def _param(cfg: dict, key: str, *default):
    return _check(key, _json_field(cfg, key, *default), key)


def _given(cfg: dict, *keys: str) -> dict:
    """{key: _param(cfg, key)} of the `keys` that `cfg` gives, as keyword
    arguments: a field that the config leaves out takes the library's
    default."""
    return {key: _param(cfg, key) for key in keys if key in cfg}


def _text_file(raw, read):
    """`read(path)` for the text file that `raw` names. A non-string path, a
    missing file, and text that cannot be read as UTF-8 (a directory, bad
    bytes) or parsed by `read` are config errors; content that `read`
    rejects raises the library's own error."""
    path = Path(_json_value("", raw, "a file path string"))
    if not path.exists():
        raise ConfigError("", f"file not found: {raw}")
    try:
        return read(path)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise ConfigError("", f"cannot read {path}: {exc}") from exc


def _object(raw, build, *args):
    """build(obj, *args) for a JSON object given inline or as the path of a
    JSON file, whose leading UTF-8 byte-order mark is dropped and whose
    objects keep their repeated keys for the key rule (_JsonObject)."""
    if isinstance(raw, str):
        raw = _text_file(
            raw,
            lambda path: json.loads(
                path.read_text(encoding="utf-8-sig"), object_pairs_hook=_JsonObject
            ),
        )
    return build(_json_value("", raw, "a JSON object"), *args)


def _distribution(raw, domain: ContentDomain | None = None) -> DiscreteDistribution:
    return _object(raw, DiscreteDistribution.from_json_obj, domain)


def _safe_model(obj: dict, cid: str) -> tuple[str, DiscreteDistribution]:
    """(id, model) of a safe_models entry: an {"id", "model"} object when it
    holds "model", its id `cid` by default, else a distribution named `cid`."""
    if "model" not in obj:
        return cid, DiscreteDistribution.from_json_obj(obj)
    _known_fields(obj, ("id", "model"), "a safe model entry")
    cid = _json_value("id", _json_field(obj, "id", cid), "a string")
    return cid, _read(obj, "model", _distribution)


def _safe_models(raw) -> SafeAssignment:
    """The assignment of a non-empty list; entry i is named c<i> unless it
    gives an id."""
    entries = []
    for i, item in enumerate(_json_value("", raw, "a non-empty list")):
        with _at(f"[{i}]"):
            entries.append(_object(item, _safe_model, f"c{i}"))
    return SafeAssignment(tuple(entries))  # ValueError: a duplicate id


def _learner(obj: dict, domain: ContentDomain):
    """The learner of a {"kind": ...} object: "empirical" with an optional
    "smoothing", or "constant" with a "model" on the data's `domain`."""
    kind = _json_field(obj, "kind")
    if kind not in ("empirical", "constant"):
        raise ConfigError("kind", f"expected 'empirical' or 'constant', got {kind!r}")
    spec = "smoothing" if kind == "empirical" else "model"
    _known_fields(obj, ("kind", spec), f"the {kind} learner")
    if kind == "empirical":
        return learner_empirical(**_given(obj, "smoothing"))
    return learner_constant(_read(obj, "model", _distribution, domain))


def _dataset(cfg) -> Dataset:
    """The `dataset` file, one symbol per line, read once.

    The domain is the `domain` object or, when that field is absent, the
    file's own distinct lines.
    """
    if "domain" not in cfg:
        return _read(cfg, "dataset", _text_file, lambda path: ingest_corpus(path, "line")[1])
    domain = _read(cfg, "domain", _object, ContentDomain.from_json_obj)
    return _read(cfg, "dataset", _text_file, lambda path: load_dataset(path, domain))


def _transform_config(cfg) -> TransformConfig:
    return TransformConfig(*(_param(cfg, key) for key in ("epsilon", "delta", "eta", "m")))


# --- report plumbing --------------------------------------------------------


def _jsonable(value):
    """Make a payload strictly valid JSON: a non-finite float becomes the
    string "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def _event_form(value: float, event) -> dict:
    """The report's {"value", "event"} of an event form's (value, event)."""
    return {"value": value, "event": list(event.symbols)}


def _write_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _write_csv(rows: list[dict], path: str) -> None:
    fields = list(rows[0]) if rows else list(Violation._fields)  # naf-check may have none
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _jsonable(v) for k, v in row.items()})


# --- subcommands ------------------------------------------------------------


def _run_tv(cfg: dict, seed: int):
    q1 = _read(cfg, "q1", _distribution)
    q2 = _read(cfg, "q2", _distribution, q1.domain)
    payload = {"tv": tv_distance(q1, q2), "event_form": _event_form(*tv_event_form(q1, q2))}
    rows = [
        {"symbol": s, "q1": float(a), "q2": float(b), "abs_diff": float(abs(a - b))}
        for s, a, b in zip(q1.domain.symbols, q1.weights, q2.weights)
    ]
    return payload, rows, EXIT_PASS


def _run_dp_beta(cfg: dict, seed: int):
    p = _read(cfg, "p", _distribution)
    p_prime = _read(cfg, "p_prime", _distribution, p.domain)
    alpha = _param(cfg, "alpha")
    grid = _json_value("alpha_grid", _json_field(cfg, "alpha_grid", [alpha]), "a non-empty list")
    grid = [_check(f"alpha_grid[{i}]", a, "alpha") for i, a in enumerate(grid)]
    curve = [
        {
            "alpha": a,
            "beta": dp_beta(p, p_prime, a),
            "beta_reverse": dp_beta(p_prime, p, a),
            "symmetric_beta": symmetric_dp_beta(p, p_prime, a),
            "beta_event_form": dp_beta_event_form(p, p_prime, a)[0],
        }
        for a in grid
    ]
    payload = {
        "alpha": alpha,
        "beta": dp_beta(p, p_prime, alpha),
        "symmetric_beta": symmetric_dp_beta(p, p_prime, alpha),
        "curve": curve,
        "event_form": _event_form(*dp_beta_event_form(p, p_prime, alpha)),
    }
    return payload, curve, EXIT_PASS


def _run_naf_check(cfg: dict, seed: int):
    model = _read(cfg, "model", _distribution)
    safes = _read(cfg, "safe_models", _safe_models)
    alpha = _param(cfg, "alpha")
    report = naf_report(model, safes, alpha)
    payload = report.to_json_obj()
    code = EXIT_PASS if report.ok else EXIT_CHECK_FAILED
    return payload, payload["violations"], code


def _run_nfl_check(cfg: dict, seed: int):
    p = _read(cfg, "model", _distribution)
    q1 = _read(cfg, "q1", _distribution, p.domain)
    q2 = _read(cfg, "q2", _distribution, p.domain)
    witness = nfl_witness(p, q1, q2)
    thresholds = nfl_thresholds(q1, q2)
    payload = {
        "tv": tv_distance(q1, q2),
        "witness": witness._asdict(),
        "satisfied": witness.satisfied,
    }
    rows = [
        {"symbol": s, "p": float(pv), "min_q": float(min(a, b)), "threshold": float(t)}
        for s, pv, a, b, t in zip(
            p.domain.symbols, p.weights, q1.weights, q2.weights, thresholds
        )
    ]
    return payload, rows, EXIT_PASS if witness.satisfied else EXIT_CHECK_FAILED


def _run_censorship(cfg: dict, seed: int):
    safes = _read(cfg, "safe_models", _safe_models)
    alpha = _param(cfg, "alpha")
    report = censorship_report(safes, alpha)
    rows = [
        {"symbol": s, "bound": float(b)}
        for s, b in zip(report.domain.symbols, report.bounds)
    ]
    return report.to_json_obj(), rows, EXIT_PASS


def _run_hist(cfg: dict, seed: int):
    dataset = _dataset(cfg)
    domain = dataset.domain
    epsilon = _param(cfg, "epsilon")
    delta = _param(cfg, "delta")
    noise_seed = derive_seed(seed, "hist-noise")
    hist = private_histogram(dataset, epsilon, delta, noise_seed)
    counts = dataset.counts()
    freqs = counts / dataset.size
    payload = hist.to_json_obj()
    # One .tolist() per array, not a numpy scalar per element.
    freq_list = freqs.tolist()
    payload["empirical"] = {s: f for s, f in zip(domain.symbols, freq_list) if f > 0}
    payload["linf_error"] = float(np.abs(hist.values - freqs).max())
    rows = [
        {"symbol": s, "count": c, "freq": f, "value": v}
        for s, c, f, v in zip(domain.symbols, counts.tolist(), freq_list, hist.values.tolist())
    ]
    return payload, rows, EXIT_PASS


def _run_transform(cfg: dict, seed: int):
    dataset = _dataset(cfg)
    learner = _read(cfg, "learner", _object, _learner, dataset.domain)
    config = _transform_config(cfg)
    tape_seed = _param(cfg, "tape_seed", derive_seed(seed, "tape"))
    trace = dp_transform_trace(
        learner,
        dataset,
        config,
        tape_seed=tape_seed,
        noise_seed=derive_seed(seed, "noise"),
        train_seed=derive_seed(seed, "train"),
    )
    payload = {
        **config.to_json_obj(),
        "learner": learner.name,
        "tape_seed": tape_seed,
        "fallback_used": trace.fallback_used,
        "histogram": trace.histogram.to_json_obj(),
        "output": trace.output.to_json_obj(),
    }
    rows = [
        {"symbol": s, "weight": float(w)}
        for s, w in zip(dataset.domain.symbols, trace.output.weights)
    ]
    return payload, rows, EXIT_PASS


def _run_prop1(cfg: dict, seed: int):
    data_dist = _read(cfg, "data_distribution", _distribution)
    learner = _read(cfg, "learner", _object, _learner, data_dist.domain)
    config = _transform_config(cfg)
    outer = _param(cfg, "outer_trials")
    inner = _param(cfg, "inner_trials")
    premise = _given(cfg, "premise_trials")
    margin = _param(cfg, "margin", 0.02)
    report = transform_bound_experiment(learner, data_dist, config, outer, inner, seed, **premise)
    passed = report.within_bound(margin)
    payload = report.to_json_obj()
    payload["margin"] = margin
    payload["passed"] = passed
    rows = [
        {"trial": t, "tv": float(v)} for t, v in enumerate(report.per_trial_tv)
    ]
    return payload, rows, EXIT_PASS if passed else EXIT_CHECK_FAILED


def _run_ingest(cfg: dict, seed: int):
    tokenization = _given(cfg, "tokenization")
    domain, dataset = _read(
        cfg, "corpus", _text_file, lambda path: ingest_corpus(path, **tokenization)
    )
    counts = dataset.counts().tolist()
    payload = {
        "domain_size": domain.size,
        "dataset_size": dataset.size,
        "symbols": list(domain.symbols),
        "counts": dict(zip(domain.symbols, counts)),
    }
    rows = [{"symbol": s, "count": c} for s, c in zip(domain.symbols, counts)]
    return payload, rows, EXIT_PASS


# Subcommand -> (runner, the config fields it reads besides "seed"). run
# refuses any other field before the runner reads anything.
_SUBCOMMANDS = {
    "tv": (_run_tv, ("q1", "q2")),
    "naf-check": (_run_naf_check, ("model", "safe_models", "alpha")),
    "nfl-check": (_run_nfl_check, ("model", "q1", "q2")),
    "censorship": (_run_censorship, ("safe_models", "alpha")),
    "dp-beta": (_run_dp_beta, ("p", "p_prime", "alpha", "alpha_grid")),
    "hist": (_run_hist, ("dataset", "domain", "epsilon", "delta")),
    "transform": (
        _run_transform,
        ("dataset", "domain", "learner", "epsilon", "delta", "eta", "m", "tape_seed"),
    ),
    "prop1": (
        _run_prop1,
        (
            "data_distribution", "learner", "epsilon", "delta", "eta", "m",
            "outer_trials", "inner_trials", "premise_trials", "margin",
        ),
    ),
    "ingest": (_run_ingest, ("corpus", "tokenization")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stability-lab",
        description="Stability diagnostics over finite content domains.",
    )
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON config document")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument("--csv", default=None, help="write the tabular payload here")
    return parser


def run(subcommand: str, config: dict, seed: int) -> tuple[dict, list[dict], int]:
    """Dispatch one subcommand; returns (report, csv rows, exit code).

    A config field that the subcommand does not read, other than "seed",
    raises ConfigError before any field is read. The report echoes the
    config and the seed as given."""
    started = time.perf_counter()
    runner, fields = _SUBCOMMANDS[subcommand]
    _known_fields(config, ("seed", *fields), f"the {subcommand} config")
    payload, rows, code = runner(config, seed)
    report = {
        "schema": SCHEMA_VERSION,
        "subcommand": subcommand,
        "config": _jsonable(config),
        "seed": seed,
        "seed_derivation": "blake2b(root/label/index)",
        "payload": _jsonable(payload),
        "passed": code == EXIT_PASS,
        "wall_clock_s": time.perf_counter() - started,
    }
    return report, rows, code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after -h and 2 after printing a usage error
        return EXIT_ERROR if exc.code else EXIT_PASS
    try:
        # the parsed object itself, not a dict copy: run's key rule reads its repeated keys
        config = _read({"config": args.config}, "config", _object, lambda obj: obj)
        seed = args.seed if args.seed is not None else _param(config, "seed", 0)
        report, rows, code = run(args.subcommand, config, seed)
        _write_report(report, args.out)
        if args.csv:
            _write_csv(rows, args.csv)
        return code
    except (StabilityLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())
