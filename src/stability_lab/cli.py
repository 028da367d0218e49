"""Command-line harness.

    stability-lab <subcommand> --config cfg.json [--seed N] [--out report.json] [--csv table.csv]

Subcommands: tv, naf-check, nfl-check, censorship, dp-beta, hist,
transform, prop1, ingest. All inputs come from a single JSON config
document, which holds only the fields its subcommand reads; the --seed
flag overrides the config's "seed" field (flag > config > default 0).
Reports are JSON with a versioned schema; the same config and seed always
produce the same payload. Exit codes: 0 on pass, 2 when a subcommand's
check fails, 1 on any error, a usage error included.
"""

from __future__ import annotations

import argparse
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

_REQUIRED = object()


# --- config access ----------------------------------------------------------


def _field(cfg: dict, key: str, default=_REQUIRED):
    if key in cfg:
        return cfg[key]
    if default is _REQUIRED:
        raise ConfigError(f"{key}: missing required field")
    return default


# Config field -> (JSON type, the library's rule for the typed value): each
# scalar field's one rule, called as rule(field, value), which raises
# ValueError. A seed has no rule beyond its type. The entries of alpha_grid
# follow "alpha". A float field also takes a JSON integer; no field takes a bool.
_RULES = {
    "alpha": (float, _require_alpha),
    "margin": (float, _require_nonnegative),
    "smoothing": (float, _require_nonnegative),
    "epsilon": (float, _require_epsilon),
    "delta": (float, _require_fraction),
    "eta": (float, _require_fraction),
    "m": (int, _require_count),
    "outer_trials": (int, _require_count),
    "inner_trials": (int, _require_count),
    "premise_trials": (int, _require_count),
    "seed": (int, None),
    "tape_seed": (int, None),
    "tokenization": (str, _require_tokenization),
}


def _check(key: str, raw, field: str):
    """`raw` as `field`'s JSON type, passed by its rule, else a ConfigError
    naming `key`: "expected <type>" for the wrong type, and the rule's own
    message for a value out of range."""
    kind, rule = _RULES[field]
    if not isinstance(raw, (int, float) if kind is float else kind) or isinstance(raw, bool):
        kinds = {float: "a number", int: "an integer", str: "a string"}
        raise ConfigError(f"{key}: expected {kinds[kind]}, got {raw!r}")
    try:
        value = kind(raw)
        if rule is not None:
            rule(field, value)
    except (OverflowError, ValueError) as exc:  # OverflowError: an int too large for a float
        raise ConfigError(f"{key}: {exc}") from exc
    return value


def _known_fields(cfg: dict, known: tuple[str, ...], owner: str, prefix: str = "") -> None:
    """Refuse a field of `cfg` outside `known` with a ConfigError naming it:
    a misspelled field would otherwise be echoed and never read."""
    for key in cfg:
        if key not in known:
            raise ConfigError(
                f"{prefix}{key}: unknown field of {owner}; known fields: {', '.join(known)}"
            )


def _param(cfg: dict, key: str, default=_REQUIRED):
    return _check(key, _field(cfg, key, default), key)


def _text_file(cfg, key, read):
    """`read(path)` for the field's text file. A non-string path, a missing
    file, text that cannot be read as UTF-8 (a directory, bad bytes) or parsed
    by `read`, and content that `read` rejects are config errors naming the field."""
    raw = _field(cfg, key)
    if not isinstance(raw, str):
        raise ConfigError(f"{key}: expected a file path string")
    path = Path(raw)
    if not path.exists():
        raise ConfigError(f"{key}: file not found: {raw}")
    try:
        return read(path)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise ConfigError(f"{key}: cannot read {path}: {exc}") from exc
    except StabilityLabError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _json_object(cfg, key, build):
    """`build(obj)` for the field's JSON object, given inline or as a file
    path; a file's leading UTF-8 byte-order mark is dropped."""
    raw = _field(cfg, key)
    if isinstance(raw, str):
        raw = _text_file(cfg, key, lambda path: json.loads(path.read_text(encoding="utf-8-sig")))
    if not isinstance(raw, dict):
        raise ConfigError(f"{key}: expected a JSON object, inline or as a file path")
    try:
        return build(raw)
    except StabilityLabError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: invalid spec ({exc!r})") from exc


def _distribution(cfg, key, domain: ContentDomain | None = None) -> DiscreteDistribution:
    return _json_object(cfg, key, lambda obj: DiscreteDistribution.from_json_obj(obj, domain))


def _safe_models(cfg, key) -> SafeAssignment:
    raw = _field(cfg, key)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{key}: expected a non-empty list")
    entries = []
    for i, item in enumerate(raw):
        cid, where = f"c{i}", f"{key}: entry {i}"
        if isinstance(item, dict) and "model" in item:
            cid, item = item.get("id", cid), item["model"]
            if not isinstance(cid, str):
                raise ConfigError(f"{where}: id must be a string, got {cid!r}")
        entries.append((cid, _distribution({where: item}, where)))
    try:
        return SafeAssignment(tuple(entries))
    except (StabilityLabError, ValueError) as exc:  # ValueError: a duplicate id
        raise ConfigError(f"{key}: {exc}") from exc


def _learner(cfg, key, domain: ContentDomain):
    """The learner spec; a constant model must live on the data's `domain`."""
    raw = _field(cfg, key)
    if not isinstance(raw, dict):
        raise ConfigError(f"{key}: expected an object with a 'kind' field")
    kind = raw.get("kind")
    if kind not in ("empirical", "constant"):
        raise ConfigError(f"{key}.kind: expected 'empirical' or 'constant', got {kind!r}")
    spec = "smoothing" if kind == "empirical" else "model"
    _known_fields(raw, ("kind", spec), f"the {kind} learner", f"{key}.")
    if kind == "empirical":
        return learner_empirical(_param(raw, "smoothing", 0.0))
    return learner_constant(_distribution(raw, "model", domain))


def _dataset(cfg) -> Dataset:
    """The `dataset` file, one symbol per line, read once.

    The domain is the `domain` field (a path or an inline object) or, when
    that is absent, the file's own distinct lines.
    """
    if _field(cfg, "domain", None) is None:
        return _text_file(cfg, "dataset", lambda path: ingest_corpus(path, "line")[1])
    domain = _json_object(cfg, "domain", ContentDomain.from_json_obj)
    return _text_file(cfg, "dataset", lambda path: load_dataset(path, domain))


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
    q1 = _distribution(cfg, "q1")
    q2 = _distribution(cfg, "q2", q1.domain)
    payload = {"tv": tv_distance(q1, q2), "event_form": _event_form(*tv_event_form(q1, q2))}
    rows = [
        {"symbol": s, "q1": float(a), "q2": float(b), "abs_diff": float(abs(a - b))}
        for s, a, b in zip(q1.domain.symbols, q1.weights, q2.weights)
    ]
    return payload, rows, EXIT_PASS


def _run_dp_beta(cfg: dict, seed: int):
    p = _distribution(cfg, "p")
    p_prime = _distribution(cfg, "p_prime", p.domain)
    alpha = _param(cfg, "alpha")
    grid = _field(cfg, "alpha_grid", None)
    if grid is None:
        grid = [alpha]
    if not isinstance(grid, list):
        raise ConfigError(f"alpha_grid: expected a list, got {grid!r}")
    grid = [_check("alpha_grid", a, "alpha") for a in grid]
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
    model = _distribution(cfg, "model")
    safes = _safe_models(cfg, "safe_models")
    alpha = _param(cfg, "alpha")
    report = naf_report(model, safes, alpha)
    payload = report.to_json_obj()
    code = EXIT_PASS if report.ok else EXIT_CHECK_FAILED
    return payload, payload["violations"], code


def _run_nfl_check(cfg: dict, seed: int):
    p = _distribution(cfg, "model")
    q1 = _distribution(cfg, "q1", p.domain)
    q2 = _distribution(cfg, "q2", p.domain)
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
    safes = _safe_models(cfg, "safe_models")
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
    learner = _learner(cfg, "learner", dataset.domain)
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
    data_dist = _distribution(cfg, "data_distribution")
    learner = _learner(cfg, "learner", data_dist.domain)
    config = _transform_config(cfg)
    outer = _param(cfg, "outer_trials")
    inner = _param(cfg, "inner_trials")
    premise = _param(cfg, "premise_trials", 200)
    margin = _param(cfg, "margin", 0.02)
    report = transform_bound_experiment(
        learner, data_dist, config, outer, inner, seed, premise_trials=premise
    )
    passed = report.within_bound(margin)
    payload = report.to_json_obj()
    payload["margin"] = margin
    payload["passed"] = passed
    rows = [
        {"trial": t, "tv": float(v)} for t, v in enumerate(report.per_trial_tv)
    ]
    return payload, rows, EXIT_PASS if passed else EXIT_CHECK_FAILED


def _run_ingest(cfg: dict, seed: int):
    tokenization = _param(cfg, "tokenization", "line")
    domain, dataset = _text_file(cfg, "corpus", lambda path: ingest_corpus(path, tokenization))
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
        config = _json_object({"config": args.config}, "config", dict)
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
