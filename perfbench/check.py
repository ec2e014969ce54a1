"""Output checks. Each returns a list of problems; an empty list passes.

* ``score_output``: the JSONL report is well formed, has one segment record
  per segment and finite scores in range.
* ``regress_output``: the regression JSON holds a finite final model.
* ``table1_output``: ``regress --fixture table1`` reproduces the paper's
  fixed points.
* ``ter_oracle``: TER edits lie between the exhaustive edit+shift search and
  plain Levenshtein of ``tests/oracles.py``.
* ``golden``: JSONL and regression bytes hash to the digests recorded in
  ``golden.json`` when the benchmark landed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

METRICS = ("bleu", "nist", "ter", "meteor", "meteor_pl", "ebleu", "ribes")
BOUNDED = ("bleu", "meteor", "meteor_pl", "ebleu", "ribes")  # scores x100 in [0, 100]
TABLE1_COEFFICIENTS = (86.556, 0.254, 0.924, -0.221)
TABLE1_ADJ_R2 = 0.761
TABLE1_REMOVED = ["TER", "RIBES", "METEOR-PL", "METEOR"]
TABLE1_FINAL = ["BLEU", "NIST", "EBLEU"]
GOLDEN = Path(__file__).with_name("golden.json")


def _scores_ok(record: dict, where: str, meteor_pl_expected: bool) -> list[str]:
    problems = []
    for name in METRICS:
        value = record.get(name)
        if value is None and name == "meteor_pl" and not meteor_pl_expected:
            continue
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is {value!r}")
        elif value < 0 or (name in BOUNDED and value > 100.0):
            problems.append(f"{where}: {name} = {value} out of range")
    return problems


def score_output(path: str, segments: int, meteor_pl_expected: bool) -> list[str]:
    try:
        records = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable JSONL ({exc})"]
    kinds = [r.get("record") for r in records]
    if kinds != ["config"] + ["segment"] * segments + ["aggregate"]:
        return [f"{path}: expected config, {segments} segments, aggregate; got {len(records)} records"]
    problems = []
    for record in records[1:-1]:
        problems += _scores_ok(record, f"{path} segment {record.get('index')}", meteor_pl_expected)
    aggregate = records[-1]
    if aggregate.get("segments") != segments:
        problems.append(f"{path}: aggregate counts {aggregate.get('segments')} segments")
    return problems + _scores_ok(aggregate, f"{path} aggregate", meteor_pl_expected)


def _final_model(path: str) -> tuple[dict, list[str]]:
    try:
        trace = json.loads(Path(path).read_text(encoding="utf-8"))
        model = trace["final_model"]
        values = model["coefficients"] + [model["adjusted_r2"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {}, [f"{path}: unreadable regression JSON ({exc})"]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return trace, [f"{path}: non-finite coefficients or adjusted R2"]
    return trace, []


def regress_output(path: str) -> list[str]:
    return _final_model(path)[1]


def table1_output(path: str) -> list[str]:
    trace, problems = _final_model(path)
    if problems:
        return problems
    model = trace["final_model"]
    removed = [step["removed"] for step in trace["steps"] if step["removed"] is not None]
    got = tuple(round(c, 3) for c in model["coefficients"])
    if list(model["predictors"]) != TABLE1_FINAL:
        problems.append(f"table1 elimination kept {model['predictors']}, expected {TABLE1_FINAL}")
    if removed != TABLE1_REMOVED:
        problems.append(f"table1 elimination removed {removed}, expected {TABLE1_REMOVED}")
    if got != TABLE1_COEFFICIENTS:
        problems.append(f"table1 coefficients {got}, expected {TABLE1_COEFFICIENTS}")
    if round(model["adjusted_r2"], 3) != TABLE1_ADJ_R2:
        problems.append(f"table1 adjusted R2 {model['adjusted_r2']:.4f}, expected {TABLE1_ADJ_R2}")
    return problems


def ter_oracle(ter, oracles, hyp: list[str], ref: list[str]) -> list[str]:
    edits = ter(hyp, ref).edits
    low, high = oracles.ter_exhaustive(hyp, ref), oracles.lev(hyp, ref)
    if not low <= edits <= high:
        return [f"TER edits {edits} outside [{low}, {high}] for {hyp} vs {ref}"]
    return []


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def golden(workload: str, value: str) -> list[str]:
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload)
    if recorded != value:
        return [f"{workload}: golden output digest {value} differs from recorded {recorded}"]
    return []
