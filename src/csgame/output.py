"""Deterministic file output: trajectory CSV/JSON, reports, plot data.

Floats are rendered with ``repr`` (shortest round-trip form) and JSON keys
are sorted, so identical inputs always produce byte-identical files; no
timestamps or environment details ever enter a payload. JSON is strict: a
non-finite float raises ``ValueError`` instead of becoming ``Infinity``/``NaN``.

Per-step files and a sweep's trial files are rendered in bulk from numpy
columns by one template renderer. A template is the text around the cells
of one row: for CSV, the commas and the line break; for JSON, the text the
standard encoder lays out around the numbered leaves of a skeleton (a
payload whose leaves are the columns' arrays), so a file is exactly
``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline. The cells
are ``float.__repr__``/``int.__repr__`` on ``tolist()`` output (JSON string
literals for strings), once per distinct value of a column, and a row is
the template's texts and its cells joined. Per-step files are rendered
:data:`_CHUNK_STEPS` (1024) steps at a time and trial files as many trials
at a time, each chunk costing a handful of numpy calls whatever its size,
while the memory a writer holds stays bounded by one chunk's cells.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .montecarlo import SCHEMA_VERSION, MonteCarloSummary, SweepRecords

__all__ = [
    "write_trajectory_csv", "read_trajectory_csv", "write_trajectory_json",
    "write_summary_json", "write_trial_records", "emit_plot_data",
]

# Rows (steps, or trial files) rendered at once, which bounds the writers'
# memory whatever their number. Writer CPU time of the two-player
# cycle_long CSV and agg_long JSON falls with the chunk up to 1024 steps and
# no further; there a writer holds about 1-2 MB.
_CHUNK_STEPS = 1024
# A numbered leaf of a skeleton, as the encoder writes it.
_LEAF = re.compile(r'"@@(\d+)@@"')
_FORMATS = {"i": repr, "u": repr, "f": repr, "U": json.dumps}


def dumps_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def write_json(payload: dict, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_json(payload) + "\n")
    return path


def _strings(block: np.ndarray) -> np.ndarray:
    """Object array of the cells' strings, each distinct value rendered once
    (floats told apart by their bits, so 0.0 and -0.0 stay distinct;
    strings as JSON string literals; object cells as they are)."""
    fmt = _FORMATS.get(block.dtype.kind)
    if fmt is None:
        return block.astype(object)
    if block.dtype.kind == "U":
        values, where = np.unique(block, return_inverse=True)
    else:
        bits = np.ascontiguousarray(block).view(f"i{block.itemsize}")
        values, where = np.unique(bits, return_inverse=True)
        values = values.view(block.dtype)
    strings = np.array(list(map(fmt, values.tolist())), dtype=object)
    return strings[where.reshape(block.shape)]


def _cells(blocks: list[np.ndarray], order=None) -> np.ndarray:
    """(rows, cells) object array of the blocks' strings: each block's first
    axis is the row, and its entries, in C order, are that row's cells,
    block after block; ``order`` puts them in a template's order."""
    cells = np.concatenate([_strings(b.reshape(len(b), -1)) for b in blocks], axis=1)
    return cells if order is None else cells[:, order]


def _fill(texts: list[str], cells: np.ndarray) -> np.ndarray:
    """(rows, 2n + 1) object array: each row's n cells between the n + 1
    texts of a template."""
    out = np.empty((len(cells), 2 * len(texts) - 1), dtype=object)
    out[:, 0::2] = np.array(texts, dtype=object)
    out[:, 1::2] = cells
    return out


def _skeleton(tree, number, arrays: list):
    """``tree`` with every array leaf, whose first axis is the row, replaced
    by one row's shape of leaf strings numbered by ``number``; the arrays
    are appended to ``arrays`` in that order, and other leaves are kept."""
    if isinstance(tree, dict):
        return {key: _skeleton(value, number, arrays) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_skeleton(value, number, arrays) for value in tree]
    if not isinstance(tree, np.ndarray):
        return tree
    arrays.append(tree)
    shape = tree.shape[1:]
    return np.array([f"@@{next(number)}@@" for _ in range(math.prod(shape))],
                    dtype=object).reshape(shape).tolist()


def _template(tree) -> tuple[list[str], list[int], list[np.ndarray]]:
    """The standard encoder's layout of ``tree`` (see :func:`_skeleton`):
    the texts around its leaves, one more than the leaves, then the leaf
    numbers in the order the sorted keys lay them out, and the leaf arrays.
    A non-finite float, in an array or kept as it is, raises ValueError."""
    arrays: list = []
    parts = _LEAF.split(dumps_json(_skeleton(tree, itertools.count(), arrays)) + "\n")
    return parts[0::2], [int(i) for i in parts[1::2]], _finite(arrays)


def _finite(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """``arrays``, once none holds a non-finite float (else ValueError, as
    the standard encoder raises)."""
    if any(a.dtype.kind == "f" and not np.isfinite(a).all() for a in arrays):
        raise ValueError("Out of range float values are not JSON compliant")
    return arrays


def _render(path, head: str, template, tail: str, n_rows: int, columns,
            order=None, newline: str | None = "") -> Path:
    """Write ``head``, every row, then ``tail``. A row of n cells is its
    cells between the texts ``template(n)``, whose first entry, what goes
    between two rows, is dropped before the first row. ``columns(a, b)``
    gives the blocks of rows a..b-1 (see :func:`_cells`); a ValueError it
    raises leaves no file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with path.open("w", newline=newline) as fh:
            fh.write(head)
            for a in range(0, n_rows, _CHUNK_STEPS):
                # One chunk's arrays and cells are gone before the next is read.
                fh.write(_rows(columns(a, min(a + _CHUNK_STEPS, n_rows)), template, order,
                               not a))
            fh.write(tail)
    except ValueError:
        path.unlink(missing_ok=True)
        raise
    return path


def _rows(blocks: list[np.ndarray], template, order, first: bool) -> str:
    """The text of the rows of ``blocks`` (see :func:`_render`)."""
    cells = _cells(blocks, order)
    out = _fill(template(cells.shape[1]), cells)
    if first:
        out[0, 0] = ""
    return "".join(out.ravel().tolist())


def _csv(path, header: list[str], n_steps: int, columns) -> Path:
    return _render(path, ",".join(header) + "\r\n",
                   lambda n_cells: ["\r\n"] + [","] * (n_cells - 1) + [""],
                   "\r\n" if n_steps else "", n_steps, columns)


def _state_names(traj: Trajectory) -> tuple[str, str]:
    """The state's column prefix and its trajectory field."""
    return ("belief", "beliefs") if traj.variant == "classic" else ("q", "q_values")


def write_trajectory_csv(traj: Trajectory, path) -> Path:
    """Long-format per-step rows: t, player, channel, utility, potential,
    then the player's decision-time state (belief_1..belief_S for the
    classic variant, q_1..q_S for the aggregation variant; column i holds
    channel i-1)."""
    prefix, state = _state_names(traj)
    fields = ("profiles", "utilities", "potentials", state)
    n_players, n_channels = traj.num_players, traj.n_channels
    header = ["t", "player", "channel", "utility", "potential"]
    header += [f"{prefix}_{s + 1}" for s in range(n_channels)]

    def columns(a, b):
        profiles, utilities, potentials, states = traj.steps(a, b, *fields)
        return [np.repeat(np.arange(a + 1, b + 1), n_players),
                np.tile(np.arange(n_players), b - a), profiles.ravel(), utilities.ravel(),
                np.repeat(potentials, n_players)] + (
                    [] if states is None else [states.reshape(-1, n_channels)])

    return _csv(path, header, traj.T, columns)


def read_trajectory_csv(path) -> Trajectory:
    """Rebuild a trajectory from its CSV form.

    The CSV carries the full per-step record but not the run's bookkeeping
    (tie-break policy, post-run state), so those fields are filled with
    defaults; use the JSON form when full fidelity matters.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    state_cols = [c for c in header if c.startswith(("belief_", "q_"))]
    variant = "classic" if state_cols and state_cols[0].startswith("belief_") else "aggregation"
    n_channels = len(state_cols)
    table = np.array([list(map(float, r)) for r in rows]).reshape(len(rows), len(header))
    t, k = table[:, 0].astype(np.int64) - 1, table[:, 1].astype(np.int64)
    T, n_players = (int(t.max()) + 1, int(k.max()) + 1) if rows else (0, 0)
    profiles = np.empty((T, n_players), dtype=np.int64)
    utilities = np.empty((T, n_players))
    potentials = np.empty(T)
    state = np.empty((T, n_players, n_channels))
    profiles[t, k] = table[:, 2]
    utilities[t, k] = table[:, 3]
    potentials[t] = table[:, 4]
    state[t, k] = table[:, 5:5 + n_channels]
    ends = state[[0, -1]] if T else np.empty((2, 0, n_channels))
    return Trajectory(
        variant=variant, tie_break="lowest", profiles=profiles, utilities=utilities,
        potentials=potentials, beliefs=state if variant == "classic" else None,
        q_values=state if variant == "aggregation" else None,
        initial_state=ends[0], final_state=ends[1], final_step=max(T, 1),
    )


def write_trajectory_json(traj: Trajectory, path) -> Path:
    """Full-fidelity JSON form of a run."""
    prefix, state = _state_names(traj)
    names = {"profile": "profiles", "utilities": "utilities", "potential": "potentials",
             prefix: state, "gamma": "gammas"}
    payload = {"schema_version": SCHEMA_VERSION, "variant": traj.variant,
               "tie_break": traj.tie_break, "initial_step": traj.initial_step,
               "initial_state": traj.initial_state.tolist(), "final_step": traj.final_step,
               "final_state": traj.final_state.tolist(), "steps": []}
    if not traj.T:
        return write_json(payload, path)
    # The fields the run carries, as a skeleton step of one row's shapes,
    # twice: the text between the two is what goes between rows.
    step = {"t": np.arange(1, 2)}
    step.update((key, arr.copy()) for key, arr in zip(names, traj.steps(0, 1, *names.values()))
                if arr is not None)  # copies: a view would keep the rendered block alive
    fields = [names[key] for key in step if key != "t"]
    payload["steps"] = [step, step]
    texts, order, _ = _template(payload)
    n_leaves = len(order) // 2
    row = [texts[n_leaves], *texts[1:n_leaves], ""]
    return _render(path, texts[0], lambda n_cells: row, texts[-1], traj.T,
                   lambda a, b: _finite([np.arange(a + 1, b + 1), *traj.steps(a, b, *fields)]),
                   order[:n_leaves], newline=None)


def write_summary_json(summary: MonteCarloSummary, path) -> Path:
    return write_json(summary.to_dict(), path)


def write_trial_records(records: SweepRecords, directory) -> list[Path]:
    """Write each trial record of a sweep to ``trial_<index>.json`` in
    ``directory``, as :func:`write_json` would write its dict, and return
    the paths in trial order. The files are rendered from the chunks'
    columns, one template per record skeleton and at most
    :data:`_CHUNK_STEPS` trials at a time, so no record dict is built. A
    non-finite float raises ValueError and leaves none of the files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    try:
        for chunk in records.chunks:
            for _, layout in chunk.skeletons():
                texts, order, arrays = _template(layout)
                trials = layout["trial"].tolist()
                for a in range(0, len(trials), _CHUNK_STEPS):
                    b = a + _CHUNK_STEPS
                    cells = _cells([arr[a:b] for arr in arrays], order)
                    for trial, row in zip(trials[a:b], _fill(texts, cells).tolist()):
                        paths[trial] = directory / f"trial_{trial:05d}.json"
                        paths[trial].write_text("".join(row))
    except ValueError:
        for path in paths.values():
            path.unlink(missing_ok=True)
        raise
    return [paths[trial] for trial in sorted(paths)]


def emit_plot_data(obj, kind: str, path) -> Path:
    """Write plotting-ready columnar data.

    Supported kinds: ``"beliefs"`` and ``"utilities"`` for a
    :class:`Trajectory` (wide per-step series), ``"regions"`` for a list of
    trial records (gain-ratio scatter with region labels).
    """
    if kind in ("beliefs", "utilities") and not isinstance(obj, Trajectory):
        raise ValueError(f"kind {kind!r} needs a Trajectory")
    # Both series are read a chunk at a time, as the trajectory writers read.
    if kind == "beliefs":
        prefix, state = _state_names(obj)
        if obj.steps(0, 0, state)[0] is None:
            raise ValueError("trajectory carries no per-step state snapshots")
        n_players, n_channels = (obj.num_players, obj.n_channels) if obj.T else (0, 0)
        header = [f"{prefix}_p{k}_c{s}" for k in range(n_players) for s in range(n_channels)]
        return _csv(path, ["t", *header], obj.T,
                    lambda a, b: [np.arange(a + 1, b + 1), *obj.steps(a, b, state)])
    if kind == "utilities":
        header = [f"utility_p{k}" for k in range(obj.num_players)]
        return _csv(path, ["t", *header, "potential"], obj.T, lambda a, b: [
            np.arange(a + 1, b + 1), *obj.steps(a, b, "utilities", "potentials")])
    if kind == "regions":
        if isinstance(obj, MonteCarloSummary):
            raise ValueError("region scatter needs the per-trial records, not the summary")
        gains = [rec["game"]["gains"] for rec in obj]
        if any(np.shape(g) != (2, 2) for g in gains):
            raise ValueError("region scatter needs 2x2 records (2 players, 2 channels)")
        return _region_scatter(path, [rec["trial"] for rec in obj], gains,
                               ["+".join(rec["regions"] or []) for rec in obj])
    raise ValueError(f"unsupported plot-data kind {kind!r}")


def _region_scatter(path, trials, gains, regions) -> Path:
    """The region scatter: per trial its index, its 2x2 gains, both gain
    ratios and its region labels joined by "+" (``regions``)."""
    gains = np.asarray(gains, dtype=float).reshape(len(trials), 2, 2)  # 2x2 games only
    with np.errstate(divide="raise", invalid="raise"):  # a zero gain has no ratio
        ratios = gains[:, :, 0] / gains[:, :, 1]
    blocks = [np.asarray(trials, dtype=np.int64), gains, ratios,
              np.asarray(regions, dtype=object)]
    header = ["trial", "g11", "g12", "g21", "g22", "own_ratio", "cross_ratio", "regions"]
    return _csv(path, header, len(trials), lambda a, b: [block[a:b] for block in blocks])
