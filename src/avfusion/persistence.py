"""On-disk formats: embeddings, checkpoints, epoch logs, and reports.

Binary payloads are little-endian float64 behind a magic + JSON header, so
files round-trip losslessly and are readable across platforms.  Tabular
outputs are CSV with a fixed column order; structured reports are a single
JSON document with numbers rendered at 6 significant digits.
"""

import csv
import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .data import Sample
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    PersistenceError,
    ShapeError,
)
from .evaluation import BoxplotStats, boxplot_stats
from .heads import HEAD_KINDS
from .arcmargin import ArcMarginHead

EMBEDDING_MAGIC = b"AVFEMB01"
CHECKPOINT_MAGIC = b"AVFCKP01"


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_framed(path, magic, header: dict, payload: bytes):
    header_bytes = _json_bytes(header)
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def _read_framed(path, magic):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    if len(blob) < len(magic) + 4 or blob[: len(magic)] != magic:
        raise PersistenceError(f"{path}: bad magic, not a {magic.decode()} file")
    (header_len,) = struct.unpack("<I", blob[len(magic) : len(magic) + 4])
    start = len(magic) + 4
    if len(blob) < start + header_len:
        raise PersistenceError(f"{path}: truncated header")
    try:
        header = json.loads(blob[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"{path}: unparsable header: {exc}") from exc
    if not isinstance(header, dict):
        raise PersistenceError(f"{path}: header is not a JSON object")
    if header.get("version") != 1:
        raise PersistenceError(f"{path}: unsupported version {header.get('version')}")
    return header, blob[start + header_len :]


def _check_fields(path, table, checks):
    """Raise PersistenceError unless every `checks[key]` accepts `table[key]`."""
    for key, check in checks.items():
        if not check(table.get(key)):
            raise PersistenceError(f"{path}: header field {key!r} is missing or malformed")


def _is_count(value):
    return type(value) is int and value >= 0


def _is_number(value):
    return type(value) in (int, float) and math.isfinite(value)


def _is_table(value, check):
    """A list of [name, entry] pairs with string names and checked entries."""
    return isinstance(value, list) and all(
        isinstance(row, list) and len(row) == 2 and isinstance(row[0], str)
        and check(row[1]) for row in value
    )


def _check_finite(path, values):
    if not np.all(np.isfinite(values)):
        raise PersistenceError(f"{path}: payload holds NaN or Inf values")


def write_embeddings(path, samples):
    """Serialize nonempty samples; read(write(x)) is bit-exact in float64."""
    samples = list(samples)
    if not samples:
        raise PersistenceError(f"{path}: no samples to write")
    d_a = samples[0].audio.shape[0]
    d_v = samples[0].video.shape[0]
    for s in samples:
        if s.audio.shape != (d_a,) or s.video.shape != (d_v,):
            raise PersistenceError(
                f"sample {s.sample_id} does not match dims ({d_a}, {d_v})"
            )
        if not s.identity_id or not s.sample_id:
            raise PersistenceError("identifiers must be nonempty")
    header = {
        "version": 1,
        "endianness": "little",
        "d_a": int(d_a),
        "d_v": int(d_v),
        "count": len(samples),
        "records": [[s.identity_id, s.sample_id] for s in samples],
    }
    payload = np.concatenate(
        [np.concatenate([s.audio, s.video]) for s in samples]
    ).astype("<f8").tobytes()
    _write_framed(path, EMBEDDING_MAGIC, header, payload)


def read_embeddings(path):
    header, payload = _read_framed(path, EMBEDDING_MAGIC)
    _check_fields(path, header, {
        "d_a": _is_count, "d_v": _is_count, "count": _is_count,
        "records": lambda r: _is_table(r, lambda sample_id: isinstance(sample_id, str)),
    })
    d_a, d_v, count = header["d_a"], header["d_v"], header["count"]
    if len(header["records"]) != count:
        raise PersistenceError(f"{path}: record table does not match count")
    expected = count * (d_a + d_v) * 8
    if len(payload) != expected:
        raise PersistenceError(
            f"{path}: payload length {len(payload)} != expected {expected}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(count, d_a + d_v)
    _check_finite(path, values)
    return [
        Sample(
            identity_id=identity,
            sample_id=sample_id,
            audio=values[i, :d_a].astype(np.float64),
            video=values[i, d_a:].astype(np.float64),
        )
        for i, (identity, sample_id) in enumerate(header["records"])
    ]


def save_checkpoint(path, head, arc_head, provenance=None):
    state = head.state()
    tensors = [[f"head.{k}", list(v.shape)] for k, v in sorted(state.items())]
    tensors.append(["arc.prototypes", list(arc_head.prototypes.shape)])
    header = {
        "version": 1,
        "endianness": "little",
        "head": head.meta(),
        "arc": {
            "scale": arc_head.scale,
            "margin": arc_head.margin,
            "n_classes": arc_head.n_classes,
        },
        "provenance": provenance or {},
        "tensors": tensors,
    }
    merged = {f"head.{k}": v for k, v in state.items()}
    merged["arc.prototypes"] = arc_head.prototypes
    payload = b"".join(
        np.ascontiguousarray(merged[name], dtype="<f8").tobytes()
        for name, _ in tensors
    )
    _write_framed(path, CHECKPOINT_MAGIC, header, payload)


# What every head's meta() holds; its other entries are finite numbers.
_HEAD_FIELDS = {
    "kind": lambda kind: isinstance(kind, str) and kind in HEAD_KINDS,
    "d_a": _is_count, "d_v": _is_count, "d_e": _is_count, "dropout_p": _is_number,
}


def load_checkpoint(path):
    """Returns (head, arc_head, provenance)."""
    header, payload = _read_framed(path, CHECKPOINT_MAGIC)
    _check_fields(path, header, {
        "head": lambda meta: isinstance(meta, dict),
        "arc": lambda arc: isinstance(arc, dict),
        "tensors": lambda table: _is_table(
            table, lambda shape: isinstance(shape, list) and all(map(_is_count, shape))
        ),
    })
    meta = header["head"]
    _check_fields(path, meta, {**{key: _is_number for key in meta}, **_HEAD_FIELDS})
    _check_fields(path, header["arc"], {"scale": _is_number, "margin": _is_number})
    tensors = {}
    offset = 0
    for name, shape in header["tensors"]:
        size = math.prod(shape) * 8
        if offset + size > len(payload):
            raise PersistenceError(f"{path}: truncated payload at tensor {name}")
        tensors[name] = (
            np.frombuffer(payload[offset : offset + size], dtype="<f8")
            .reshape(shape)
            .astype(np.float64)
        )
        offset += size
    if offset != len(payload):
        raise PersistenceError(f"{path}: trailing bytes after last tensor")
    _check_finite(path, np.frombuffer(payload, dtype="<f8"))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            head = HEAD_KINDS[meta["kind"]].from_state(
                meta,
                {k[len("head."):]: v for k, v in tensors.items()
                 if k.startswith("head.")},
            )
            arc = ArcMarginHead(
                prototypes=tensors["arc.prototypes"],
                scale=header["arc"]["scale"],
                margin=header["arc"]["margin"],
            )
            if arc.prototypes.shape[0] != head.d_e:
                raise ShapeError(f"prototypes {arc.prototypes.shape} for d_e {head.d_e}")
    except KeyError as exc:
        raise PersistenceError(f"{path}: missing tensor {exc}") from exc
    except (ShapeError, DegenerateInputError, ConfigurationError) as exc:
        raise PersistenceError(f"{path}: inconsistent tensors: {exc}") from exc
    except FloatingPointError as exc:
        raise PersistenceError(f"{path}: tensor values out of range: {exc}") from exc
    return head, arc, header.get("provenance", {})


def write_epoch_log(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(_json_bytes(asdict(r)).decode("utf-8"))
            fh.write("\n")


def read_epoch_log(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _sig6(x):
    """Render a float at 6 significant digits, as a float again."""
    return float(f"{float(x):.6g}")


def _stats_dict(stats: BoxplotStats):
    return {
        "min": _sig6(stats.minimum),
        "q1": _sig6(stats.q1),
        "median": _sig6(stats.median),
        "q3": _sig6(stats.q3),
        "max": _sig6(stats.maximum),
        "whisker_low": _sig6(stats.whisker_low),
        "whisker_high": _sig6(stats.whisker_high),
        "outliers": [_sig6(v) for v in stats.outliers],
    }


def report_document(report):
    """The structured (JSON-ready) form of a DiagnosticsReport."""
    doc = {
        "eer": {
            mode: {
                "eer": _sig6(r.eer),
                "threshold": _sig6(r.threshold),
                "n_target": r.n_target,
                "n_nontarget": r.n_nontarget,
            }
            for mode, r in sorted(report.eer.items())
        },
        "angle_families": {},
        "silhouette": {m: _sig6(v) for m, v in sorted(report.silhouette.items())},
        "warnings": report.warnings,
    }

    def family_doc(angle_report):
        return {
            "per_identity": {
                identity: _stats_dict(boxplot_stats(angles)) if angles else None
                for identity, angles in sorted(angle_report.per_identity.items())
            },
            "warnings": angle_report.warnings,
        }

    if report.audio_video is not None:
        doc["angle_families"]["audio_video"] = family_doc(report.audio_video)
    if report.within_identity:
        doc["angle_families"]["within_identity"] = {
            modality: family_doc(rep)
            for modality, rep in sorted(report.within_identity.items())
        }
    if report.between_centroids:
        doc["angle_families"]["between_centroids"] = {
            modality: {
                "identities": ids,
                "matrix": [[_sig6(v) for v in row] for row in matrix],
            }
            for modality, (ids, matrix) in sorted(report.between_centroids.items())
        }
    return doc


def write_report(path_prefix, report, format="structured"):
    """Write the report as "structured" JSON (`<prefix>.json`), "tabular" CSV
    (`<prefix>_eer.csv`, `<prefix>_diagnostics.csv`) or "both"; returns the
    list of paths written."""
    if format not in ("structured", "tabular", "both"):
        raise PersistenceError(f"unknown report format {format!r}")
    doc = report_document(report)
    paths = []
    if format != "tabular":
        paths.append(f"{path_prefix}.json")
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=1))
            fh.write("\n")
    if format == "structured":
        return paths
    eer_path = f"{path_prefix}_eer.csv"
    with open(eer_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "eer", "threshold", "n_target", "n_nontarget"])
        for mode, entry in doc["eer"].items():
            writer.writerow(
                [mode, f"{entry['eer']:.6g}", f"{entry['threshold']:.6g}",
                 entry["n_target"], entry["n_nontarget"]]
            )
    paths.append(eer_path)
    diag_path = f"{path_prefix}_diagnostics.csv"
    with open(diag_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["family", "modality", "identity", "min", "q1", "median", "q3", "max",
             "whisker_low", "whisker_high", "n_outliers"]
        )

        def stats_row(family, modality, identity, stats):
            writer.writerow(
                [family, modality, identity]
                + [f"{stats[k]:.6g}" for k in
                   ("min", "q1", "median", "q3", "max", "whisker_low",
                    "whisker_high")]
                + [len(stats["outliers"])]
            )

        families = doc["angle_families"]
        if "audio_video" in families:
            for identity, stats in families["audio_video"]["per_identity"].items():
                if stats is not None:
                    stats_row("audio_video", "both", identity, stats)
        for modality, fam in families.get("within_identity", {}).items():
            for identity, stats in fam["per_identity"].items():
                if stats is not None:
                    stats_row("within_identity", modality, identity, stats)
        for modality, fam in families.get("between_centroids", {}).items():
            matrix = np.asarray(fam["matrix"])
            if matrix.size:
                upper = matrix[np.triu_indices(matrix.shape[0], k=1)]
                if upper.size:
                    stats_row(
                        "between_centroids", modality, "__all__",
                        _stats_dict(boxplot_stats(upper)),
                    )
        for modality, value in doc["silhouette"].items():
            writer.writerow(
                ["silhouette", modality, "__all__", f"{value:.6g}", "", "", "", "",
                 "", "", ""]
            )
    paths.append(diag_path)
    return paths


def read_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"cannot read report {path}: {exc}") from exc
