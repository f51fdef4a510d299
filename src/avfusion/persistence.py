"""On-disk formats: embeddings, checkpoints, epoch logs, and reports.

Binary payloads are little-endian float64 behind a magic + JSON header, so
files round-trip losslessly and are readable across platforms.  Tabular
outputs are CSV with a fixed column order; structured reports are a single
JSON document with numbers rendered at 6 significant digits, spelled as
`json.dumps(doc, sort_keys=True, indent=1)` spells it.
"""

import contextlib
import csv
import io
import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from . import svgplot
from .data import SampleSet
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    PersistenceError,
    ShapeError,
)
from .evaluation import MODALITY_MODES, BoxplotStats, boxplot_stats
from .heads import HEAD_KINDS
from .arcmargin import ArcMarginHead

EMBEDDING_MAGIC = b"AVFEMB01"
CHECKPOINT_MAGIC = b"AVFCKP01"


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_framed(path, magic, header: dict, tensors):
    """Magic, header length, JSON header, then each tensor's little-endian
    float64 bytes from its own buffer; a failed write removes the file."""
    header_bytes = _json_bytes(header)
    with all_or_nothing() as written, open(path, "wb") as fh:
        written.append(path)
        fh.write(magic)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for tensor in tensors:
            fh.write(np.ascontiguousarray(tensor, dtype="<f8"))


def _read_framed(path, magic):
    """(header, payload, payload byte count) of a framed file.

    The payload is read straight into one float64 array, the only copy of
    it; a byte count that is not a multiple of 8 leaves the last element
    partly unread, and the callers reject such a count.
    """
    start = len(magic) + 4
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            prefix = fh.read(start)
            if len(prefix) < start or prefix[: len(magic)] != magic:
                raise PersistenceError(f"{path}: bad magic, not a {magic.decode()} file")
            (header_len,) = struct.unpack("<I", prefix[len(magic) :])
            # A damaged length must not size a read beyond the file.
            header_bytes = fh.read(header_len) if start + header_len <= size else b""
            if len(header_bytes) < header_len:
                raise PersistenceError(f"{path}: truncated header")
            n_bytes = size - start - header_len
            payload = np.empty(-(-n_bytes // 8), dtype="<f8")
            if fh.readinto(memoryview(payload).cast("B")[:n_bytes]) != n_bytes:
                raise PersistenceError(f"{path}: payload shorter than the file size")
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"{path}: unparsable header: {exc}") from exc
    if not isinstance(header, dict):
        raise PersistenceError(f"{path}: header is not a JSON object")
    if header.get("version") != 1:
        raise PersistenceError(f"{path}: unsupported version {header.get('version')}")
    if not payload.dtype.isnative:
        payload = payload.astype(np.float64)
    return header, payload, n_bytes


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
    """Serialize a nonempty sample set (or `Sample` sequence); the payload is
    `[audio | video]` in one piece, and read(write(x)) is bit-exact in
    float64."""
    try:
        samples = SampleSet.of(samples)
    except ShapeError as exc:
        raise PersistenceError(str(exc)) from exc
    if not len(samples):
        raise PersistenceError(f"{path}: no samples to write")
    if not (all(samples.identity_ids) and all(samples.sample_ids)):
        raise PersistenceError("identifiers must be nonempty")
    header = {
        "version": 1,
        "endianness": "little",
        "d_a": samples.audio.shape[1],
        "d_v": samples.video.shape[1],
        "count": len(samples),
        "records": list(zip(samples.identity_ids, samples.sample_ids)),
    }
    payload = np.concatenate([samples.audio, samples.video], axis=1)
    _write_framed(path, EMBEDDING_MAGIC, header, [payload])


def read_embeddings(path):
    """The file's SampleSet; its audio and video are column views of the one
    payload buffer."""
    header, payload, n_bytes = _read_framed(path, EMBEDDING_MAGIC)
    _check_fields(path, header, {
        "d_a": _is_count, "d_v": _is_count, "count": _is_count,
        "records": lambda r: _is_table(r, lambda sample_id: isinstance(sample_id, str)),
    })
    d_a, d_v, count = header["d_a"], header["d_v"], header["count"]
    records = header["records"]
    if len(records) != count:
        raise PersistenceError(f"{path}: record table does not match count")
    expected = count * (d_a + d_v) * 8
    if n_bytes != expected:
        raise PersistenceError(f"{path}: payload length {n_bytes} != expected {expected}")
    _check_finite(path, payload)
    if count and not (d_a and d_v):
        raise PersistenceError(f"{path}: audio/video dims ({d_a}, {d_v}) must be >= 1")
    identity_ids, sample_ids = [r[0] for r in records], [r[1] for r in records]
    try:
        # Reports spell identifiers in UTF-8, which cannot encode a lone
        # surrogate that a JSON header can spell.
        "".join(identity_ids + sample_ids).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise PersistenceError(
            f"{path}: an identifier holds {exc.object[exc.start:exc.end]!r}, "
            "which UTF-8 cannot encode") from exc
    values = payload.reshape(count, d_a + d_v)
    return SampleSet(values[:, :d_a], values[:, d_a:], identity_ids, sample_ids)


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
    _write_framed(path, CHECKPOINT_MAGIC, header, [merged[name] for name, _ in tensors])


# What every head's meta() holds; its other entries are finite numbers.
_HEAD_FIELDS = {
    "kind": lambda kind: isinstance(kind, str) and kind in HEAD_KINDS,
    "d_a": _is_count, "d_v": _is_count, "d_e": _is_count, "dropout_p": _is_number,
}


def load_checkpoint(path):
    """Returns (head, arc_head, provenance)."""
    header, payload, n_bytes = _read_framed(path, CHECKPOINT_MAGIC)
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
    offset = 0  # in float64 elements
    for name, shape in header["tensors"]:
        size = math.prod(shape)
        if (offset + size) * 8 > n_bytes:
            raise PersistenceError(f"{path}: truncated payload at tensor {name}")
        tensors[name] = payload[offset : offset + size].reshape(shape)
        offset += size
    if offset * 8 != n_bytes:
        raise PersistenceError(f"{path}: trailing bytes after last tensor")
    _check_finite(path, payload)
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
    if head.meta() != meta:
        raise PersistenceError(f"{path}: header head {meta} disagrees with its tensors")
    return head, arc, header.get("provenance", {})


def write_epoch_log(path, records):
    """One JSON line per epoch record; a failed write removes the file."""
    write_files({path: "".join(_json_bytes(asdict(r)).decode("utf-8") + "\n"
                               for r in records)})


@contextlib.contextmanager
def all_or_nothing(out_dir=None):
    """Make `out_dir` if given and missing, then run the body with a list of
    the paths it opens for writing.  If the body raises, every listed file
    and every directory made here is removed before the error goes on."""
    made = []
    parent = os.path.abspath(out_dir) if out_dir is not None else "."
    while not os.path.lexists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    written = []
    try:
        if made:
            os.makedirs(out_dir)
        yield written
    except BaseException:
        for remove, paths in ((os.remove, written), (os.rmdir, made)):
            for path in paths:  # the directories innermost first
                with contextlib.suppress(OSError):
                    remove(path)
        raise


def write_files(files, out_dir=None):
    """Write the text of each path of `files` ({path: text}), all or nothing."""
    with all_or_nothing(out_dir) as written:
        for path, text in files.items():
            with open(path, "w", newline="", encoding="utf-8") as fh:
                written.append(path)
                fh.write(text)


def _sig6(x):
    """Render a float at 6 significant digits, as a float again."""
    return float(f"{float(x):.6g}")


def _sig6_all(values):
    """[_sig6(v) for v in values] of floats, each a C-level format and parse."""
    return list(map(float, map("{:.6g}".format, values)))


def _sig6_matrix(matrix):
    """[[_sig6(v) for v in row] for row in matrix], rounding each distinct
    float (by bit pattern, so 0.0 and -0.0 apart) once."""
    values = np.ascontiguousarray(matrix, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    rounded = np.array(_sig6_all(bits.view(np.float64).tolist()), dtype=np.float64)
    return rounded[inverse].reshape(values.shape).tolist()


_STATS_KEYS = ("min", "q1", "median", "q3", "max", "whisker_low", "whisker_high")


def _stats_dict(stats: BoxplotStats):
    values = (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum,
              stats.whisker_low, stats.whisker_high)
    doc = dict(zip(_STATS_KEYS, _sig6_all(values)))
    doc["outliers"] = _sig6_all(stats.outliers)
    return doc


def _identity_stats(angle_report):
    """(identity, BoxplotStats, or None for no angles) of each identity of
    an angle family, in sorted identity order."""
    return [(identity, boxplot_stats(angles) if angles else None)
            for identity, angles in sorted(angle_report.per_identity.items())]


def report_document(report):
    """The structured (JSON-ready) form of a DiagnosticsReport."""

    def family_doc(angle_report):
        return {
            "per_identity": {
                identity: None if stats is None else _stats_dict(stats)
                for identity, stats in _identity_stats(angle_report)
            },
            "warnings": angle_report.warnings,
        }

    return {
        "eer": {
            mode: {
                "eer": _sig6(r.eer),
                "threshold": _sig6(r.threshold),
                "n_target": r.n_target,
                "n_nontarget": r.n_nontarget,
            }
            for mode, r in sorted(report.eer.items())
        },
        "angle_families": {
            "audio_video": family_doc(report.audio_video),
            "within_identity": {
                modality: family_doc(rep)
                for modality, rep in sorted(report.within_identity.items())
            },
            "between_centroids": {
                modality: {"identities": ids, "matrix": _sig6_matrix(matrix)}
                for modality, (ids, matrix) in sorted(report.between_centroids.items())
            },
        },
        "silhouette": {m: _sig6(v) for m, v in sorted(report.silhouette.items())},
        "warnings": report.warnings,
    }


# What `json.dumps` makes of a "matrix" key whose value is the string "\0".
# Inside a JSON string every quote is escaped, so no identity can spell it.
_MATRIX_MARKER = '"matrix": "\\u0000"'
# `report_document` puts each matrix four levels deep, so `json.dumps(...,
# indent=1)` indents its rows by five spaces and their values by six.
_ROW_BREAK, _VALUE_BREAK = "\n" + 5 * " ", "\n" + 6 * " "


def _matrix_json(rows):
    """The JSON text of a `report_document` centroid matrix where the report
    holds it: each distinct value (by bit pattern) spelled once, by one
    `json.dumps` call for them all, and joined row by row."""
    if not rows:
        return "[]"
    values = np.array(rows, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    # No float's JSON text holds ", ", so the list splits at its separators.
    spelled = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ")
    texts = np.array(spelled, dtype=object)[inverse].reshape(values.shape)
    lines = ["[" + _VALUE_BREAK + ("," + _VALUE_BREAK).join(row) + _ROW_BREAK + "]"
             for row in texts.tolist()]
    return "[" + _ROW_BREAK + ("," + _ROW_BREAK).join(lines) + "\n    ]"


def _report_json(doc):
    """`json.dumps(doc, sort_keys=True, indent=1)` of a `report_document`.
    The standard encoder lays out the document with a marker in place of
    each centroid matrix, and `_matrix_json` spells the matrices (most of a
    report's numbers) into the markers' places, in sorted modality order."""
    matrices = doc["angle_families"]["between_centroids"]
    shell = {**doc, "angle_families": {**doc["angle_families"], "between_centroids": {
        modality: {**family, "matrix": "\0"} for modality, family in matrices.items()}}}
    pieces = json.dumps(shell, sort_keys=True, indent=1).split(_MATRIX_MARKER)
    texts = ['"matrix": ' + _matrix_json(matrices[m]["matrix"]) for m in sorted(matrices)]
    return "".join(piece + text for piece, text in zip(pieces, texts + [""]))


def _csv_text(rows):
    """The rows as `csv.writer` writes them, lines ending in CRLF."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _diagnostics_rows(doc):
    """The rows of `<prefix>_diagnostics.csv`: each value of the report
    document's per-identity stats, the stats of the upper triangle of each
    rounded centroid matrix, and the silhouettes, at 6 significant digits."""
    yield ["family", "modality", "identity", "min", "q1", "median", "q3", "max",
           "whisker_low", "whisker_high", "n_outliers"]

    def stats_row(family, modality, identity, stats):
        *values, outliers = stats.values()  # in the order of _stats_dict
        return [family, modality, identity, *map("{:.6g}".format, values), len(outliers)]

    families = doc["angle_families"]
    walks = [("audio_video", "both", families["audio_video"]),
             *(("within_identity", modality, fam)
               for modality, fam in families["within_identity"].items())]
    for family, modality, fam in walks:
        for identity, stats in fam["per_identity"].items():
            if stats is not None:
                yield stats_row(family, modality, identity, stats)
    for modality, fam in families["between_centroids"].items():
        # The upper triangle, row by row, as np.triu_indices lists it.
        upper = [v for i, row in enumerate(fam["matrix"]) for v in row[i + 1:]]
        if upper:
            yield stats_row("between_centroids", modality, "__all__",
                            _stats_dict(boxplot_stats(upper)))
    for modality, value in doc["silhouette"].items():
        yield ["silhouette", modality, "__all__", f"{value:.6g}", "", "", "", "", "", "", ""]


def write_report(path_prefix, report, format="structured"):
    """Lay out the report as "structured" JSON (`<prefix>.json`), "tabular"
    CSV (`<prefix>_eer.csv`, `<prefix>_diagnostics.csv`) or "both", and
    write it (see `write_files`); returns the list of paths."""
    if format not in ("structured", "tabular", "both"):
        raise PersistenceError(f"unknown report format {format!r}")
    doc = report_document(report)
    texts = {}
    if format != "tabular":
        texts[f"{path_prefix}.json"] = _report_json(doc) + "\n"
    if format != "structured":
        texts[f"{path_prefix}_eer.csv"] = _csv_text([
            ["mode", "eer", "threshold", "n_target", "n_nontarget"],
            *([mode, f"{entry['eer']:.6g}", f"{entry['threshold']:.6g}",
               entry["n_target"], entry["n_nontarget"]]
              for mode, entry in doc["eer"].items()),
        ])
        texts[f"{path_prefix}_diagnostics.csv"] = _csv_text(_diagnostics_rows(doc))
    write_files(texts)
    return list(texts)


def write_diagnostics(out_dir, report, label):
    """Write `diagnose`'s outputs into `out_dir`, all or nothing (see
    `write_files`): an SVG boxplot per angle family, a box per identity
    under the legend `label`, then `diagnostics_summary.json`, whose
    `warnings` sums the families'.  Returns the summary."""
    families = {
        "audio_video": report.audio_video,
        "within_audio": report.within_identity["audio"],
        "within_video": report.within_identity["video"],
    }
    summary = {"silhouette": dict(report.silhouette),
               "warnings": sum(family.warnings for family in families.values()),
               "families": {}}
    files = {}
    for name, family in families.items():
        files[os.path.join(out_dir, f"{name}.svg")] = svgplot.render_boxplot_svg(
            _identity_stats(family), label, name.replace("_", " "))
        angles = family.all_angles()
        stats = boxplot_stats(angles) if angles else None
        summary["families"][name] = None if stats is None else {
            "median": stats.median, "q1": stats.q1, "q3": stats.q3, "n": len(angles)}
    files[os.path.join(out_dir, "diagnostics_summary.json")] = json.dumps(
        summary, sort_keys=True, indent=1) + "\n"
    write_files(files, out_dir)
    return summary


def write_comparison(out_dir, rows):
    """Write `comparison.csv` into `out_dir`, a line of EERs per (model,
    {mode: EerResult}) of `rows`; returns its path."""
    path = os.path.join(out_dir, "comparison.csv")
    lines = ["model," + ",".join(MODALITY_MODES) + "\n"]
    for model, eers in rows:
        lines.append(",".join([model, *(f"{eers[m].eer:.6g}" for m in MODALITY_MODES)]) + "\n")
    write_files({path: "".join(lines)})
    return path


def read_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"cannot read report {path}: {exc}") from exc
