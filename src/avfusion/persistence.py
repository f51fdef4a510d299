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
import itertools
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
    write_files({path: (_json_bytes(asdict(r)).decode("utf-8") + "\n" for r in records)})


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
    """Write each path of `files` ({path: the pieces of its text, in
    order}), all or nothing."""
    with all_or_nothing(out_dir) as written:
        for path, pieces in files.items():
            with open(path, "w", newline="", encoding="utf-8") as fh:
                written.append(path)
                fh.writelines(pieces)


def _sig6(x):
    """Render a float at 6 significant digits, as a float again."""
    return float(f"{float(x):.6g}")


def _sig6_texts(values):
    """Each value's `.6g` text (whose float is its `_sig6`), as an object array."""
    return np.array(list(map("{:.6g}".format, values.ravel().tolist())),
                    dtype=object).reshape(values.shape)


def _sig6_matrix(matrix):
    """(`_sig6` of each distinct float by bit pattern, each entry's index in it)."""
    values = np.ascontiguousarray(matrix, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    rounded = np.fromiter(map(float, map("{:.6g}".format, bits.view(np.float64).tolist())),
                          np.float64, bits.size)
    return rounded, inverse.reshape(values.shape)


_STATS_FIELDS = ("minimum", "q1", "median", "q3", "maximum", "whisker_low", "whisker_high")


def _family_angles(angle_report):
    """(sorted identities, all their angles in that order, each one's bounds)."""
    identities = sorted(angle_report.per_identity)
    lists = list(map(angle_report.per_identity.__getitem__, identities))
    bounds = np.concatenate(([0], np.cumsum(list(map(len, lists)), dtype=np.intp)))
    return identities, np.array([a for angles in lists for a in angles], np.float64), bounds


def _segment_stats(groups):
    """Per (names, values, bounds) of `groups`, from one `boxplot_stats` call: (names,
    counts, `_STATS_FIELDS` rows of a (7, segments) array, outliers, their bounds)."""
    sizes = np.concatenate([np.diff(bounds) for _, _, bounds in groups])
    stats = boxplot_stats(np.concatenate([values for _, values, _ in groups]),
                          np.concatenate(([0], np.cumsum(sizes))))
    columns = np.array([getattr(stats, name) for name in _STATS_FIELDS])
    outliers, ends = stats.outliers
    first = np.cumsum([0, *(len(names) for names, _, _ in groups)])
    return [(names, sizes[a:b], columns[:, a:b], outliers[ends[a]:ends[b]],
             ends[a:b + 1] - ends[a]) for (names, _, _), a, b in zip(groups, first, first[1:])]


def _report_stats(groups):
    """`_segment_stats` with the fields and outliers as `_sig6_texts`."""
    return [(names, counts, _sig6_texts(columns), _sig6_texts(outliers), ends)
            for names, counts, columns, outliers, ends in _segment_stats(groups)]


def _report_arrays(report):
    """`report_document` with the per_identity mappings as the families'
    `_report_stats` and each centroid matrix as its `_sig6_matrix`."""
    within = sorted(report.within_identity.items())
    families = [report.audio_video, *dict(within).values()]
    entries = _report_stats(list(map(_family_angles, families)))
    audio_video, *stats = ({"per_identity": entry, "warnings": family.warnings}
                           for family, entry in zip(families, entries))
    return {
        "eer": {mode: {"eer": _sig6(r.eer), "threshold": _sig6(r.threshold),
                       "n_target": r.n_target, "n_nontarget": r.n_nontarget}
                for mode, r in sorted(report.eer.items())},
        "angle_families": {
            "audio_video": audio_video,
            "within_identity": {modality: doc for (modality, _), doc in zip(within, stats)},
            "between_centroids": {
                modality: {"identities": ids, "matrix": _sig6_matrix(matrix)}
                for modality, (ids, matrix) in sorted(report.between_centroids.items())}},
        "silhouette": {m: _sig6(v) for m, v in sorted(report.silhouette.items())},
        "warnings": report.warnings,
    }


def report_document(report):
    """A DiagnosticsReport's JSON-ready form, what `read_report` reads back:
    `_report_arrays` with stats as floats, not texts, and matrices as lists."""
    doc = _report_arrays(report)
    families = doc["angle_families"]
    for family in (families["audio_video"], *families["within_identity"].values()):
        identities, counts, texts, outliers, ends = family["per_identity"]
        family["per_identity"] = {identity: {
            name: list(map(float, outliers[ends[k]:ends[k + 1]])) if row is None
            else float(texts[row, k]) for name, row in _STATS_KEYS} if counts[k] else None
            for k, identity in enumerate(identities)}
    for family in families["between_centroids"].values():
        family["matrix"] = family["matrix"][0][family["matrix"][1]].tolist()
    return doc


# `json.dumps` of a "\0" value; no key can spell it, as JSON escapes its quotes.
_MARKER = '": "\\u0000"'
# A per_identity entry's keys in sorted order, with their `_STATS_FIELDS` rows.
_STATS_KEYS = (("max", 4), ("median", 2), ("min", 0), ("outliers", None), ("q1", 1),
               ("q3", 3), ("whisker_high", 6), ("whisker_low", 5))
_spell_string = json.encoder.encode_basestring_ascii  # as `json.dumps` spells keys too


def _spell(values):
    """The JSON text of each value of a float array, from one `json.dumps`
    call: no float's text holds ", ", so the list splits at them."""
    return json.dumps(values.tolist())[1:-1].split(", ")


def _list_json(texts, depth):
    """The JSON text of a list of spelled items indented by `depth` spaces."""
    item = "\n" + " " * depth
    return "[" + item + ("," + item).join(texts) + item[:-1] + "]" if texts else "[]"


def _matrix_json(rounded, inverse):
    """The JSON text of a `_sig6_matrix` four levels deep: its distinct values
    spelled by one `_spell` call, its rows gathered 2**16 texts at a time."""
    spelled = np.array(_spell(rounded), dtype=object)
    step, rows = max(1, 2**16 // max(1, len(inverse))), []
    for start in range(0, len(inverse), step):
        rows += map(_list_json, spelled[inverse[start:start + step]].tolist(), [6] * step)
    return _list_json(rows, 5)


def _per_identity_json(entry, depth):
    """The JSON text of a `_report_stats` entry, identities indented by `depth`
    spaces: its floats spelled by one `_spell` call, each identity by one format."""
    identities, counts, texts, outliers, outlier_bounds = entry
    key, field = "\n" + " " * depth, "\n" + " " * (depth + 1)
    present = counts > 0
    n = int(present.sum())
    spelled = _spell(np.concatenate((texts[:, present].ravel(), outliers)).astype(np.float64))
    rows = [spelled[i * n:(i + 1) * n] for i in range(7)]
    lists = map(_list_json, map(spelled[7 * n:].__getitem__, map(
        slice, outlier_bounds[:-1][present].tolist(), outlier_bounds[1:][present].tolist())),
        [depth + 2] * n)
    keys = np.array(list(map(_spell_string, identities)), dtype=object)
    entries = np.array(list(map((key + "{}: null").format, keys)), dtype=object)
    template = key + "{}: {{" + ",".join(
        field + f'"{name}": {{}}' for name, _ in _STATS_KEYS) + key + "}}"
    entries[present] = list(map(template.format, keys[present], *(
        lists if row is None else rows[row] for _, row in _STATS_KEYS)))
    return "{" + ",".join(entries.tolist()) + key[:-1] + "}" if identities else "{}"


def _report_json(doc):
    """Yields the pieces of `json.dumps(report_document, sort_keys=True, indent=1)`,
    in order, from `_report_arrays`: a shell with markers for per_identity,
    identities and matrix, their texts spliced in.  Each text is spelled when
    its piece is asked for, so a writer holds one at a time."""
    families = doc["angle_families"]
    within, centroids = families["within_identity"], families["between_centroids"]
    shell = {**doc, "angle_families": {
        "audio_video": {**families["audio_video"], "per_identity": "\0"},
        "within_identity": {m: {**f, "per_identity": "\0"} for m, f in within.items()},
        "between_centroids": {m: {"identities": "\0", "matrix": "\0"} for m in centroids}}}

    def texts():
        yield _per_identity_json(families["audio_video"]["per_identity"], 4)
        for m in sorted(centroids):
            yield _list_json(list(map(_spell_string, centroids[m]["identities"])), 5)
            yield _matrix_json(*centroids[m]["matrix"])
        for m in sorted(within):
            yield _per_identity_json(within[m]["per_identity"], 5)

    pieces = json.dumps(shell, sort_keys=True, indent=1).split(_MARKER)
    yield pieces[0]
    for text, piece in zip(texts(), pieces[1:]):
        yield from ('": ', text, piece)


def _csv_text(*groups):
    """The rows of each group as `csv.writer` writes them, lines ending in CRLF,
    as one piece of text (see `write_files`)."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(row for rows in groups for row in rows)
    return [buffer.getvalue()]


def _diagnostics_rows(doc):
    """The groups of rows of `<prefix>_diagnostics.csv` from `_report_arrays`: each identity's
    stats, those of each rounded matrix's upper triangle, and the silhouettes."""
    families = doc["angle_families"]
    centroids = families["between_centroids"]
    uppers = [rounded[inverse[np.triu_indices(len(inverse), 1)]]  # row by row
              for rounded, inverse in (fam["matrix"] for fam in centroids.values())]
    walks = [("audio_video", "both", families["audio_video"]["per_identity"]),
             *(("within_identity", modality, fam["per_identity"])
               for modality, fam in families["within_identity"].items()),
             *zip(["between_centroids"] * len(uppers), centroids, _report_stats(
                 [(["__all__"], upper, [0, upper.size]) for upper in uppers]))]
    groups = [[["family", "modality", "identity", "min", "q1", "median", "q3", "max",
                "whisker_low", "whisker_high", "n_outliers"]]]
    for family, modality, (identities, counts, texts, _, outlier_bounds) in walks:
        present = counts > 0
        n = int(present.sum())
        groups.append(zip([family] * n, [modality] * n, np.array(identities, object)[present],
                          *texts[:, present].tolist(),
                          np.diff(outlier_bounds)[present].tolist()))
    return groups + [[["silhouette", modality, "__all__", f"{value:.6g}", *[""] * 7]
                      for modality, value in doc["silhouette"].items()]]


def write_report(path_prefix, report, format="structured"):
    """Lay out the report as "structured" JSON (`<prefix>.json`), "tabular"
    CSV (`<prefix>_eer.csv`, `<prefix>_diagnostics.csv`) or "both", and
    write it (see `write_files`); returns the list of paths."""
    if format not in ("structured", "tabular", "both"):
        raise PersistenceError(f"unknown report format {format!r}")
    doc = _report_arrays(report)
    texts = {}
    if format != "tabular":
        texts[f"{path_prefix}.json"] = itertools.chain(_report_json(doc), "\n")
    if format != "structured":
        texts[f"{path_prefix}_eer.csv"] = _csv_text([["mode", "eer", "threshold", "n_target",
                                                       "n_nontarget"]], (
            [mode, f"{e['eer']:.6g}", f"{e['threshold']:.6g}", e["n_target"], e["n_nontarget"]]
            for mode, e in doc["eer"].items()))
        texts[f"{path_prefix}_diagnostics.csv"] = _csv_text(*_diagnostics_rows(doc))
    write_files(texts)
    return list(texts)


def write_diagnostics(out_dir, report, label):
    """Write `diagnose`'s outputs into `out_dir`, all or nothing (see
    `write_files`): an SVG boxplot per angle family, a box per identity
    under the legend `label`, then `diagnostics_summary.json`, whose
    `warnings` sums the families'.  Returns the summary."""
    families = {"audio_video": report.audio_video,
                **{f"within_{m}": report.within_identity[m] for m in ("audio", "video")}}
    angles = [_family_angles(family) for family in families.values()]
    sizes = [values.size for _, values, _ in angles]
    whole = boxplot_stats(np.concatenate([values for _, values, _ in angles]),
                          np.cumsum([0, *sizes]))  # each family's angles as a whole
    summary = {"silhouette": dict(report.silhouette), "families": {
        name: {"median": median, "q1": q1, "q3": q3, "n": n} if n else None
        for name, n, q1, median, q3 in zip(families, sizes, whole.q1.tolist(),
                                           whole.median.tolist(), whole.q3.tolist())},
        "warnings": sum(family.warnings for family in families.values())}
    files = {}
    for name, (ids, counts, columns, outliers, ends) in zip(families, _segment_stats(angles)):
        outliers, ends = outliers.tolist(), ends.tolist()
        boxes = map(BoxplotStats, *columns.tolist(),
                    map(tuple, map(outliers.__getitem__, map(slice, ends[:-1], ends[1:]))))
        groups = [(identity, box if count else None)
                  for identity, box, count in zip(ids, boxes, counts.tolist())]
        files[os.path.join(out_dir, f"{name}.svg")] = [svgplot.render_boxplot_svg(
            groups, label, name.replace("_", " "))]
    files[os.path.join(out_dir, "diagnostics_summary.json")] = [json.dumps(
        summary, sort_keys=True, indent=1), "\n"]
    write_files(files, out_dir)
    return summary


def write_comparison(out_dir, rows):
    """Write `comparison.csv` into `out_dir`, a line of EERs per (model,
    {mode: EerResult}) of `rows`; returns its path."""
    path = os.path.join(out_dir, "comparison.csv")
    lines = ["model," + ",".join(MODALITY_MODES) + "\n"]
    for model, eers in rows:
        lines.append(",".join([model, *(f"{eers[m].eer:.6g}" for m in MODALITY_MODES)]) + "\n")
    write_files({path: lines})
    return path


def read_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"cannot read report {path}: {exc}") from exc
