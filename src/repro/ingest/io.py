"""Readers and writers for the two trace-document serializations.

JSONL (``.jsonl`` / ``.jsonl.gz``) is line-oriented for hand-authoring
and reviewable diffs: a header line, one line per CTA, one line per
kernel, and a terminating ``end`` line whose counts double as a torn-file
check.  npz (``.npz``) packs every CTA's addresses into one concatenated
int64 array with an index table, which is the right shape for bulk traces
(a 10k-CTA trace is three arrays, not 10k JSON lines).

Both formats deserialize into the same :class:`~repro.ingest.format.TraceDocument`
and are validated on read, so ``load_document`` is safe to point at
untrusted files: malformed input raises :class:`~repro.ingest.format.SchemaError`
with the offending location, never a stack trace from deep inside numpy.
"""

from __future__ import annotations

import gzip
import json
import os
from pathlib import Path
from typing import Dict, IO, List, Union

import numpy as np

from .format import (
    CTASlice,
    IngestError,
    KernelRef,
    SchemaError,
    TraceDocument,
    check_header,
    header_dict,
    spans_from_lists,
    validate_document,
)

PathLike = Union[str, "os.PathLike[str]"]


def _open_text(path: Path, mode: str) -> IO[str]:
    if path.name.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_jsonl(doc: TraceDocument, path: PathLike) -> None:
    """Serialize a validated document as line-oriented JSON.

    Layout: a ``header`` line, then every CTA as
    ``{"trace_set": t, "cta": i, "compute_cycles": c, "spans": [...],
    "addrs": [[...], ...]}`` in (trace set, CTA) order, then every kernel
    as ``{"kernel": {...}}`` in launch order, then an ``{"end": ...}``
    line restating the CTA and kernel counts.  A truncated file is caught
    by the missing/short ``end`` line on read.
    """
    validate_document(doc)
    path = Path(path)
    n_ctas = sum(len(trace_set) for trace_set in doc.trace_sets)
    with _open_text(path, "w") as handle:
        handle.write(json.dumps({"header": header_dict(doc)}) + "\n")
        for t, trace_set in enumerate(doc.trace_sets):
            for cta, entry in enumerate(trace_set):
                record = {
                    "trace_set": t,
                    "cta": cta,
                    "compute_cycles": entry.compute_cycles,
                    "spans": [list(span) for span in entry.spans],
                    "addrs": entry.addrs.tolist(),
                }
                handle.write(json.dumps(record) + "\n")
        for kernel in doc.kernels:
            handle.write(
                json.dumps(
                    {
                        "kernel": {
                            "label": kernel.label,
                            "n_ctas": kernel.n_ctas,
                            "groups_per_cta": kernel.groups_per_cta,
                            "trace": kernel.trace,
                        }
                    }
                )
                + "\n"
            )
        handle.write(json.dumps({"end": {"ctas": n_ctas, "kernels": len(doc.kernels)}}) + "\n")


def read_jsonl(path: PathLike) -> TraceDocument:
    """Parse and validate a JSONL trace document."""
    path = Path(path)
    where = path.name
    try:
        with _open_text(path, "r") as handle:
            lines = handle.read().splitlines()
    except (OSError, EOFError, UnicodeDecodeError) as error:
        raise IngestError(f"{where}: cannot read ({error})") from error
    records = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise SchemaError(
                f"{where}:{number}: invalid JSON ({error.msg}) — truncated file?"
            ) from error
        if not isinstance(record, dict):
            raise SchemaError(
                f"{where}:{number}: expected a JSON object, got {type(record).__name__}"
            )
        records.append(record)
    if not records:
        raise SchemaError(f"{where}: empty file")
    header = records[0].get("header")
    if not isinstance(header, dict):
        raise SchemaError(f"{where}: first line must be the header")
    check_header(header, where)
    sets: Dict[int, Dict[int, CTASlice]] = {}
    kernels: List[KernelRef] = []
    end = None
    for record in records[1:]:
        if "end" in record:
            end = record["end"]
        elif "kernel" in record:
            raw = record["kernel"]
            try:
                kernels.append(
                    KernelRef(
                        label=str(raw["label"]),
                        n_ctas=int(raw["n_ctas"]),
                        groups_per_cta=int(raw["groups_per_cta"]),
                        trace=int(raw["trace"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as error:
                raise SchemaError(f"{where}: malformed kernel line {raw!r}") from error
        else:
            try:
                t = int(record["trace_set"])
                cta = int(record["cta"])
                entry = CTASlice(
                    addrs=np.asarray(record["addrs"], dtype=np.int64),
                    spans=spans_from_lists(record["spans"], f"{where}: trace_set {t} cta {cta}"),
                    compute_cycles=float(record["compute_cycles"]),
                )
            except SchemaError:
                raise
            except (KeyError, TypeError, ValueError) as error:
                raise SchemaError(f"{where}: malformed CTA line ({error})") from error
            sets.setdefault(t, {})[cta] = entry
    n_ctas = sum(len(entries) for entries in sets.values())
    if end is None:
        raise SchemaError(f"{where}: missing end line — torn or truncated file")
    if not isinstance(end, dict):
        raise SchemaError(f"{where}: malformed end line {end!r}")
    if end.get("ctas") != n_ctas or end.get("kernels") != len(kernels):
        raise SchemaError(
            f"{where}: end line declares {end.get('ctas')} CTAs / "
            f"{end.get('kernels')} kernels but file contains {n_ctas} / "
            f"{len(kernels)} — torn or truncated file"
        )
    trace_sets = _assemble_sets(sets, where)
    doc = _document_from_header(header, trace_sets, kernels)
    validate_document(doc)
    return doc


def _assemble_sets(sets: Dict[int, Dict[int, CTASlice]], where: str) -> List[List[CTASlice]]:
    if not sets:
        raise SchemaError(f"{where}: no CTA lines")
    trace_sets: List[List[CTASlice]] = []
    for t in range(max(sets) + 1):
        entries = sets.get(t)
        if entries is None:
            raise SchemaError(f"{where}: trace set {t} has no CTAs")
        ordered = []
        for cta in range(max(entries) + 1):
            if cta not in entries:
                raise SchemaError(f"{where}: trace set {t} is missing CTA {cta}")
            ordered.append(entries[cta])
        trace_sets.append(ordered)
    return trace_sets


def _document_from_header(
    header: Dict[str, object],
    trace_sets: List[List[CTASlice]],
    kernels: List[KernelRef],
) -> TraceDocument:
    try:
        return TraceDocument(
            name=str(header["name"]),
            footprint_lines=int(header["footprint_lines"]),
            trace_sets=trace_sets,
            kernels=kernels,
            line_bytes=int(header["line_bytes"]),
            category=header.get("category"),
            meta=dict(header.get("meta") or {}),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SchemaError(f"malformed header: {error}") from error


def write_npz(doc: TraceDocument, path: PathLike) -> None:
    """Serialize a validated document as a compressed npz bundle.

    Five arrays: ``header`` (the JSON header, including kernels, as a
    0-d string array), ``addrs`` (all CTA address blocks concatenated
    flat), ``index`` (one ``(trace_set, n_groups, per_group, addr_offset,
    span_offset, n_spans)`` int64 row per CTA in document order),
    ``spans`` (all span triples concatenated), and ``compute`` (per-CTA
    float64 latency).
    """
    validate_document(doc)
    header = header_dict(doc)
    header["kernel_list"] = [
        {
            "label": kernel.label,
            "n_ctas": kernel.n_ctas,
            "groups_per_cta": kernel.groups_per_cta,
            "trace": kernel.trace,
        }
        for kernel in doc.kernels
    ]
    index_rows: List[List[int]] = []
    addr_parts: List[np.ndarray] = []
    span_rows: List[List[int]] = []
    compute: List[float] = []
    addr_offset = 0
    span_offset = 0
    for t, trace_set in enumerate(doc.trace_sets):
        for entry in trace_set:
            index_rows.append(
                [t, entry.n_groups, entry.per_group, addr_offset, span_offset, len(entry.spans)]
            )
            addr_parts.append(np.ascontiguousarray(entry.addrs, dtype=np.int64).ravel())
            span_rows.extend([list(span) for span in entry.spans])
            compute.append(entry.compute_cycles)
            addr_offset += entry.addrs.size
            span_offset += len(entry.spans)
    np.savez_compressed(
        Path(path),
        header=np.array(json.dumps(header)),
        addrs=np.concatenate(addr_parts),
        index=np.array(index_rows, dtype=np.int64),
        spans=np.array(span_rows, dtype=np.int64),
        compute=np.array(compute, dtype=np.float64),
    )


def read_npz(path: PathLike) -> TraceDocument:
    """Parse and validate an npz trace document."""
    path = Path(path)
    where = path.name
    try:
        with np.load(path, allow_pickle=False) as bundle:
            try:
                header = json.loads(str(bundle["header"]))
                addrs = np.asarray(bundle["addrs"], dtype=np.int64)
                index = np.asarray(bundle["index"], dtype=np.int64)
                spans = np.asarray(bundle["spans"], dtype=np.int64)
                compute = np.asarray(bundle["compute"], dtype=np.float64)
            except KeyError as error:
                raise SchemaError(
                    f"{where}: missing array {error} — not a trace bundle or torn file"
                ) from error
    except (OSError, ValueError, EOFError) as error:
        if isinstance(error, SchemaError):
            raise
        raise IngestError(f"{where}: cannot read npz ({error})") from error
    check_header(header, where)
    if index.ndim != 2 or index.shape[1] != 6 or index.shape[0] != compute.shape[0]:
        raise SchemaError(f"{where}: malformed CTA index table")
    kernels = [
        KernelRef(
            label=str(raw["label"]),
            n_ctas=int(raw["n_ctas"]),
            groups_per_cta=int(raw["groups_per_cta"]),
            trace=int(raw["trace"]),
        )
        for raw in header.get("kernel_list", [])
    ]
    sets: Dict[int, Dict[int, CTASlice]] = {}
    for row_number, (row, cycles) in enumerate(zip(index, compute)):
        t, n_groups, per_group, addr_offset, span_offset, n_spans = (int(v) for v in row)
        size = n_groups * per_group
        if n_groups <= 0 or per_group <= 0 or addr_offset + size > addrs.size:
            raise SchemaError(
                f"{where}: CTA index row {row_number} points outside the "
                "address array — torn file"
            )
        if n_spans <= 0 or span_offset + n_spans > spans.shape[0]:
            raise SchemaError(
                f"{where}: CTA index row {row_number} points outside the "
                "span array — torn file"
            )
        block = addrs[addr_offset : addr_offset + size].reshape(n_groups, per_group)
        entry = CTASlice(
            addrs=block,
            spans=tuple(
                (int(s), int(m), int(e))
                for s, m, e in spans[span_offset : span_offset + n_spans]
            ),
            compute_cycles=float(cycles),
        )
        entries = sets.setdefault(t, {})
        entries[len(entries)] = entry
    trace_sets = _assemble_sets(sets, where)
    doc = _document_from_header(header, trace_sets, kernels)
    validate_document(doc)
    return doc


def save_document(doc: TraceDocument, path: PathLike) -> Path:
    """Write ``doc`` in the format implied by the path suffix.

    ``.jsonl`` / ``.jsonl.gz`` → JSONL; ``.npz`` → npz.
    """
    path = Path(path)
    if path.name.endswith((".jsonl", ".jsonl.gz")):
        write_jsonl(doc, path)
    elif path.name.endswith(".npz"):
        write_npz(doc, path)
    else:
        raise IngestError(
            f"{path.name}: unknown trace suffix (expected .jsonl, .jsonl.gz, or .npz)"
        )
    return path


def load_document(path: PathLike) -> TraceDocument:
    """Read a trace document, dispatching on the path suffix."""
    path = Path(path)
    if path.name.endswith((".jsonl", ".jsonl.gz")):
        return read_jsonl(path)
    if path.name.endswith(".npz"):
        return read_npz(path)
    raise IngestError(
        f"{path.name}: unknown trace suffix (expected .jsonl, .jsonl.gz, or .npz)"
    )
