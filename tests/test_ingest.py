"""Tests for the external trace ingestion subsystem (``repro.ingest``)."""

import gzip
import json
import pickle

import numpy as np
import pytest

from repro.core.presets import baseline_mcm_gpu, mcm_gpu_with_l15, optimized_mcm_gpu
from repro.experiments.common import ResultCache, run_one
from repro.ingest import (
    CTASlice,
    IngestError,
    IngestedWorkload,
    KernelRef,
    SchemaError,
    TraceDocument,
    document_digest,
    export_workload,
    load_document,
    load_workload,
    reingest,
    save_document,
    validate_document,
    verify_roundtrip,
)
from repro.serve.wire import WireError, workload_from_wire, workload_to_wire
from repro.sim.simulator import simulate
from repro.workloads.suite import all_specs, ml_specs, spec_by_name
from repro.workloads.synthetic import SyntheticWorkload


def tiny_document(name="tiny", footprint=64, meta=None):
    """A minimal valid two-kernel document for schema tests."""
    addrs = np.arange(8, dtype=np.int64).reshape(2, 4) % footprint
    entry = CTASlice(addrs=addrs, spans=((0, 2, 4),), compute_cycles=10.0)
    return TraceDocument(
        name=name,
        footprint_lines=footprint,
        trace_sets=[[entry, entry]],
        kernels=[
            KernelRef(label="k0", n_ctas=2, groups_per_cta=2, trace=0),
            KernelRef(label="k1", n_ctas=2, groups_per_cta=2, trace=0),
        ],
        meta=dict(meta or {}),
    )


def exported(name="Stream", scale=0.0625):
    """Export a shrunken built-in workload to a TraceDocument."""
    workload = SyntheticWorkload(spec_by_name(name).scaled_down(scale))
    return workload, export_workload(workload)


class TestDigest:
    def test_digest_is_stable(self):
        assert document_digest(tiny_document()) == document_digest(tiny_document())

    def test_meta_is_excluded(self):
        a = tiny_document(meta={})
        b = tiny_document(meta={"source": "somewhere else entirely"})
        assert document_digest(a) == document_digest(b)

    def test_content_changes_digest(self):
        doc = tiny_document()
        entry = doc.trace_sets[0][0]
        bumped = CTASlice(
            addrs=(entry.addrs + 1) % doc.footprint_lines,
            spans=entry.spans,
            compute_cycles=entry.compute_cycles,
        )
        edited = TraceDocument(
            name=doc.name,
            footprint_lines=doc.footprint_lines,
            trace_sets=[[bumped, doc.trace_sets[0][1]]],
            kernels=doc.kernels,
        )
        assert document_digest(edited) != document_digest(doc)


class TestValidation:
    def test_valid_document_passes(self):
        validate_document(tiny_document())

    def test_rejects_negative_addresses(self):
        doc = tiny_document()
        doc.trace_sets[0][0].addrs[0, 0] = -1
        with pytest.raises(SchemaError, match="negative"):
            validate_document(doc)

    def test_rejects_out_of_footprint_addresses(self):
        doc = tiny_document(footprint=64)
        doc.trace_sets[0][0].addrs[0, 0] = 64
        with pytest.raises(SchemaError, match="footprint"):
            validate_document(doc)

    def test_rejects_bad_spans(self):
        entry = CTASlice(
            addrs=np.arange(8, dtype=np.int64).reshape(2, 4),
            spans=((0, 1, 1),),  # does not tile the 4 columns
            compute_cycles=1.0,
        )
        doc = tiny_document()
        broken = TraceDocument(
            name=doc.name,
            footprint_lines=doc.footprint_lines,
            trace_sets=[[entry, entry]],
            kernels=doc.kernels,
        )
        with pytest.raises(SchemaError):
            validate_document(broken)

    def test_rejects_kernel_referencing_missing_set(self):
        doc = tiny_document()
        broken = TraceDocument(
            name=doc.name,
            footprint_lines=doc.footprint_lines,
            trace_sets=doc.trace_sets,
            kernels=[KernelRef(label="k", n_ctas=2, groups_per_cta=2, trace=5)],
        )
        with pytest.raises(SchemaError):
            validate_document(broken)


class TestSerializationRoundTrips:
    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz", ".npz"])
    def test_round_trip_preserves_digest(self, tmp_path, suffix):
        _, doc = exported()
        path = tmp_path / f"trace{suffix}"
        save_document(doc, path)
        assert document_digest(load_document(path)) == document_digest(doc)

    def test_jsonl_and_npz_agree(self, tmp_path):
        _, doc = exported("BFS")
        save_document(doc, tmp_path / "t.jsonl")
        save_document(doc, tmp_path / "t.npz")
        a = load_document(tmp_path / "t.jsonl")
        b = load_document(tmp_path / "t.npz")
        assert document_digest(a) == document_digest(b)

    def test_unknown_suffix_rejected(self, tmp_path):
        _, doc = exported()
        with pytest.raises(IngestError, match="suffix"):
            save_document(doc, tmp_path / "trace.csv")
        with pytest.raises(IngestError, match="suffix"):
            load_document(tmp_path / "trace.csv")


class TestSchemaRejection:
    def write_tiny(self, tmp_path, mutate):
        """Write the tiny doc as JSONL, apply ``mutate`` to its lines."""
        path = tmp_path / "t.jsonl"
        save_document(tiny_document(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mutate(lines)) + "\n")
        return path

    def test_wrong_format_marker(self, tmp_path):
        def mutate(lines):
            header = json.loads(lines[0])
            header["header"]["format"] = "not-a-trace"
            return [json.dumps(header)] + lines[1:]

        with pytest.raises(SchemaError, match="not a repro-trace file"):
            load_document(self.write_tiny(tmp_path, mutate))

    def test_unsupported_version(self, tmp_path):
        def mutate(lines):
            header = json.loads(lines[0])
            header["header"]["version"] = 99
            return [json.dumps(header)] + lines[1:]

        with pytest.raises(SchemaError, match="version"):
            load_document(self.write_tiny(tmp_path, mutate))

    def test_missing_end_line_is_torn(self, tmp_path):
        path = self.write_tiny(tmp_path, lambda lines: lines[:-1])
        with pytest.raises(SchemaError, match="torn or truncated"):
            load_document(path)

    def test_wrong_end_counts_are_torn(self, tmp_path):
        # Drop a CTA line but keep the end line: counts disagree.
        path = self.write_tiny(tmp_path, lambda lines: [lines[0]] + lines[2:])
        with pytest.raises(SchemaError, match="torn or truncated"):
            load_document(path)

    def test_invalid_json_mid_file(self, tmp_path):
        path = self.write_tiny(tmp_path, lambda lines: lines[:1] + ["{half a rec"] + lines[1:])
        with pytest.raises(SchemaError, match="truncated"):
            load_document(path)

    @pytest.mark.parametrize("first_line", ["[1, 2]", "5"], ids=["array", "number"])
    def test_non_object_first_line(self, tmp_path, first_line):
        path = self.write_tiny(tmp_path, lambda lines: [first_line] + lines[1:])
        with pytest.raises(SchemaError, match="expected a JSON object"):
            load_document(path)

    def test_non_object_cta_line(self, tmp_path):
        path = self.write_tiny(tmp_path, lambda lines: lines[:1] + ["7"] + lines[2:])
        with pytest.raises(SchemaError, match="expected a JSON object"):
            load_document(path)

    def test_non_object_end_line(self, tmp_path):
        path = self.write_tiny(tmp_path, lambda lines: lines[:-1] + ['{"end": [1]}'])
        with pytest.raises(SchemaError, match="malformed end line"):
            load_document(path)

    def test_non_utf8_bytes(self, tmp_path):
        path = self.write_tiny(tmp_path, lambda lines: lines)
        path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        with pytest.raises(IngestError, match="cannot read"):
            load_document(path)
        # A trace reference to the file maps to a wire error (HTTP 400).
        with pytest.raises(WireError, match="cannot load trace"):
            workload_from_wire({"trace": {"path": str(path)}})

    def test_negative_address_in_file(self, tmp_path):
        def mutate(lines):
            out = []
            for line in lines:
                record = json.loads(line)
                if "addrs" in record:
                    record["addrs"][0][0] = -7
                out.append(json.dumps(record))
            return out

        with pytest.raises(SchemaError, match="negative"):
            load_document(self.write_tiny(tmp_path, mutate))

    def test_truncated_gzip(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        save_document(tiny_document(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises((IngestError, SchemaError)):
            load_document(path)

    def test_npz_index_out_of_bounds(self, tmp_path):
        path = tmp_path / "t.npz"
        save_document(tiny_document(), path)
        with np.load(path) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
        arrays["index"] = arrays["index"].copy()
        arrays["index"][0, 3] = 10 ** 9  # addr_offset far past the array
        np.savez_compressed(path, **arrays)
        with pytest.raises(SchemaError, match="torn"):
            load_document(path)

    def test_npz_missing_array(self, tmp_path):
        path = tmp_path / "t.npz"
        save_document(tiny_document(), path)
        with np.load(path) as bundle:
            arrays = {key: bundle[key] for key in bundle.files if key != "spans"}
        np.savez_compressed(path, **arrays)
        with pytest.raises(SchemaError, match="spans"):
            load_document(path)


class TestIngestedWorkload:
    def test_digest_embeds_content_hash(self):
        workload = IngestedWorkload(tiny_document())
        assert workload.digest() == f"ingest:tiny|v1|sha256:{workload.content_hash}"

    def test_editing_trace_changes_digest(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_document(tiny_document(), path)
        before = load_workload(path).digest()
        # Edit one address in place (a "hand-tweaked trace file").
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["addrs"][0][0] = (record["addrs"][0][0] + 1) % 64
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        assert load_workload(path).digest() != before

    def test_source_path_recorded(self, tmp_path):
        path = tmp_path / "t.npz"
        save_document(tiny_document(), path)
        assert load_workload(path).source_path == str(path)

    def test_pickle_round_trip(self):
        workload, doc = exported()
        twin = IngestedWorkload(doc)
        revived = pickle.loads(pickle.dumps(twin))
        assert revived.digest() == twin.digest()
        assert revived._traces == {}

    def test_reingested_traces_match_source(self):
        workload, _ = exported("XSBench")
        twin = reingest(workload)
        originals = list(workload.kernels())
        revived = list(twin.kernels())
        assert len(originals) == len(revived)
        for original, copy in zip(originals, revived):
            assert original.n_ctas == copy.n_ctas
            assert original.groups_per_cta == copy.groups_per_cta
            for cta in range(min(original.n_ctas, 4)):
                a = original.trace_fn(cta)
                b = copy.trace_fn(cta)
                assert np.array_equal(a.addrs, b.addrs)
                assert list(a.spans) == list(b.spans)
                assert a.compute_cycles == b.compute_cycles


class TestBitIdentity:
    CONFIG_FACTORIES = [
        baseline_mcm_gpu,
        lambda: mcm_gpu_with_l15(16, remote_only=True),
        optimized_mcm_gpu,
    ]
    WORKLOADS = ["Stream", "BFS", "XSBench", "GEMM-Fwd", "DLRM-Embed"]

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_export_reingest_simulates_identically(self, name):
        workload = SyntheticWorkload(spec_by_name(name).scaled_down(0.0625))
        for factory in self.CONFIG_FACTORIES:
            identical, original, twin = verify_roundtrip(workload, factory())
            diff = {k for k in original if original[k] != twin.get(k)}
            assert identical, f"{name} on {factory().name}: {sorted(diff)}"

    def test_every_builtin_spec_round_trips(self):
        """Acceptance: every built-in synthetic workload survives the trip.

        Trace-level equality (addresses, spans, compute) is checked for
        all 2017 + ML specs at tiny scale; full SimResult identity is
        covered per-config by the parametrized test above and by the CI
        selftest — trace equality is what feeds the deterministic engine,
        so equal traces on a fixed config imply equal results.
        """
        for spec in all_specs() + ml_specs():
            workload = SyntheticWorkload(spec.scaled_down(0.03))
            twin = reingest(workload)
            for original, copy in zip(workload.kernels(), twin.kernels()):
                trace_a = original.trace_fn(0)
                trace_b = copy.trace_fn(0)
                assert np.array_equal(trace_a.addrs, trace_b.addrs), spec.name
                assert list(trace_a.spans) == list(trace_b.spans), spec.name


class TestCacheFlow:
    def test_cache_key_uses_content_hash(self, tmp_path):
        workload, doc = exported()
        twin = IngestedWorkload(doc)
        cache = ResultCache(tmp_path / "cache")
        config = baseline_mcm_gpu()
        first = run_one(twin, config, cache=cache)
        again = run_one(twin, config, cache=cache)
        assert again.cycles == first.cycles
        assert cache.get(twin.digest(), config.digest()) is not None

    def test_edited_trace_misses_cache(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_document(tiny_document(), path)
        cache = ResultCache(tmp_path / "cache")
        config = baseline_mcm_gpu()
        run_one(load_workload(path), config, cache=cache)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["compute_cycles"] = 999.0
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        edited = load_workload(path)
        assert cache.get(edited.digest(), config.digest()) is None


class TestWire:
    def test_trace_reference_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_document(tiny_document(), path)
        workload = load_workload(path)
        wire = workload_to_wire(workload)
        assert wire["trace"]["digest"] == workload.content_hash
        revived = workload_from_wire(wire)
        assert revived.digest() == workload.digest()

    def test_digest_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_document(tiny_document(), path)
        wire = {"trace": {"path": str(path), "digest": "0" * 16}}
        with pytest.raises(WireError, match="does not"):
            workload_from_wire(wire)

    def test_unloaded_workload_has_no_wire_form(self):
        workload = IngestedWorkload(tiny_document())
        with pytest.raises(WireError, match="source path"):
            workload_to_wire(workload)


class TestSimulateIngested:
    def test_ingested_workload_runs_and_counts_records(self, tmp_path):
        path = tmp_path / "t.npz"
        save_document(tiny_document(), path)
        result = simulate(load_workload(path), baseline_mcm_gpu())
        assert result.records == 8  # 2 kernels x 2 CTAs x 2 groups x 1 span
        assert result.workload_digest.startswith("ingest:tiny|v1|")
