"""Seeded corruption fuzzing: the salvaging decoder, columnar vs reference.

A deterministic generator mutates a known-good capture — an MPF1 file,
an MPF2 file or an open-ended MPF2 stream — by truncation, bit flips,
count-field lies, magic damage, a cut through the stream's tail (its
trailer, for an open-ended stream) and stacked combinations, and every
mutant goes through :func:`salvage_capture_bytes` twice: once as
shipped (columnar payload decode) and once with the payload decoded by
the per-record reference of ``oracles.py``.  Both runs must recover the
same records, report the same :class:`CaptureDefect` list and the same
metadata, for every mutant: salvage is exactly the path where the
columnar decoder is most likely to drift, because it runs on *damaged*
byte streams.  Every mutant also gets one verdict: each strict reader
raises exactly when the salvager records a defect, and raises the first
defect's text, without what salvage did about it.

Three generated mutants are frozen in ``tests/golden/`` together with
their expected salvage results (``salvage_fuzz_expected.json``), so the
salvager's recovery behaviour is pinned release over release, not just
self-consistent.  Regenerate with::

    PYTHONPATH=src python tests/test_salvage_fuzz.py --freeze

``REPRO_FUZZ_CASES`` tunes the number of random seeds (default 60).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

import oracles
from repro.profiler.ram import RECORD_BYTES, RawRecord
from repro.profiler.upload import (
    TRAILER_BYTES,
    CaptureFormatError,
    CaptureStreamWriter,
    iter_capture_columns,
    read_capture,
    salvage_capture_bytes,
    write_capture_file,
)
from stream_helpers import columns_of

GOLDEN = Path(__file__).parent / "golden"
EXPECTED_PATH = GOLDEN / "salvage_fuzz_expected.json"
FUZZ_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "60"))

#: Byte offsets of the record-count field, per header version.
COUNT_OFFSET = {1: 4, 2: 6}

MUTATIONS = ("truncate", "bit-flip", "count-lie", "magic", "stack", "trailer-cut")

#: The substrates: MPF1, MPF2, and an open-ended MPF2 stream.
OPEN = "open-ended"
BASES = (1, 2, OPEN)


def base_capture(version: int | str = 2) -> bytes:
    """A fixed 120-record capture: the substrate every mutant starts from
    (*version* 1, 2 or :data:`OPEN`)."""
    records = [
        RawRecord(tag=500 + (i % 7) * 2 + (i % 2), time=(i * 4093) & 0xFFFFFF)
        for i in range(120)
    ]
    buffer = io.BytesIO()
    if version == OPEN:
        with CaptureStreamWriter(buffer, label="fuzz substrate") as writer:
            for start in range(0, len(records), 50):
                writer.write_records(records[start : start + 50])
        return buffer.getvalue()
    write_capture_file(
        buffer,
        columns_of(records),
        version=version,
        label="fuzz substrate" if version == 2 else "",
    )
    return buffer.getvalue()


def _is_open_ended(blob: bytes) -> bool:
    return blob.startswith(b"MPF2") and len(blob) > 15 and bool(blob[15] & 2)


def mutate(blob: bytes, kind: str, rng: random.Random) -> bytes:
    """Apply one named corruption to *blob*, deterministically from *rng*."""
    data = bytearray(blob)
    if kind == "truncate":
        # Anywhere from "lost the tail record" to "lost almost everything".
        del data[rng.randrange(1, len(data)) :]
    elif kind == "bit-flip":
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    elif kind == "count-lie":
        if _is_open_ended(blob):
            offset = len(data) - TRAILER_BYTES + 4  # the trailer's count
        else:
            offset = COUNT_OFFSET[2 if blob.startswith(b"MPF2") else 1]
        lie = rng.choice([0, 1, 9, 119, 121, 10_000])
        data[offset : offset + 4] = lie.to_bytes(4, "big")
    elif kind == "magic":
        data[rng.randrange(4)] ^= 0xFF
    elif kind == "stack":
        for sub in rng.sample(("truncate", "bit-flip", "count-lie"), 2):
            data = bytearray(mutate(bytes(data), sub, rng))
    elif kind == "trailer-cut":
        # Lose the tail: part or all of an open-ended stream's trailer,
        # or the trailer and the start of a record before it.
        del data[len(data) - rng.randint(1, TRAILER_BYTES + RECORD_BYTES) :]
    else:  # pragma: no cover - generator bug
        raise ValueError(f"unknown mutation {kind!r}")
    return bytes(data)


def salvage_bytes(blob: bytes, decode: str):
    """Salvage *blob*, decoding the payload columnar or per record."""
    if decode == "reference":
        with oracles.per_record_payload_decoder():
            return salvage_capture_bytes(blob)
    return salvage_capture_bytes(blob)


def salvage_fingerprint(blob: bytes, decode: str) -> dict:
    """Everything observable about one salvage run, JSON-serialisable."""
    result = salvage_bytes(blob, decode)
    return {
        "records": len(result.records),
        "records_sha256": hashlib.sha256(result.records.to_bytes()).hexdigest(),
        "defects": [
            {"kind": d.kind, "message": d.message, "offset": d.offset}
            for d in result.defects
        ],
        "meta": {
            "version": result.meta.version,
            "count": result.meta.count,
            "counter_width_bits": result.meta.counter_width_bits,
            "counter_rate_hz": result.meta.counter_rate_hz,
            "overflowed": result.meta.overflowed,
            "label": result.meta.label,
            "crc32": result.meta.crc32,
        },
    }


def _case_stream():
    """(label, mutant-bytes) for every seeded fuzz case."""
    for seed in range(FUZZ_CASES):
        rng = random.Random(seed)
        version = rng.choice(BASES)
        kind = rng.choice(MUTATIONS)
        mutant = mutate(base_capture(version), kind, rng)
        yield f"seed={seed} v{version} {kind}", mutant


def _family(kind: str):
    """(label, mutant-bytes) for a dense sweep of one mutation family."""
    for seed in range(FUZZ_CASES):
        rng = random.Random((seed << 3) | MUTATIONS.index(kind))
        version = rng.choice(BASES)
        yield f"{kind} seed {seed} v{version}", mutate(base_capture(version), kind, rng)


class TestSalvageEngineParity:
    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_engines_agree_per_mutation(self, kind):
        """Dense sweep of one mutation family across many seeds."""
        for label, mutant in _family(kind):
            reference = salvage_fingerprint(mutant, "reference")
            columnar = salvage_fingerprint(mutant, "columnar")
            assert columnar == reference, label

    def test_engines_agree_mixed_corpus(self):
        for label, mutant in _case_stream():
            reference = salvage_fingerprint(mutant, "reference")
            columnar = salvage_fingerprint(mutant, "columnar")
            assert columnar == reference, label

    def test_pristine_capture_salvages_clean(self):
        for version in BASES:
            blob = base_capture(version)
            for decode in ("reference", "columnar"):
                result = salvage_bytes(blob, decode)
                assert result.defects == []
                assert len(result.records) == 120


def _read_whole(blob: bytes) -> None:
    read_capture(io.BytesIO(blob))


def _read_streaming(blob: bytes) -> None:
    for _ in iter_capture_columns(io.BytesIO(blob), chunk_records=7):
        pass


class TestOneVerdict:
    """The strict readers and the salvager read through one header
    parser and one record-stream decoder, so they cannot disagree."""

    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_strict_raises_iff_salvage_records_a_defect(self, kind):
        for label, mutant in _family(kind):
            defects = salvage_capture_bytes(mutant).defects
            for read in (_read_whole, _read_streaming):
                try:
                    read(mutant)
                except CaptureFormatError as error:
                    assert defects, (label, read.__name__, str(error))
                    # The same text, then what salvage did: "; dropped".
                    first = defects[0].message
                    assert first == str(error) or first.startswith(
                        f"{error}; "
                    ), (label, read.__name__, first)
                else:
                    assert not defects, (label, read.__name__, defects)


# -- frozen corpus -----------------------------------------------------------

#: The three frozen mutants: (file stem, mutation kind, seed).
FROZEN_CASES = (
    ("salvage_fuzz_truncate", "truncate", 7),
    ("salvage_fuzz_bitflip", "bit-flip", 3),
    ("salvage_fuzz_countlie", "count-lie", 11),
)


def _frozen_mutant(kind: str, seed: int) -> bytes:
    return mutate(base_capture(2), kind, random.Random(seed))


class TestFrozenCorpus:
    def test_frozen_files_match_generator(self):
        """The files on disk are exactly what the seeded generator emits —
        nobody edited the corpus by hand."""
        for stem, kind, seed in FROZEN_CASES:
            frozen = (GOLDEN / f"{stem}.mpf.corrupt").read_bytes()
            assert frozen == _frozen_mutant(kind, seed), stem

    @pytest.mark.parametrize("stem,kind,seed", FROZEN_CASES)
    def test_salvage_matches_expected(self, stem, kind, seed):
        expected = json.loads(EXPECTED_PATH.read_text())[stem]
        mutant = (GOLDEN / f"{stem}.mpf.corrupt").read_bytes()
        for decode in ("reference", "columnar"):
            assert salvage_fingerprint(mutant, decode) == expected, decode


def freeze_golden() -> None:
    """Regenerate the frozen corpus and its expected-results file."""
    expected = {}
    for stem, kind, seed in FROZEN_CASES:
        mutant = _frozen_mutant(kind, seed)
        (GOLDEN / f"{stem}.mpf.corrupt").write_bytes(mutant)
        expected[stem] = salvage_fingerprint(mutant, "reference")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2) + "\n")
    print(f"froze {len(expected)} cases into {GOLDEN}")


if __name__ == "__main__":
    if "--freeze" in sys.argv:
        freeze_golden()
    else:
        print(__doc__)
