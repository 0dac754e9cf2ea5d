"""Atomic report writes: repro.atomicio and the CLI sites that use it."""

from __future__ import annotations

import errno
import json
import os
import pathlib

import pytest

from repro.__main__ import main
from repro.atomicio import open_atomic, write_text_atomic

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


class TestWriteTextAtomic:
    def test_appends_exactly_one_newline(self, tmp_path):
        target = tmp_path / "out.json"
        write_text_atomic(target, "{}")
        assert target.read_text() == "{}\n"
        write_text_atomic(target, "{}\n")
        assert target.read_text() == "{}\n"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old " * 1000)
        write_text_atomic(target, "new")
        assert target.read_text() == "new\n"

    def test_leaves_no_temp_files(self, tmp_path):
        write_text_atomic(tmp_path / "out.txt", "payload")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_preserves_old_content_and_cleans_up(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "out.txt"
        write_text_atomic(target, "original")

        class Boom(Exception):
            pass

        def exploding_replace(src, dst):
            raise Boom()

        # Fail at the final rename: the destination must keep its old
        # content and the temp file must not leak.
        import repro.atomicio as atomicio

        monkeypatch.setattr(atomicio.os, "replace", exploding_replace)
        with pytest.raises(Boom):
            write_text_atomic(target, "replacement\n")
        assert target.read_text() == "original\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_returns_target_path(self, tmp_path):
        result = write_text_atomic(tmp_path / "out.txt", "x")
        assert result == tmp_path / "out.txt"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_file_modes_match_a_plain_write(self, tmp_path, umask):
        """A new file gets 0o666 less the umask and a replaced file keeps
        its mode, as ``open(path, "w")`` would give them."""
        new, existing = tmp_path / "new.txt", tmp_path / "existing.txt"
        existing.write_text("old")
        existing.chmod(0o640)
        old_umask = os.umask(umask)
        try:
            write_text_atomic(new, "x")
            write_text_atomic(existing, "y")
        finally:
            os.umask(old_umask)
        assert new.stat().st_mode & 0o777 == 0o666 & ~umask
        assert existing.stat().st_mode & 0o777 == 0o640
        assert existing.read_text() == "y\n"


class TestOpenAtomic:
    def test_content_appears_only_when_the_block_ends(self, tmp_path):
        target = tmp_path / "out.json"
        with open_atomic(target) as handle:
            handle.write("[1")
            assert not target.exists()
            handle.write("]\n")
        assert target.read_text() == "[1]\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_error_in_the_block_leaves_the_old_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old\n")
        with pytest.raises(ValueError):
            with open_atomic(target) as handle:
                handle.write("partial")
                raise ValueError("reader failed")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestErrorsNameTheDestination:
    """A write that cannot happen is reported by the path the caller gave,
    never by the temp file beside it, and leaves nothing behind."""

    def test_missing_directory(self, tmp_path):
        target = tmp_path / "missing" / "out.json"
        with pytest.raises(FileNotFoundError) as excinfo:
            with open_atomic(target):
                pytest.fail("the block ran without a file to write")
        assert excinfo.value.filename == str(target)
        assert str(excinfo.value) == (
            f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{target}'"
        )
        assert list(tmp_path.iterdir()) == []

    def test_directory_is_refused_before_the_block_runs(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as excinfo:
            with open_atomic(target):
                pytest.fail("the block ran for a directory target")
        assert excinfo.value.filename == str(target)
        assert excinfo.value.filename2 is None
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list(target.iterdir()) == []

    def test_failed_rename_names_the_destination(self, tmp_path, monkeypatch):
        import repro.atomicio as atomicio

        target = tmp_path / "out.txt"
        target.write_text("original\n")

        def denied(src, dst):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, dst)

        monkeypatch.setattr(atomicio.os, "replace", denied)
        with pytest.raises(PermissionError) as excinfo:
            write_text_atomic(target, "replacement")
        assert (excinfo.value.filename, excinfo.value.filename2) == (str(target), None)
        assert target.read_text() == "original\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_an_oserror_of_the_block_passes_through(self, tmp_path):
        """Only the file's own creation and rename are renamed: an error
        the caller's block raises (say, reading its input) is its own."""
        with pytest.raises(FileNotFoundError) as excinfo:
            with open_atomic(tmp_path / "out.json"):
                open(tmp_path / "no-such-input.mpf", "rb")
        assert excinfo.value.filename == str(tmp_path / "no-such-input.mpf")
        assert list(tmp_path.iterdir()) == []


def _one_error_line(capsys, path) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("repro: error: ") and f"'{path}'" in err, err
    assert ".tmp" not in err
    return err


class TestCliWriteSites:
    def test_trace_export_ends_with_newline(self, tmp_path):
        out = tmp_path / "fig3.trace.json"
        code = main(
            [
                "trace", "export", str(GOLDEN_DIR / "figure3_network_v2.mpf"),
                "--names", str(GOLDEN_DIR / "case_study.tags"),
                "-o", str(out),
            ],
            out=lambda _line: None,
        )
        assert code == 0
        text = out.read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")
        events = json.loads(text)
        assert len(events) > 1 and events[-1]["name"] == "trace_end"
        assert [p.name for p in tmp_path.iterdir()] == [out.name]

    @pytest.mark.parametrize(
        "corrupt",
        ["salvage_fuzz_bitflip.mpf.corrupt", "salvage_fuzz_countlie.mpf.corrupt"],
    )
    def test_trace_export_of_a_corrupt_capture_leaves_nothing(
        self, tmp_path, capsys, corrupt
    ):
        """The strict reader rejects these files only at their last chunk
        (CRC or record count), after the writer has streamed events: the
        temp file goes, and no output appears."""
        out = tmp_path / "corrupt.trace.json"
        code = main(
            [
                "trace", "export", str(GOLDEN_DIR / corrupt),
                "--names", str(GOLDEN_DIR / "case_study.tags"),
                "-o", str(out),
            ],
            out=lambda _line: None,
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("repro: error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_trace_export_to_an_unwritable_output(self, tmp_path, capsys, where):
        """Refused before the capture is folded when the output is a
        directory; named as given either way."""
        out = tmp_path / "missing" / "x.json"
        if where == "directory":
            out = tmp_path / "dir"
            out.mkdir()
        code = main(
            [
                "trace", "export", str(GOLDEN_DIR / "figure3_network_v2.mpf"),
                "--names", str(GOLDEN_DIR / "case_study.tags"),
                "-o", str(out),
            ],
            out=lambda _line: None,
        )
        assert code == 2
        _one_error_line(capsys, out)
        assert sorted(p.name for p in tmp_path.rglob("*")) == (
            ["dir"] if where == "directory" else []
        )

    def test_fleet_manifest_in_a_missing_directory(self, tmp_path, capsys):
        """Refused before the corpus is ingested: no fleet summary."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "net.mpf").write_bytes(
            (GOLDEN_DIR / "figure3_network_v2.mpf").read_bytes()
        )
        manifest = tmp_path / "missing" / "m.json"
        printed: list[str] = []
        code = main(
            [
                "fleet", "ingest", str(corpus),
                "--names", str(GOLDEN_DIR / "case_study.tags"),
                "--manifest", str(manifest),
            ],
            out=printed.append,
        )
        assert code == 2
        assert printed == []
        _one_error_line(capsys, manifest)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["corpus", "net.mpf"]
