import dataclasses
import importlib.util
from pathlib import Path

import pytest

from tortoise import block_cipher, cli, kat, tweakable
from tortoise.aead import AeadMode, AuthenticationError
from tortoise.kat import (
    KatParseError,
    KatRecord,
    differential_check,
    generate_kats,
    parse_kat_text,
    parse_record,
    serialize_record,
    serialize_records,
    verify_kats,
)

KATS_DIR = Path(__file__).resolve().parent.parent / "kats"


def _regen_kats():
    """``scripts/regen_kats.py`` as a module, unrun."""
    spec = importlib.util.spec_from_file_location("regen_kats", KATS_DIR.parent / "scripts" / "regen_kats.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The cipher, seed and count each committed corpus was frozen from, as the script that regenerates them
# records them: regeneration must be byte-identical.
COMMITTED = _regen_kats().CORPORA


def test_serialize_parse_round_trip():
    rec = KatRecord(
        AeadMode.NONCE_RESPECTING, "aes128",
        bytes(16), bytes(8), b"", b"\x01\x02", bytes(16), bytes(16),
    )
    line = serialize_record(rec)
    assert parse_record(line) == rec
    assert "ad= " in line  # empty value serializes as nothing after '='


def test_canonical_file_round_trips_byte_identically():
    for name in COMMITTED:
        text = (KATS_DIR / name).read_text()
        records, errors = parse_kat_text(text)
        assert not errors
        assert serialize_records(records) == text


def test_parse_skips_comments_and_blanks():
    text = "# a comment\n\n" + serialize_record(generate_kats(3, 1, "toy")[0]) + "\n"
    records, errors = parse_kat_text(text)
    assert len(records) == 1 and not errors


def test_parse_errors_reported_per_line_without_aborting():
    good = serialize_record(generate_kats(4, 1, "toy")[0])
    text = "garbage line\n" + good + "\nmode=zz cipher=toy key= nonce= ad= pt= ct= tag=\n"
    records, errors = parse_kat_text(text)
    assert len(records) == 1
    assert len(errors) == 2
    assert errors[0].startswith("line 1:") and errors[1].startswith("line 3:")


def _field(name, change):
    """A mangle that applies ``change`` to the value of field ``name`` only."""
    prefix = name + "="
    return lambda line: " ".join(
        prefix + change(part[len(prefix) :]) if part.startswith(prefix) else part for part in line.split(" ")
    )


@pytest.mark.parametrize(
    "mangle",
    [
        lambda line: line.replace("cipher=toy", "cipher=des"),
        lambda line: line.replace("key=", "key=ZZ"),
        lambda line: line.replace("tag=", "tag=0"),  # odd-length hex
        lambda line: line + " extra=00",
        lambda line: line.upper(),  # upper-case field names
        _field("tag", lambda v: "AB" + v[2:]),  # non-canonical hex
        _field("key", lambda v: v + "00"),  # one byte too many for toy
        _field("nonce", lambda v: v + "00"),
        _field("tag", lambda v: v[2:]),
        _field("ct", lambda v: v + "00"),  # not a whole number of blocks
        _field("ct", lambda v: ""),
    ],
)
def test_parse_rejects_malformed_records(mangle):
    line = serialize_record(generate_kats(5, 1, "toy")[0])
    with pytest.raises(KatParseError):
        parse_record(mangle(line))


def test_generate_deterministic():
    assert generate_kats(7, 5) == generate_kats(7, 5)
    assert generate_kats(7, 5) != generate_kats(8, 5)


def test_generate_count_per_mode():
    records = generate_kats(1, 5)
    by_mode = {m: sum(r.mode is m for r in records) for m in AeadMode}
    assert by_mode[AeadMode.NONCE_RESPECTING] == 5
    assert by_mode[AeadMode.MISUSE_RESISTANT] == 5
    with pytest.raises(ValueError):
        generate_kats(1, 0)


def test_committed_corpora_verify():
    for name in COMMITTED:
        records, errors = parse_kat_text((KATS_DIR / name).read_text())
        assert not errors
        report = verify_kats(records)
        assert report.ok, "\n".join(report.lines())


def test_committed_corpora_regenerate_byte_identically():
    for name, (cipher, seed, count) in COMMITTED.items():
        regenerated = serialize_records(generate_kats(seed, count, cipher))
        assert regenerated == (KATS_DIR / name).read_text()


def test_single_altered_hex_digit_fails_exactly_once():
    text = (KATS_DIR / "aes128.kat").read_text()
    lines = text.splitlines()
    tag = lines[0].rsplit("tag=", 1)[1]
    flipped = "0" if tag[0] != "0" else "1"
    lines[0] = lines[0][: -len(tag)] + flipped + tag[1:]
    records, errors = parse_kat_text("\n".join(lines))
    assert not errors
    report = verify_kats(records)
    assert sum(not r.ok for r in report.results) == 1
    assert not report.results[0].ok


def _wrong_ciphertext(monkeypatch, rec):
    return dataclasses.replace(rec, ct=bytes([rec.ct[0] ^ 1]) + rec.ct[1:])


def _wrong_plaintext(monkeypatch, rec):
    monkeypatch.setitem(kat.OPEN, rec.mode, lambda *args: b"not the plaintext")
    return rec


def _auth_failure(monkeypatch, rec):
    def refuse(*args):
        raise AuthenticationError("authentication failed")

    monkeypatch.setitem(kat.OPEN, rec.mode, refuse)
    return rec


def _long_nonce(monkeypatch, rec):
    # Only the parser checks lengths, so a record built in code reaches the replay.
    return dataclasses.replace(rec, nonce=rec.nonce + b"\x00")


@pytest.mark.parametrize(
    "breaks,detail",
    [
        (_wrong_plaintext, "open returned different plaintext"),
        (_auth_failure, "replay raised: authentication failed"),
        (_long_nonce, "replay raised: nonce must be"),
        (_wrong_ciphertext, "seal output differs"),
    ],
)
def test_verify_reports_each_failure_of_a_replay(monkeypatch, breaks, detail):
    rec = breaks(monkeypatch, generate_kats(6, 1, "toy")[1])
    [result] = verify_kats([rec]).results
    assert not result.ok and result.detail.startswith(detail)


def test_empty_file_is_success():
    records, errors = parse_kat_text("")
    assert records == [] and errors == []
    assert verify_kats(records).ok


def test_differential_check_clean():
    report = differential_check(1000)
    assert report.ok, "\n".join(report.lines())
    assert len(report.results) == 3


def test_differential_check_catches_a_broken_batch_path(monkeypatch):
    # One mask bit flipped in the squeeze that every message, AD and tag block goes through.
    real = tweakable._squeeze

    def broken(key, tweaks):
        outs, masks = real(key, tweaks)
        return outs, bytes([masks[0] ^ 1]) + masks[1:]

    monkeypatch.setattr(tweakable, "_squeeze", broken)
    oracle = differential_check(100).results[0]
    assert oracle.name.endswith("vs composed oracle (100 trials)")
    assert not oracle.ok and oracle.detail


def test_differential_check_catches_a_toy_batch_that_departs_from_the_reference(monkeypatch):
    # The TOY batch kernel and the oracle's toy_encrypt_block are two codings of the rounds: a kernel with
    # its last two round keys swapped is a different cipher that the oracle must tell apart.
    def swapped(key):
        k0, k1, k2, k3, k4 = block_cipher._toy_round_keys(key)
        return k0, k1, k2, k4, k3

    mutant = block_cipher._toy(block_cipher._FWD_HI, block_cipher._FWD_LO, swapped)[1]  # the batch coding
    monkeypatch.setattr(kat, "TOY", dataclasses.replace(kat.TOY, encrypt=mutant))
    report = differential_check(100)
    oracle = report.results[0]
    assert oracle.name.endswith("vs composed oracle (100 trials)")
    assert not report.ok and not oracle.ok and oracle.detail


def test_differential_check_reports_an_accepted_corrupted_tag(monkeypatch, capsys):
    # An mr open that returns a plaintext where the real one raises: the round trips still pass, the
    # corrupted-tag check fails, and so does kat diff.
    real = kat.OPEN[AeadMode.MISUSE_RESISTANT]

    def accepting(key, nonce, ad, ciphertext, tag):
        try:
            return real(key, nonce, ad, ciphertext, tag)
        except AuthenticationError:
            return b"corrupt me"

    monkeypatch.setitem(kat.OPEN, AeadMode.MISUSE_RESISTANT, accepting)
    report = differential_check(100)
    assert [r.ok for r in report.results] == [True, True, False] and not report.ok
    assert report.lines()[-1] == "FAIL corrupted tag rejected"
    assert cli.main(["kat", "diff", "--trials", "100"]) == cli.EXIT_KAT
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL corrupted tag rejected"


def test_differential_check_makes_exactly_one_rejected_open_in_mr(monkeypatch):
    # perfbench/workloads.py's kat_group counts one tampered input per kat diff, and a traced run whose
    # aead.rejects differs from that count is marked incorrect: a second tamper check here needs kat_group
    # to count it first.
    rejected = []
    for mode, real in list(kat.OPEN.items()):

        def counting(key, nonce, ad, ciphertext, tag, mode=mode, real=real):
            try:
                return real(key, nonce, ad, ciphertext, tag)
            except AuthenticationError:
                rejected.append(mode)
                raise

        monkeypatch.setitem(kat.OPEN, mode, counting)
    report = differential_check(100)
    assert report.ok, "\n".join(report.lines())
    assert rejected == [AeadMode.MISUSE_RESISTANT]


def test_differential_check_deterministic():
    a = differential_check(50)
    b = differential_check(50)
    assert [r.name for r in a.results] == [r.name for r in b.results]
    assert a.ok and b.ok
    with pytest.raises(ValueError):
        differential_check(0)
