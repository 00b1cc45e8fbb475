import threading
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tortoise import block_cipher, cli
from tortoise.aead import AeadMode
from tortoise.cli import Envelope, EnvelopeError, main, pack_envelope, parse_envelope
from tortoise.kat import parse_kat_text

KATS_DIR = Path(__file__).resolve().parent.parent / "kats"

KEY_HEX = "000102030405060708090a0b0c0d0e0f"
NR_NONCE = "0011223344556677"
MR_NONCE = "00112233445566778899aabbccddee"


def _roundtrip(tmp_path, mode, nonce_hex, payload, ad_args=()):
    src = tmp_path / "plain.bin"
    env = tmp_path / "sealed.bin"
    back = tmp_path / "back.bin"
    src.write_bytes(payload)
    rc = main([
        "encrypt", "--key-hex", KEY_HEX, "--mode", mode, "--nonce-hex", nonce_hex,
        *ad_args, "--in", str(src), "--out", str(env),
    ])
    assert rc == 0
    rc = main(["decrypt", "--key-hex", KEY_HEX, *ad_args, "--in", str(env), "--out", str(back)])
    assert rc == 0
    assert back.read_bytes() == payload
    return env


@pytest.mark.parametrize("mode,nonce", [("nr", NR_NONCE), ("mr", MR_NONCE)])
def test_round_trip_both_modes(tmp_path, mode, nonce):
    _roundtrip(tmp_path, mode, nonce, b"a small file\n" * 10)


def test_round_trip_with_ad(tmp_path):
    _roundtrip(tmp_path, "nr", NR_NONCE, b"payload", ad_args=("--ad-hex", "deadbeef"))


def test_ad_file_binds_the_same_ad_as_ad_hex(tmp_path):
    ad = tmp_path / "ad.bin"
    ad.write_bytes(bytes.fromhex("deadbeef"))
    from_file = _roundtrip(tmp_path, "mr", MR_NONCE, b"payload", ad_args=("--ad-file", str(ad))).read_bytes()
    assert _roundtrip(tmp_path, "mr", MR_NONCE, b"payload", ad_args=("--ad-hex", "deadbeef")).read_bytes() == from_file


def test_envelope_deterministic_given_fixed_nonce(tmp_path):
    env1 = _roundtrip(tmp_path, "mr", MR_NONCE, b"stable bytes")
    blob1 = env1.read_bytes()
    env2 = _roundtrip(tmp_path, "mr", MR_NONCE, b"stable bytes")
    assert env2.read_bytes() == blob1


def test_nonce_random_round_trips(tmp_path):
    src, env, back = tmp_path / "p", tmp_path / "e", tmp_path / "b"
    src.write_bytes(b"entropy please")
    assert main(["encrypt", "--key-hex", KEY_HEX, "--mode", "nr", "--nonce-random",
                 "--in", str(src), "--out", str(env)]) == 0
    assert main(["decrypt", "--key-hex", KEY_HEX, "--in", str(env), "--out", str(back)]) == 0
    assert back.read_bytes() == b"entropy please"


def test_key_file_raw_and_hex(tmp_path):
    src, env, back = tmp_path / "p", tmp_path / "e", tmp_path / "b"
    src.write_bytes(b"key from file")
    raw_key = tmp_path / "key.raw"
    raw_key.write_bytes(bytes.fromhex(KEY_HEX))
    hex_key = tmp_path / "key.hex"
    hex_key.write_text(KEY_HEX + "\n")
    assert main(["encrypt", "--key-file", str(raw_key), "--mode", "nr", "--nonce-hex", NR_NONCE,
                 "--in", str(src), "--out", str(env)]) == 0
    assert main(["decrypt", "--key-file", str(hex_key), "--in", str(env), "--out", str(back)]) == 0
    assert back.read_bytes() == b"key from file"


def test_short_key_is_usage_error(tmp_path, capsys):
    src = tmp_path / "p"
    src.write_bytes(b"x")
    rc = main(["encrypt", "--key-hex", "00" * 15, "--mode", "nr", "--nonce-hex", NR_NONCE,
               "--in", str(src), "--out", str(tmp_path / "e")])
    assert rc == 1
    assert capsys.readouterr().err == "error: --key-hex must hold a 16-byte key, got 15 bytes\n"


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_wrong_length_key_file_error_names_the_flag_not_the_key(tmp_path, capsys, command):
    src, key_file = tmp_path / "p", tmp_path / "key"
    src.write_bytes(b"x")
    key_file.write_bytes(b"a1b2c3d4\n")  # valid hex, but a 4-byte key
    extra = ["--mode", "nr", "--nonce-hex", NR_NONCE] if command == "encrypt" else []
    rc = main([command, "--key-file", str(key_file), *extra, "--in", str(src), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: --key-file must hold a 16-byte key, got 4 bytes\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode,nonce_hex,want", [("mr", NR_NONCE, 15), ("nr", "00112233", 8)])
def test_wrong_nonce_length_is_usage_error(tmp_path, capsys, mode, nonce_hex, want):
    src = tmp_path / "p"
    src.write_bytes(b"x")
    rc = main(["encrypt", "--key-hex", KEY_HEX, "--mode", mode, "--nonce-hex", nonce_hex,
               "--in", str(src), "--out", str(tmp_path / "e")])
    assert rc == 1
    got = len(nonce_hex) // 2
    assert capsys.readouterr().err == f"error: --nonce-hex must hold {want} bytes for mode {mode}, got {got}\n"


def test_non_ascii_key_file_error_names_the_flag_not_the_key(tmp_path, capsys):
    src, key_file = tmp_path / "p", tmp_path / "key.bin"
    src.write_bytes(b"x")
    key = bytes(range(0x80, 0xA0))  # 32 bytes: neither 16 raw bytes nor ASCII
    key_file.write_bytes(key)
    rc = main(["encrypt", "--key-file", str(key_file), "--mode", "nr", "--nonce-hex", NR_NONCE,
               "--in", str(src), "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "--key-file" in err
    assert not any(f"{b:02x}" in err for b in key)  # as 0x.., \\x.. or bare hex


@pytest.mark.parametrize("flag", ["--key-hex", "--nonce-hex", "--ad-hex"])
def test_bad_hex_error_names_the_flag(tmp_path, capsys, flag):
    src = tmp_path / "p"
    src.write_bytes(b"x")
    args = {"--key-hex": KEY_HEX, "--nonce-hex": NR_NONCE, "--ad-hex": "aa"}
    args[flag] = "zz"
    rc = main(["encrypt", "--mode", "nr", *[x for pair in args.items() for x in pair],
               "--in", str(src), "--out", str(tmp_path / "e")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {flag} is not valid hex\n"


def test_missing_args_is_usage_error(capsys):
    assert main(["encrypt", "--key-hex", KEY_HEX]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["tortoise", "tortoise kat"])
def test_missing_subcommand_is_usage_error(capsys, command):
    # Both levels of subcommand are required: without one there is no handler to run.
    assert main(command.split()[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {command} ") and "error: the following arguments are required" in err


@pytest.mark.parametrize(
    "command", ["tortoise", "tortoise encrypt", "tortoise decrypt", "tortoise kat", "tortoise kat generate",
                "tortoise kat verify", "tortoise kat diff"],
)
def test_help_exits_0_with_usage_on_stdout(capsys, command):
    # argparse ends --help with SystemExit(0), which main must not count as a usage error.
    assert main([*command.split()[1:], "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: {command} ")


def test_flipped_ciphertext_bit_auth_fails_no_output(tmp_path):
    env = _roundtrip(tmp_path, "nr", NR_NONCE, b"do not tamper")
    blob = bytearray(env.read_bytes())
    blob[-1] ^= 0x01
    env.write_bytes(bytes(blob))
    out = tmp_path / "should_not_exist"
    rc = main(["decrypt", "--key-hex", KEY_HEX, "--in", str(env), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_wrong_ad_auth_fails(tmp_path):
    env = _roundtrip(tmp_path, "mr", MR_NONCE, b"bound to ad", ad_args=("--ad-hex", "aa"))
    out = tmp_path / "nope"
    rc = main(["decrypt", "--key-hex", KEY_HEX, "--ad-hex", "bb", "--in", str(env), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_second_call_gets_none_of_the_first_calls_options(tmp_path):
    # main() builds its parser once per process, and each call still parses only its own flags.
    env = _roundtrip(tmp_path, "nr", NR_NONCE, b"bound to ad", ad_args=("--ad-hex", "aa"))
    out = tmp_path / "nope"
    assert main(["decrypt", "--key-hex", KEY_HEX, "--in", str(env), "--out", str(out)]) == 2
    assert not out.exists()
    assert cli._parser.cache_info().misses == 1


def test_malformed_envelope_is_usage_error(tmp_path):
    bad = tmp_path / "bad"
    out = tmp_path / "out"
    bad.write_bytes(b"not an envelope at all")
    assert main(["decrypt", "--key-hex", KEY_HEX, "--in", str(bad), "--out", str(out)]) == 1
    env = _roundtrip(tmp_path, "nr", NR_NONCE, b"truncate me")
    blob = env.read_bytes()
    bad.write_bytes(blob[:-1])
    assert main(["decrypt", "--key-hex", KEY_HEX, "--in", str(bad), "--out", str(out)]) == 1
    assert not out.exists()


def test_missing_input_file_is_io_error(tmp_path):
    rc = main(["decrypt", "--key-hex", KEY_HEX, "--in", str(tmp_path / "absent"), "--out", str(tmp_path / "o")])
    assert rc == 1


# --- envelope codec -------------------------------------------------------

@given(
    st.sampled_from(list(AeadMode)),
    st.binary(min_size=16, max_size=16),
    st.integers(1, 4),
    st.randoms(),
)
def test_envelope_pack_parse_round_trip(mode, tag, blocks, rnd):
    nonce = bytes(rnd.getrandbits(8) for _ in range(8 if mode is AeadMode.NONCE_RESPECTING else 15))
    ct = bytes(rnd.getrandbits(8) for _ in range(16 * blocks))
    env = Envelope(mode, nonce, tag, ct)
    assert parse_envelope(pack_envelope(env)) == env


def test_envelope_layout_is_pinned():
    env = Envelope(AeadMode.NONCE_RESPECTING, bytes(8), bytes(16), bytes(16))
    blob = pack_envelope(env)
    assert blob[:4] == b"TORT"
    assert blob[4] == 0x01
    assert blob[5] == 0x00
    assert blob[6] == 8
    assert blob[15:31] == bytes(16)
    assert blob[31:39] == (16).to_bytes(8, "big")
    assert len(blob) == 39 + 16
    mr = pack_envelope(Envelope(AeadMode.MISUSE_RESISTANT, bytes(15), bytes(16), bytes(32)))
    assert mr[5] == 0x01 and mr[6] == 15


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b"XORT" + b[4:],                       # magic
        lambda b: b[:4] + b"\x02" + b[5:],               # version
        lambda b: b[:5] + b"\x07" + b[6:],               # mode byte
        lambda b: b[:6] + b"\x0f" + b[7:],               # nonce_len vs mode
        lambda b: b + b"\x00",                           # trailing junk
        lambda b: b[:-1],                                # truncated ciphertext
        lambda b: b[:10],                                # truncated header
        lambda b: b[:6] + b"\x0f" + b[7:15] + bytes(7) + b[15:],  # a 15-byte nonce in nr, every length right
    ],
)
def test_envelope_rejects_malformed(mutate):
    blob = pack_envelope(Envelope(AeadMode.NONCE_RESPECTING, bytes(8), bytes(16), bytes(16)))
    with pytest.raises(EnvelopeError):
        parse_envelope(mutate(blob))


def test_envelope_rejects_bad_ct_len():
    good = pack_envelope(Envelope(AeadMode.NONCE_RESPECTING, bytes(8), bytes(16), bytes(16)))
    zero_len = good[:31] + (0).to_bytes(8, "big")
    with pytest.raises(EnvelopeError):
        parse_envelope(zero_len)
    ragged = good[:31] + (24).to_bytes(8, "big") + bytes(24)
    with pytest.raises(EnvelopeError):
        parse_envelope(ragged)
    with pytest.raises(EnvelopeError):
        pack_envelope(Envelope(AeadMode.NONCE_RESPECTING, bytes(8), bytes(16), b""))


@pytest.mark.parametrize(
    "env",
    [
        Envelope(AeadMode.NONCE_RESPECTING, bytes(15), bytes(16), bytes(16)),  # the mr nonce width
        Envelope(AeadMode.MISUSE_RESISTANT, bytes(8), bytes(16), bytes(16)),  # the nr nonce width
        Envelope(AeadMode.NONCE_RESPECTING, bytes(8), bytes(15), bytes(16)),
        Envelope(AeadMode.MISUSE_RESISTANT, bytes(15), bytes(17), bytes(16)),
    ],
)
def test_pack_envelope_rejects_bad_nonce_or_tag_length(env):
    with pytest.raises(EnvelopeError):
        pack_envelope(env)


# --- kat subcommands --------------------------------------------------------

def test_kat_generate_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.kat", tmp_path / "b.kat"
    assert main(["kat", "generate", str(f1), "--seed", "7", "--count", "10"]) == 0
    assert main(["kat", "generate", str(f2), "--seed", "7", "--count", "10"]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_bytes() == (KATS_DIR / "aes128.kat").read_bytes()
    capsys.readouterr()


def test_kat_verify_committed_corpora(capsys):
    for name in ("aes128.kat", "toy.kat"):
        assert main(["kat", "verify", str(KATS_DIR / name)]) == 0
    out = capsys.readouterr().out
    assert "20/20 records passed" in out


@pytest.mark.parametrize("name", ["aes128.kat", "toy.kat"])
def test_kat_verify_reads_crlf_line_endings(tmp_path, capsys, name):
    # A corpus saved with Windows line endings.  Reading a file as text already turns CRLF into LF, so the
    # parser is also handed the CRLF text as it is.
    lf = (KATS_DIR / name).read_bytes()
    crlf = lf.replace(b"\n", b"\r\n")
    (tmp_path / name).write_bytes(crlf)
    assert main(["kat", "verify", str(tmp_path / name)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "20/20 records passed"
    records, errors = parse_kat_text(crlf.decode("ascii"))
    assert errors == [] and len(records) == 20 and records == parse_kat_text(lf.decode("ascii"))[0]


def test_kat_verify_detects_tampering(tmp_path, capsys):
    text = (KATS_DIR / "toy.kat").read_text()
    tampered = tmp_path / "tampered.kat"
    first, rest = text.split("\n", 1)
    tag = first.rsplit("tag=", 1)[1]
    flipped = "0" if tag[0] != "0" else "1"
    tampered.write_text(first[: -len(tag)] + flipped + tag[1:] + "\n" + rest)
    assert main(["kat", "verify", str(tampered)]) == 3
    capsys.readouterr()


def test_kat_verify_reports_parse_errors(tmp_path, capsys):
    f = tmp_path / "broken.kat"
    f.write_text("this is not a record\n")
    assert main(["kat", "verify", str(f)]) == 3
    assert "parse error" in capsys.readouterr().out


def test_kat_verify_reports_an_undecodable_line_as_a_parse_error(tmp_path, capsys):
    first, second = (KATS_DIR / "toy.kat").read_bytes().splitlines(keepends=True)[:2]
    f = tmp_path / "undecodable.kat"
    f.write_bytes(first + b"mode=nr \xff\n" + second)
    assert main(["kat", "verify", str(f)]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "parse error: line 2: expected 8 fields, got 2",
        "PASS record 1 (nr/toy)",
        "PASS record 2 (nr/toy)",
        "2/2 records passed",
    ]


def test_kat_diff_clean(capsys):
    assert main(["kat", "diff", "--trials", "200"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


# --- atomic output ------------------------------------------------------------


class _FailingFile:
    """Writes half of what it is given, then fails as a full disk would."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("command", ["encrypt", "decrypt", "kat generate"])
@pytest.mark.parametrize("existing", [None, b"previous contents"])
def test_failed_write_leaves_no_partial_output(tmp_path, monkeypatch, capsys, command, existing):
    import tortoise.cli as cli

    src, env = tmp_path / "plain.bin", tmp_path / "sealed.bin"
    src.write_bytes(b"x" * 1000)
    assert main(["encrypt", "--key-hex", KEY_HEX, "--mode", "nr", "--nonce-hex", NR_NONCE,
                 "--in", str(src), "--out", str(env)]) == 0
    out = tmp_path / "out.bin"
    if existing is not None:
        out.write_bytes(existing)
    before = sorted(p.name for p in tmp_path.iterdir())
    real_fdopen = cli.os.fdopen
    monkeypatch.setattr(cli.os, "fdopen", lambda *a, **k: _FailingFile(real_fdopen(*a, **k)))
    to_out = ["--out", str(out)]
    argv = {
        "encrypt": ["encrypt", "--key-hex", KEY_HEX, "--mode", "mr", "--nonce-hex", MR_NONCE, "--in", str(src), *to_out],
        "decrypt": ["decrypt", "--key-hex", KEY_HEX, "--in", str(env), *to_out],
        "kat generate": ["kat", "generate", str(out), "--seed", "7", "--count", "1"],
    }[command]
    assert main(argv) == 1
    assert "No space left on device" in capsys.readouterr().err
    # The output is absent or untouched, and no temp file is left beside it.
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if existing is not None:
        assert out.read_bytes() == existing


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_backend_failure_is_reported_with_no_output(tmp_path, monkeypatch, capsys, command):
    # On a thread that has no EVP context yet: aes128 without libcrypto raises RuntimeError, and an
    # EVP_CIPHER_CTX_new that returns NULL, as when OpenSSL cannot allocate, raises MemoryError.  Python's
    # own MemoryError carries no message, so the line names its type.
    src, env, out = tmp_path / "plain.bin", tmp_path / "sealed.bin", tmp_path / "out.bin"
    src.write_bytes(b"x" * 1000)
    assert main(["encrypt", "--key-hex", KEY_HEX, "--mode", "nr", "--nonce-hex", NR_NONCE,
                 "--in", str(src), "--out", str(env)]) == 0
    argv = {
        "encrypt": ["encrypt", "--key-hex", KEY_HEX, "--mode", "mr", "--nonce-random", "--in", str(src)],
        "decrypt": ["decrypt", "--key-hex", KEY_HEX, "--in", str(env)],
    }[command]

    def out_of_memory():
        raise MemoryError

    failures = [
        (None, block_cipher._NO_LIBCRYPTO),
        (SimpleNamespace(EVP_CIPHER_CTX_new=lambda: None), "EVP_CIPHER_CTX_new failed"),
        (SimpleNamespace(EVP_CIPHER_CTX_new=out_of_memory), "MemoryError"),
    ]
    for lib, message in failures:
        monkeypatch.setattr(block_cipher, "_LIBCRYPTO", lib)
        monkeypatch.setattr(block_cipher, "_THREAD", threading.local())
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.bin", "sealed.bin"]


def test_longest_output_name_is_written_atomically(tmp_path):
    # The temp file beside the output must fit whatever name the output has.
    src, env, back = tmp_path / "plain.bin", tmp_path / ("e" * 255), tmp_path / ("b" * 255)
    src.write_bytes(b"long names")
    assert main(["encrypt", "--key-hex", KEY_HEX, "--mode", "nr", "--nonce-hex", NR_NONCE,
                 "--in", str(src), "--out", str(env)]) == 0
    assert main(["decrypt", "--key-hex", KEY_HEX, "--in", str(env), "--out", str(back)]) == 0
    assert back.read_bytes() == b"long names"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([src.name, env.name, back.name])


def test_output_replaces_existing_file(tmp_path):
    out = tmp_path / "sealed.bin"
    out.write_bytes(b"stale" * 100)
    src = tmp_path / "plain.bin"
    src.write_bytes(b"fresh")
    assert main(["encrypt", "--key-hex", KEY_HEX, "--mode", "mr", "--nonce-hex", MR_NONCE,
                 "--in", str(src), "--out", str(out)]) == 0
    assert parse_envelope(out.read_bytes()).mode is AeadMode.MISUSE_RESISTANT
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.bin", "sealed.bin"]


def test_output_to_a_pipe_is_written_in_place(tmp_path):
    import os
    import stat
    import threading

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    src = tmp_path / "plain.bin"
    src.write_bytes(b"to a pipe")
    assert main(["encrypt", "--key-hex", KEY_HEX, "--mode", "nr", "--nonce-hex", NR_NONCE,
                 "--in", str(src), "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert got and parse_envelope(got[0]).mode is AeadMode.NONCE_RESPECTING
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_output_through_a_symlink_keeps_the_link(tmp_path):
    import os

    real = tmp_path / "real.bin"
    real.write_bytes(b"stale")
    link = tmp_path / "link.bin"
    os.symlink(real, link)
    src = tmp_path / "plain.bin"
    src.write_bytes(b"through a link")
    assert main(["encrypt", "--key-hex", KEY_HEX, "--mode", "nr", "--nonce-hex", NR_NONCE,
                 "--in", str(src), "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert parse_envelope(real.read_bytes()).mode is AeadMode.NONCE_RESPECTING
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.bin", "plain.bin", "real.bin"]


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_output_to_stdout_link_redirected_to_a_file(tmp_path):
    # Like ``--out /dev/stdout > file``, through a link of our own that points
    # where /dev/stdout does, so a regression cannot replace the system's link.
    import os
    import subprocess
    import sys

    src, env = tmp_path / "plain.bin", tmp_path / "sealed.bin"
    src.write_bytes(b"to stdout\n" * 50)
    assert main(["encrypt", "--key-hex", KEY_HEX, "--mode", "mr", "--nonce-hex", MR_NONCE,
                 "--in", str(src), "--out", str(env)]) == 0
    stdout_link = tmp_path / "stdout"
    os.symlink("/proc/self/fd/1", stdout_link)
    redirected = tmp_path / "redirected.bin"
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    with redirected.open("wb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "tortoise.cli", "decrypt", "--key-hex", KEY_HEX,
             "--in", str(env), "--out", str(stdout_link)],
            stdout=stdout, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src_dir}, timeout=60,
        )
    assert proc.returncode == 0, proc.stderr
    assert redirected.read_bytes() == src.read_bytes()
    assert stdout_link.is_symlink()
