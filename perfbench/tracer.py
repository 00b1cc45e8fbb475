"""Per-layer tracing by wrapping tortoise's public functions in place.

Nothing in ``src/`` changes.  :meth:`Tracer.install` swaps module
attributes (and values of module-level dicts, such as the cipher registry)
for wrappers that record one span per call: layer, parent span, start and
end.  Spans stay in memory while the workload runs; :meth:`Tracer.layers`
reduces them to per-layer counts and self times, and :meth:`Tracer.dump`
writes them out afterwards.

Which wrapper goes where fixes what each layer means:

* ``xof``: ``shake128`` as the tweakable layer calls it;
* ``block_cipher.<name>``: a ``CipherSpec`` whose callables are wrapped,
  swapped in wherever the registry, the CLI and the KAT tooling find it;
* ``tweakable``: ``tweak_encrypt``/``tweak_decrypt`` as ``aead`` and
  ``kat`` call them; its self time excludes ``xof`` and ``block_cipher``;
* ``tweakable.encode`` and ``tweakable.xor``: the ``encode_*`` functions
  and ``xor_bytes`` as ``aead`` calls them;
* ``aead``: ``seal_*``/``open_*``, called by the benchmark, the CLI or the
  KAT tooling; it also counts padded blocks and rejected inputs;
* ``cli``: ``cli.main``; ``cli.envelope``: ``pack_envelope``/``parse_envelope``;
* ``kat``: the KAT entry points the CLI calls.
"""

from __future__ import annotations

import dataclasses
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType, SimpleNamespace
from typing import Any, Callable, Iterator

LAYERS = (
    "aead",
    "tweakable",
    "tweakable.encode",
    "tweakable.xor",
    "xof",
    "block_cipher.aes128",
    "block_cipher.toy",
    "cli",
    "cli.envelope",
    "kat",
)
_ID = {name: i for i, name in enumerate(LAYERS)}


class Tracer:
    def __init__(self) -> None:
        self.layer = array("B")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.blocks = 0
        self.rejects = 0

    def span(self, layer: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that each call records one span of ``layer``."""
        lid = _ID[layer]
        layers, parents, starts, ends, stack = self.layer, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(layers)
            layers.append(lid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def _aead(self, fn: Callable, sealing: bool, auth_error: type) -> Callable:
        traced = self.span("aead", fn)

        def counted(key: Any, nonce: bytes, ad: bytes, data: bytes, *rest: Any) -> Any:
            # PKCS#7 always pads, so a plaintext gains one block; a ciphertext is already padded.
            self.blocks += len(data) // key.cipher.block_len + int(sealing)
            try:
                return traced(key, nonce, ad, data, *rest)
            except auth_error:
                self.rejects += 1
                raise

        return counted

    def _spec(self, spec: Any) -> Any:
        layer = f"block_cipher.{spec.name}"
        wrapped = {
            f.name: self.span(layer, getattr(spec, f.name))
            for f in dataclasses.fields(spec)
            if callable(getattr(spec, f.name))
        }
        return dataclasses.replace(spec, **wrapped)

    @contextmanager
    def install(self, lib: SimpleNamespace) -> Iterator[SimpleNamespace]:
        """Patch the modules in ``lib``; yield a traced copy of it; then undo."""
        m = lib.modules
        specs = {spec: self._spec(spec) for spec in (lib.spec, m.block_cipher.get_cipher("toy"))}
        aead_fns = {}
        for name in ("seal_nr", "seal_mr", "open_nr", "open_mr"):
            aead_fns[getattr(m.aead, name)] = self._aead(
                getattr(m.aead, name), name.startswith("seal"), m.aead.AuthenticationError
            )

        def spans(layer: str, module: ModuleType, *names: str) -> dict:
            fns = (getattr(module, n, None) for n in names)
            return {fn: self.span(layer, fn) for fn in fns if fn is not None}

        encoders = [n for n in vars(m.aead) if n.startswith("encode_")]
        plan = [
            (m.tweakable, spans("xof", m.tweakable, "shake128")),
            (m.aead, {
                **spans("tweakable", m.aead, "tweak_encrypt", "tweak_decrypt"),
                **spans("tweakable.encode", m.aead, *encoders),
                **spans("tweakable.xor", m.aead, "xor_bytes"),
            }),
            (m.block_cipher, specs),
            (m.cli, {
                **aead_fns,
                **specs,
                **spans("cli.envelope", m.cli, "pack_envelope", "parse_envelope"),
                **spans("kat", m.cli, "parse_kat_text", "verify_kats", "differential_check"),
            }),
            (m.kat, {
                **aead_fns,
                **specs,
                **spans("tweakable", m.kat, "tweak_encrypt"),
                **spans("block_cipher.toy", m.kat, "toy_encrypt_block"),
            }),
        ]
        undo = []
        for module, table in plan:
            undo += _replace(module, table)
        try:
            yield SimpleNamespace(
                modules=m,
                spec=specs[lib.spec],
                seal={mode: aead_fns[fn] for mode, fn in lib.seal.items()},
                open={mode: aead_fns[fn] for mode, fn in lib.open.items()},
                main=self.span("cli", lib.main),
                auth_error=lib.auth_error,
            )
        finally:
            for container, key, original in reversed(undo):
                if isinstance(container, ModuleType):
                    setattr(container, key, original)
                else:
                    container[key] = original

    def layers(self, wall_s: float) -> dict[str, float]:
        """Reduce the spans to the per-layer metrics, shares relative to ``wall_s``."""
        n = len(self.layer)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(LAYERS)
        total = [0.0] * len(LAYERS)
        own = [0.0] * len(LAYERS)
        under_aead = 0
        aead = _ID["aead"]
        for i in range(n):
            lid = self.layer[i]
            dur = self.end[i] - self.start[i]
            calls[lid] += 1
            total[lid] += dur
            own[lid] += dur - child[i]
            if lid == _ID["tweakable"] and self.parent[i] >= 0 and self.layer[self.parent[i]] == aead:
                under_aead += 1

        def per_call(layer: str, times: list[float]) -> float:
            c = calls[_ID[layer]]
            return times[_ID[layer]] / c * 1e6 if c else 0.0

        def share(layer: str) -> float:
            return own[_ID[layer]] / wall_s

        out: dict[str, float] = {}
        for layer in ("block_cipher.aes128", "block_cipher.toy", "xof"):
            out[f"{layer}.calls"] = calls[_ID[layer]]
            out[f"{layer}.us_per_call"] = per_call(layer, total)
            out[f"{layer}.share"] = share(layer)
        out["tweakable.self_us_per_call"] = per_call("tweakable", own)
        out["tweakable.share"] = share("tweakable")
        for layer in ("tweakable.encode", "tweakable.xor"):
            out[f"{layer}.us_per_call"] = per_call(layer, total)
            out[f"{layer}.share"] = share(layer)
        out["tweakable.calls_per_block"] = under_aead / self.blocks if self.blocks else 0.0
        out["aead.calls"] = calls[aead]
        out["aead.self_share"] = share("aead")
        out["aead.rejects"] = self.rejects
        out["cli.self_share"] = share("cli")
        out["cli.envelope.us_per_call"] = per_call("cli.envelope", total)
        out["kat.self_share"] = share("kat")
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the four arrays raw."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = (("layer", self.layer), ("parent", self.parent), ("start_s", self.start), ("end_s", self.end))
        header = {"layers": LAYERS, "spans": len(self.layer), "columns": [[n, a.typecode] for n, a in columns]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(f)


def _replace(module: ModuleType, table: dict) -> list[tuple]:
    """Swap each global of ``module``, or value of a dict global, that is a key of ``table``.

    Matching is by identity, so a module's own reference and a registry
    dict holding the same object are both found.  Returns the undo list.
    """
    undo = []
    by_id = {id(k): v for k, v in table.items()}
    for key, value in list(vars(module).items()):
        if id(value) in by_id:
            undo.append((module, key, value))
            setattr(module, key, by_id[id(value)])
        elif isinstance(value, dict) and key != "__builtins__":
            for k, v in list(value.items()):
                if id(v) in by_id:
                    undo.append((value, k, v))
                    value[k] = by_id[id(v)]
    return undo
