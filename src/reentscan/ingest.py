"""Bytecode acquisition: hex files on disk and eth_getCode over JSON-RPC."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from .evm_core import Bytecode

RPC_URL_ENV = "REENTSCAN_RPC_URL"
DEFAULT_RETRIES = 2
DEFAULT_DEADLINE = 10.0


@dataclass(frozen=True)
class Target:
    """One contract to analyze and where its code came from."""

    label: str
    code: Bytecode
    source: str  # file path or rpc address


class IngestError(Exception):
    pass


class NonHexCharacter(IngestError):
    def __init__(self, source: str, position: int, char: str):
        self.position = position
        super().__init__(
            f"{source}: non-hex character {char!r} at offset {position}")


class EmptyCode(IngestError):
    pass


class RpcUnreachable(IngestError):
    pass


class RpcErrorResponse(IngestError):
    pass


def _decode_hex(text: str, source: str) -> bytes:
    stripped = "".join(text.split())
    if stripped.startswith(("0x", "0X")):
        stripped = stripped[2:]
    for i, ch in enumerate(stripped):
        if ch not in "0123456789abcdefABCDEF":
            raise NonHexCharacter(source, i, ch)
    if len(stripped) % 2:
        raise NonHexCharacter(source, len(stripped) - 1, stripped[-1])
    return bytes.fromhex(stripped)


def load_hex(path: str | Path) -> Bytecode:
    """Read runtime bytecode from a hex dump; whitespace and 0x are tolerated."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    return Bytecode(_decode_hex(text, str(path)))


def fetch_code(address: str, node_url: str | None = None, *,
               retries: int = DEFAULT_RETRIES,
               deadline: float = DEFAULT_DEADLINE) -> Bytecode:
    """Fetch deployed runtime code with eth_getCode at the latest block."""
    # imported here, so that analyzing code from files never pays for it
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.parse import urlsplit
    from urllib.request import Request, urlopen

    node_url = node_url or os.environ.get(RPC_URL_ENV)
    if not node_url:
        raise IngestError(f"no RPC url given and {RPC_URL_ENV} is unset")
    payload = json.dumps({
        "jsonrpc": "2.0",
        "id": 1,
        "method": "eth_getCode",
        "params": [address, "latest"],
    }).encode()
    if urlsplit(node_url).scheme not in ("http", "https"):
        raise IngestError(f"RPC url is not http(s): {node_url!r}")
    request = Request(node_url, data=payload,
                      headers={"Content-Type": "application/json"})
    stop_at = time.monotonic() + deadline
    last_error: Exception | None = None
    for _ in range(retries + 1):
        remaining = stop_at - time.monotonic()
        if remaining <= 0:
            break
        try:
            try:
                with urlopen(request, timeout=remaining) as response:
                    raw = response.read()
            except HTTPError as exc:
                # a non-2xx reply may still carry the JSON-RPC error object
                with exc:
                    raw = exc.read()
        except (OSError, HTTPException) as exc:
            last_error = exc
            continue
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise RpcErrorResponse(
                f"malformed JSON from {node_url}: {raw[:200]!r}") from exc
        if not isinstance(body, dict):
            raise RpcErrorResponse(f"unexpected reply: {body!r:.200}")
        if "error" in body:
            raise RpcErrorResponse(f"rpc error: {body['error']}")
        result = body.get("result")
        if not isinstance(result, str):
            raise RpcErrorResponse(f"unexpected result: {result!r}")
        data = _decode_hex(result, address)
        if not data:
            raise EmptyCode(f"{address} has no code (EOA or empty contract)")
        return Bytecode(data)
    raise RpcUnreachable(f"cannot reach {node_url}: {last_error}")
