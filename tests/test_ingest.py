"""Hex-file loading and the eth_getCode client against a local mock server."""

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from reentscan.ingest import (
    EmptyCode,
    IngestError,
    NonHexCharacter,
    RpcErrorResponse,
    RpcUnreachable,
    fetch_code,
    load_hex,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# -- hex files ----------------------------------------------------------------

def test_load_hex_accepts_prefix_and_whitespace(tmp_path):
    plain = tmp_path / "a.hex"
    plain.write_text("0x6001")
    assert load_hex(plain).data == b"\x60\x01"
    spaced = tmp_path / "b.hex"
    spaced.write_text("60 01\n")
    assert load_hex(spaced).data == b"\x60\x01"


def test_load_hex_reports_bad_character_offset(tmp_path):
    path = tmp_path / "bad.hex"
    path.write_text("60zz")
    with pytest.raises(NonHexCharacter) as exc:
        load_hex(path)
    assert exc.value.position == 2


def test_load_hex_rejects_odd_length(tmp_path):
    path = tmp_path / "odd.hex"
    path.write_text("600")
    with pytest.raises(NonHexCharacter):
        load_hex(path)


def test_load_hex_missing_file():
    with pytest.raises(IngestError):
        load_hex("/nonexistent/code.hex")


# -- rpc client ---------------------------------------------------------------

class _MockRpc:
    """Tiny JSON-RPC endpoint serving canned eth_getCode responses."""

    def __init__(self, body: bytes, status: int = 200,
                 content_length: int | None = None):
        self.requests_seen = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                outer.requests_seen += 1
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                if content_length is not None:
                    self.send_header("Content-Length", str(content_length))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}"
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()


def _rpc(result=None, error=None, raw=None):
    if raw is None:
        body = {"jsonrpc": "2.0", "id": 1}
        if error is not None:
            body["error"] = error
        else:
            body["result"] = result
        raw = json.dumps(body).encode()
    return _MockRpc(raw)


def test_fetch_code_roundtrip():
    mock = _rpc(result="0x6001")
    try:
        code = fetch_code("0x" + "ab" * 20, mock.url)
    finally:
        mock.close()
    assert code.data == b"\x60\x01"
    assert mock.requests_seen == 1


def test_fetch_code_empty_account():
    mock = _rpc(result="0x")
    try:
        with pytest.raises(EmptyCode):
            fetch_code("0x" + "00" * 20, mock.url)
    finally:
        mock.close()


def test_fetch_code_rpc_error_object():
    mock = _rpc(error={"code": -32000, "message": "nope"})
    try:
        with pytest.raises(RpcErrorResponse):
            fetch_code("0x" + "00" * 20, mock.url)
    finally:
        mock.close()


def test_fetch_code_malformed_json():
    mock = _rpc(raw=b"<html>busy</html>")
    try:
        with pytest.raises(RpcErrorResponse):
            fetch_code("0x" + "00" * 20, mock.url)
    finally:
        mock.close()


def test_fetch_code_json_that_is_no_object():
    mock = _rpc(raw=b"[1, 2]")
    try:
        with pytest.raises(RpcErrorResponse, match="unexpected reply"):
            fetch_code("0x" + "00" * 20, mock.url)
    finally:
        mock.close()


def test_fetch_code_unreachable_is_bounded():
    # closed port: every attempt fails fast, retry count stays bounded
    with pytest.raises(RpcUnreachable):
        fetch_code("0x" + "00" * 20, "http://127.0.0.1:9", retries=1,
                   deadline=3.0)


@pytest.mark.parametrize("url", ["localhost:1", "example.com",
                                 "file:///dev/null"])
def test_fetch_code_rejects_url_that_is_not_http(url):
    with pytest.raises(IngestError, match="not http"):
        fetch_code("0x" + "00" * 20, url)


def test_fetch_code_truncated_error_body_is_retried():
    # the 500 reply announces more body than it sends: reading it fails like
    # a dropped connection, so the attempt is retried, not raised
    mock = _MockRpc(b'{"jsonrpc"', status=500, content_length=100)
    try:
        with pytest.raises(RpcUnreachable):
            fetch_code("0x" + "00" * 20, mock.url, retries=1, deadline=3.0)
    finally:
        mock.close()
    assert mock.requests_seen == 2


def test_fetch_code_requires_url(monkeypatch):
    monkeypatch.delenv("REENTSCAN_RPC_URL", raising=False)
    with pytest.raises(IngestError):
        fetch_code("0x" + "00" * 20)


def test_fetch_code_rpc_error_with_http_500():
    # a node may answer a failed call with a non-2xx status and the JSON-RPC
    # error object in the body; the error object still names the failure
    body = json.dumps({"jsonrpc": "2.0", "id": 1,
                       "error": {"code": -32000, "message": "nope"}}).encode()
    mock = _MockRpc(body, status=500)
    try:
        with pytest.raises(RpcErrorResponse, match="nope"):
            fetch_code("0x" + "00" * 20, mock.url)
    finally:
        mock.close()
    assert mock.requests_seen == 1


def test_cli_import_pulls_in_no_http_client():
    # the client is imported by fetch_code, so a run on files never loads it
    probe = ("import sys, reentscan.cli; "
             "print(sorted(m for m in ('requests', 'urllib.request', "
             "'http.client') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.strip() == "[]"
