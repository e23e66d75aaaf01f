"""Minimal asyncio HTTP/1.1 client for driving a ``ScoringServer`` in tests.

Shared by the tier-1 serving tests and ``benchmarks/bench_gates.py``.
"""

import asyncio
import json


async def _read_head(reader):
    status = int((await reader.readline()).split(b" ", 2)[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers


async def _close(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (OSError, asyncio.CancelledError):
        pass


async def post_json(host, port, path, doc, reader=None, writer=None):
    """POST ``doc`` as JSON; returns ``(status, parsed_body)``.

    With ``reader``/``writer`` the request reuses an open keep-alive
    connection (a closed-loop client); without them a fresh connection
    is opened and closed (an independent open-loop arrival).
    """
    own = reader is None
    if own:
        reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = json.dumps(doc).encode("utf-8")
        writer.write(
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'close' if own else 'keep-alive'}\r\n\r\n".encode("ascii")
            + payload
        )
        await writer.drain()
        status, headers = await _read_head(reader)
        length = int(headers.get("content-length", 0))
        body = json.loads(await reader.readexactly(length)) if length else {}
        return status, body
    finally:
        if own:
            await _close(writer)


async def get_text(host, port, path):
    """GET ``path``; returns ``(status, lower-cased headers, text body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Connection: close\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        status, headers = await _read_head(reader)
        length = int(headers.get("content-length", 0))
        body = (await reader.readexactly(length)).decode("utf-8") if length else ""
        return status, headers, body
    finally:
        await _close(writer)
