"""Shared fixtures, and helpers for protocol-level tests."""

import builtins
import random
import socket

import pytest

from tiermeta import namespace


@pytest.fixture
def empty_shared_tables(monkeypatch):
    """Give the test empty tables of shared values, restored afterwards."""
    monkeypatch.setattr(namespace, "_shared_values", {})


@pytest.fixture
def opened_files(monkeypatch):
    """Record every file that ``open`` in the given modules returns.

    Call the fixture's value with the modules to watch; it returns the list
    that later opens are appended to, so a test can check they were closed.
    """
    opened = []

    def recording_open(*args, **kwargs):
        f = builtins.open(*args, **kwargs)
        opened.append(f)
        return f

    def watch(*modules):
        for module in modules:
            monkeypatch.setattr(module, "open", recording_open, raising=False)
        return opened

    return watch


class Client:
    """Minimal line-protocol client: one request line, one response line."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.f = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def ask(self, line):
        self.f.write(line + "\n")
        self.f.flush()
        return self.f.readline().rstrip("\n")

    def close(self):
        try:
            self.f.close()
            self.sock.close()
        except OSError:
            pass


# Scripted session covering every verb and every ERR code, with the exact
# expected response for each request. Assumes a fresh store and one client.
GOLDEN_SESSION = [
    ("CREATE /a/one 130023424", "OK created /a/one"),
    ("STAT /a/one", "OK path=/a/one length=130023424 blocks=2 last_access=0 count=1 tier=hot"),
    ("OPEN /a/one", "OK path=/a/one length=130023424 blocks=2 last_access=1 count=2"),
    ("CREATE /a/one 5", "ERR EXISTS path already exists: /a/one"),
    ("OPEN /nope", "ERR NOTFOUND no such path: /nope"),
    ("DELETE /nope", "ERR NOTFOUND no such path: /nope"),
    ("CREATE /bad notanumber", "ERR BADREQ length is not an integer: notanumber"),
    ("CREATE relative 5", "ERR BADREQ path is not absolute: 'relative'"),
    ("FROB /x", "ERR BADREQ unknown verb 'FROB'"),
    ("OPEN", "ERR BADREQ OPEN takes a path"),
    ("CREATE /a/two 0", "OK created /a/two"),
    ("DELETE /a/two", "OK deleted /a/two"),
    ("REPORT", "OK hot_records=1 cold_records=0 creates=2 deletes=1 lookups=2 "
               "hot_hits=1 cold_hits=0 misses=1 promotions=0 separations=0 peak_hot_records=2"),
    ("QUIT", "OK bye"),
]


def parse_ok(response):
    assert response.startswith("OK path="), response
    return dict(pair.split("=", 1) for pair in response[3:].split(" "))


def fuzz_client(port, prefix, seed, errors, model):
    """Drive 500 random requests on a private path space, verifying every
    response against a local reference model."""
    rng = random.Random(seed)
    client = Client(port)
    try:
        for _ in range(500):
            known = sorted(model)
            roll = rng.random()
            if roll < 0.35 or not known:
                path = f"{prefix}/{rng.randrange(120):03d}"
                length = rng.randrange(1, 10**9)
                response = client.ask(f"CREATE {path} {length}")
                if path in model:
                    if not response.startswith("ERR EXISTS"):
                        errors.append(f"{path}: dup create got {response}")
                elif response != f"OK created {path}":
                    errors.append(f"{path}: create got {response}")
                else:
                    model[path] = [length, 1]
            elif roll < 0.65:
                path = rng.choice(known)
                fields = parse_ok(client.ask(f"OPEN {path}"))
                model[path][1] += 1
                if int(fields["length"]) != model[path][0]:
                    errors.append(f"{path}: OPEN length {fields['length']}")
                if int(fields["count"]) != model[path][1]:
                    errors.append(f"{path}: OPEN count {fields['count']} want {model[path][1]}")
            elif roll < 0.8:
                path = rng.choice(known)
                fields = parse_ok(client.ask(f"STAT {path}"))
                if int(fields["count"]) != model[path][1]:
                    errors.append(f"{path}: STAT count {fields['count']} want {model[path][1]}")
                if fields["tier"] not in ("hot", "cold"):
                    errors.append(f"{path}: STAT tier {fields['tier']}")
            elif roll < 0.9:
                path = rng.choice(known)
                response = client.ask(f"DELETE {path}")
                if response != f"OK deleted {path}":
                    errors.append(f"{path}: delete got {response}")
                else:
                    del model[path]
            else:
                path = f"{prefix}/gone/{rng.randrange(10)}"
                response = client.ask(f"OPEN {path}")
                if not response.startswith("ERR NOTFOUND"):
                    errors.append(f"{path}: expected NOTFOUND, got {response}")
    except Exception as exc:  # propagate into the main thread
        errors.append(f"{prefix}: crashed: {exc!r}")
    finally:
        client.close()
