"""In-process TuningDaemon tests: settle paths, recovery, lifecycle."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.core.journal import EvaluationJournal
from repro.obs import InMemorySink, Tracer
from repro.serve import (SessionCancelled, SessionSpec, SessionStore,
                         SocketTransport, TuningDaemon, parse_address,
                         result_payload, run_session)

from .harness import fast_spec_kwargs

SPEC = SessionSpec(workload="pagerank", seed=4, **fast_spec_kwargs())


def drain(store, **kw):
    kw.setdefault("poll_s", 0.02)
    kw.setdefault("session_traces", False)
    return TuningDaemon(store, drain=True, **kw).run()


class TestSettlePaths:
    def test_success_settles_done_with_result(self, tmp_path):
        store = SessionStore(tmp_path / "store", fsync=False)
        sid = store.submit(SPEC)
        assert drain(store) == 1
        assert store.state(sid) == "DONE"
        assert store.result(sid)["digest"] == result_payload(
            SPEC, run_session(SPEC))["digest"]

    def test_broken_session_settles_failed(self, tmp_path):
        store = SessionStore(tmp_path / "store", fsync=False)
        # Spec validation cannot know the workload registry; the runner
        # discovers the bad name and the daemon settles FAILED.
        sid = store.submit(SessionSpec(workload="not-a-workload"))
        assert drain(store) == 1
        view = store.view(sid)
        assert view["state"] == "FAILED"
        assert "not-a-workload" in view["error"]

    def test_cancel_mid_run_settles_cancelled(self, tmp_path):
        store = SessionStore(tmp_path / "store", fsync=False)
        sid = store.submit(SessionSpec(workload="pagerank", seed=9,
                                       **fast_spec_kwargs(budget=200)))
        daemon = TuningDaemon(store, poll_s=0.02, session_traces=False)
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        for _ in range(2400):  # wait for real progress, then cancel
            if store.journal_path(sid).exists() \
                    and store.journal_path(sid).stat().st_size > 0:
                break
            time.sleep(0.02)
        store.cancel(sid)
        for _ in range(2400):
            if store.state(sid) == "CANCELLED":
                break
            time.sleep(0.02)
        daemon.stop()
        thread.join(timeout=60)
        assert store.state(sid) == "CANCELLED"
        assert store.result(sid) is None

    def test_max_sessions_bounds_the_run(self, tmp_path):
        store = SessionStore(tmp_path / "store", fsync=False)
        for seed in (1, 2, 3):
            store.submit(SessionSpec(workload="pagerank", seed=seed,
                                     **fast_spec_kwargs()))
        settled = TuningDaemon(store, poll_s=0.02, max_sessions=2,
                               session_traces=False).run()
        assert settled == 2
        depth = store.queue_depth()
        assert depth["DONE"] == 2 and depth["PENDING"] == 1


class TestRecovery:
    def test_adopts_and_finishes_an_orphan_bit_identically(self, tmp_path):
        # Simulate a crashed daemon by hand: claim, abort the session
        # partway through (the journal keeps the prefix the "crashed"
        # process produced), then leave the claim lock stale on disk.
        store = SessionStore(tmp_path / "store", fsync=False)
        sid = store.submit(SPEC)
        claim = store.claim("doomed")
        assert claim is not None
        journal = EvaluationJournal(store.journal_path(sid))
        calls = iter(range(1000))
        with pytest.raises(SessionCancelled):
            # "Crash" after 12 objective calls (mid-tuning phase).
            run_session(SPEC, journal=journal,
                        should_cancel=lambda: next(calls) >= 12)
        journal.close()
        import json
        lock = store._lock_path(sid)
        holder = json.loads(lock.read_text())
        holder["pid"] = 2 ** 22 + 1  # the claimer "died"
        lock.write_text(json.dumps(holder))

        sink = InMemorySink()
        tracer = Tracer(sink)
        assert drain(store, tracer=tracer) == 1
        tracer.close()
        assert store.state(sid) == "DONE"
        golden = result_payload(SPEC, run_session(SPEC))
        assert store.result(sid)["digest"] == golden["digest"]
        counters = [r for r in sink.records if r.get("kind") == "metrics"]
        assert counters and counters[-1]["counters"]["serve.resumed"] == 1

    def test_queue_events_and_claim_timer_are_emitted(self, tmp_path):
        store = SessionStore(tmp_path / "store", fsync=False)
        store.submit(SPEC)
        sink = InMemorySink()
        tracer = Tracer(sink)
        drain(store, tracer=tracer)
        tracer.close()
        events = [r["type"] for r in sink.records if r.get("kind") == "event"]
        assert "serve.queue" in events
        assert "serve.claim" in events
        assert "serve.state" in events
        metrics = [r for r in sink.records if r.get("kind") == "metrics"]
        assert metrics and "serve.claim" in metrics[-1]["timers"]


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"workers": 0},
        {"poll_s": 0.0},
        {"max_sessions": 0},
    ])
    def test_bad_construction_rejected(self, tmp_path, kw):
        with pytest.raises(ValueError):
            TuningDaemon(SessionStore(tmp_path / "s"), **kw)


class TestRpcBoundary:
    @pytest.fixture()
    def live_daemon(self, tmp_path):
        """An idle in-process daemon with its RPC server up."""
        store = SessionStore(tmp_path / "store", fsync=False)
        daemon = TuningDaemon(store, workers=1, poll_s=0.02,
                              socket_address="auto", session_traces=False)
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        for _ in range(400):
            info = store.daemon_info()
            if info is not None and info.get("address"):
                break
            time.sleep(0.02)
        yield store
        daemon.stop()
        thread.join(timeout=30)
        assert not thread.is_alive()

    @staticmethod
    def send_raw(store, frame: bytes) -> dict:
        family, endpoint = parse_address(store.daemon_info()["address"])
        if family == "tcp":
            sock = socket.create_connection(endpoint, timeout=10)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(10)
            sock.connect(endpoint)
        with sock:
            sock.sendall(frame)
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        return json.loads(reply.decode())

    @pytest.mark.parametrize("frame", [
        b"[1]\n", b'"x"\n', b"null\n", b"3\n",
        b"\xff\xfe\n", b"[" * 100_000 + b"\n",
    ], ids=["list", "string", "null", "number", "bad-utf8", "deep-nesting"])
    def test_malformed_request_answers_and_rpc_survives(self, live_daemon,
                                                        frame):
        store = live_daemon
        response = self.send_raw(store, frame)
        assert response["ok"] is False
        assert response["error"].startswith("bad request")
        assert SocketTransport("auto", store_root=store.root).ping()

    def test_every_malformed_request_in_a_row(self, live_daemon):
        store = live_daemon
        for frame in (b"[1]\n", b'"x"\n', b"null\n", b"3\n"):
            assert self.send_raw(store, frame)["ok"] is False
        transport = SocketTransport("auto", store_root=store.root)
        assert transport.ping()
        assert transport.list_sessions() == []

    def test_trickling_client_is_cut_off_at_the_frame_deadline(
            self, live_daemon):
        """A peer sending one byte per second never completes a frame;
        the whole frame gets one deadline, so the RPC thread drops it
        and answers the next client."""
        store = live_daemon
        family, endpoint = parse_address(store.daemon_info()["address"])
        assert family == "tcp"
        sock = socket.create_connection(endpoint, timeout=10)
        cut_after = None
        with sock:
            for sent, byte in enumerate(b'{"op": "ping"' * 2):
                try:
                    sock.sendall(bytes([byte]))
                    time.sleep(1.0)
                    sock.settimeout(0.0)
                    if sock.recv(1) == b"":
                        cut_after = sent + 1
                        break
                except BlockingIOError:
                    pass  # nothing to read yet: the frame is still open
                except OSError:
                    cut_after = sent + 1
                    break
        # Cut within a second or two of the 5 s frame deadline.
        assert cut_after is not None and cut_after <= 8
        transport = SocketTransport("auto", store_root=store.root,
                                    timeout_s=3.0)
        assert transport.ping()

    @staticmethod
    def files_outside_sessions(root) -> set:
        sessions = root / "store" / "sessions"
        return {p for p in root.rglob("*")
                if p.is_file() and sessions not in p.parents}

    @pytest.mark.parametrize("op", ["status", "results", "cancel"])
    @pytest.mark.parametrize("sid", ["../x", "s000001-../../y", "", 5],
                             ids=["parent", "embedded-parent", "empty",
                                  "number"])
    def test_sid_cannot_escape_the_store(self, live_daemon, tmp_path, op,
                                         sid):
        store = live_daemon
        # A decoy session outside the sessions directory: an unvalidated
        # "../x" would read its state and (for cancel) write next to it.
        (tmp_path / "store" / "sessions").mkdir(parents=True, exist_ok=True)
        decoy = tmp_path / "store" / "x"
        decoy.mkdir()
        (decoy / "state.json").write_text(
            json.dumps({"state": "PENDING", "seq": 0}))
        (decoy / "spec.json").write_text(json.dumps(SPEC.to_dict()))
        before = self.files_outside_sessions(tmp_path)
        frame = json.dumps({"op": op, "sid": sid}).encode() + b"\n"
        response = self.send_raw(store, frame)
        assert response["ok"] is False
        assert self.files_outside_sessions(tmp_path) == before
        assert SocketTransport("auto", store_root=store.root).ping()

    def test_oversized_frame_answers_and_rpc_survives(self, live_daemon):
        store = live_daemon
        family, endpoint = parse_address(store.daemon_info()["address"])
        sock = socket.create_connection(endpoint, timeout=10)

        def flood():
            # The daemon stops reading past its bound, so this send may
            # be cut off; only the reply matters.
            try:
                sock.sendall(b"x" * (2 << 20))
            except OSError:
                pass

        sender = threading.Thread(target=flood, daemon=True)
        with sock:
            sender.start()
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
            sender.join(timeout=10)
        response = json.loads(reply.decode())
        assert response["ok"] is False
        assert response["error"].startswith("bad request: frame exceeds")
        assert SocketTransport("auto", store_root=store.root).ping()

    @staticmethod
    def exchange(daemon, peer, request: dict) -> dict:
        """One RPC exchange over a socket pair, with *peer* standing in
        for the address ``accept()`` would report."""
        client, server = socket.socketpair()
        with client, server:
            client.sendall(json.dumps(request).encode() + b"\n")
            daemon._handle_conn(server, peer)
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = client.recv(65536)
                if not chunk:
                    break
                reply += chunk
        return json.loads(reply.decode())

    def test_shutdown_refused_from_a_remote_tcp_peer(self, tmp_path):
        daemon = TuningDaemon(SessionStore(tmp_path / "store", fsync=False),
                              session_traces=False)
        remote = ("10.1.2.3", 5555)
        response = self.exchange(daemon, remote, {"op": "shutdown"})
        assert response["ok"] is False
        assert response["error"].startswith("shutdown refused")
        assert not daemon._stop.is_set()
        assert self.exchange(daemon, remote, {"op": "ping"}) == {"ok": True}

    @pytest.mark.parametrize("peer", [("127.0.0.1", 5555),
                                      ("::1", 5555, 0, 0), ""],
                             ids=["ipv4", "ipv6", "unix"])
    def test_shutdown_accepted_from_a_local_peer(self, tmp_path, peer):
        daemon = TuningDaemon(SessionStore(tmp_path / "store", fsync=False),
                              session_traces=False)
        assert self.exchange(daemon, peer, {"op": "shutdown"}) == {"ok": True}
        assert daemon._stop.is_set()
