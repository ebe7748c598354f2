"""The control plane's Prometheus text: exact samples over a lifecycle.

An inline loopback server with an injectable clock scripts one session
through each end of the lifecycle — run to completion, lease-expiry
orphaning, detach — and the scrape must hold exactly the control-plane
samples below, zero-valued session states included.  Line order is the
exporter's business; the parsed sample set is the contract.
"""

from repro.acp.client import AcpClient
from repro.acp.server import AcpServer
from repro.experiments.runner import RunConfig, RunShape
from repro.telemetry.exporters import parse_prometheus

SHAPE = RunShape(benchmark="swaptions", n_units=60)
CONFIG = RunConfig(telemetry=True, checkpoint=2.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _scripted_server():
    clock = FakeClock()
    server = AcpServer(threaded=False, clock=clock)
    client = AcpClient(server=server)
    done = client.attach("hars-ei", SHAPE, CONFIG, session_id="done")
    done.run()
    done.result()
    idle = client.attach("hars-ei", SHAPE, CONFIG, session_id="idle")
    idle.advance(1.0)
    client.attach(
        "hars-ei", SHAPE, CONFIG, session_id="leased", lease_ttl_s=5.0
    )
    clock.now = 10.0
    assert [o["session_id"] for o in client.sessions()["orphaned"]] == [
        "leased"
    ]
    idle.detach()
    return server


def test_control_plane_samples_are_exact():
    text = _scripted_server().metrics_text()
    samples = {
        key: value
        for key, value in parse_prometheus(text).items()
        if key[0].startswith("acp_")
    }
    assert samples == {
        ("acp_sessions_attached_total", ()): 3.0,
        ("acp_sessions", (("state", "running"),)): 0.0,
        ("acp_sessions", (("state", "finished"),)): 1.0,
        ("acp_sessions", (("state", "quarantined"),)): 0.0,
        ("acp_sessions", (("state", "orphaned"),)): 1.0,
        ("acp_frames_total", (("direction", "in"),)): 8.0,
        ("acp_frames_total", (("direction", "out"),)): 8.0,
        ("acp_retries_total", ()): 0.0,
        ("acp_dedup_hits_total", ()): 0.0,
        ("acp_lease_expired_total", ()): 1.0,
        ("acp_frames_corrupt_total", ()): 0.0,
    }


def test_every_control_plane_metric_is_typed_and_documented():
    text = _scripted_server().metrics_text()
    for name in (
        "acp_sessions_attached_total",
        "acp_sessions",
        "acp_frames_total",
        "acp_retries_total",
        "acp_dedup_hits_total",
        "acp_lease_expired_total",
        "acp_frames_corrupt_total",
    ):
        assert f"# HELP {name} " in text
        assert f"# TYPE {name} " in text
