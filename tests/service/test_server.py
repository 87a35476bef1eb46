"""Unit tests for the JSON-lines TCP admission server."""

import asyncio
import gc
import json

import pytest

from repro.cluster import StreamingSimulator
from repro.schedulers import make_scheduler
from repro.service import AdmissionGateway, AdmissionServer, WallClock
from repro.sustainability import ElectricityMapsLikeProvider
from repro.traces.scenarios import scenario_source


@pytest.fixture(scope="module")
def dataset():
    return ElectricityMapsLikeProvider(horizon_hours=72, seed=4)


@pytest.fixture(scope="module")
def source():
    return scenario_source("bursty", seed=13, rate_per_hour=40.0, duration_days=0.1)


def _engine(source, dataset):
    return StreamingSimulator(
        source, make_scheduler("waterwise"), dataset=dataset,
        servers_per_region=8, chunk_size=64, collect="aggregate",
    )


async def _start_server(source, dataset, **gateway_kwargs):
    gateway_kwargs.setdefault("clock", WallClock(rate=200_000.0))
    gateway_kwargs.setdefault("arrival_mode", "clock")
    gateway_kwargs.setdefault("tick_interval_s", 0.01)
    engine = _engine(source, dataset)
    gateway = AdmissionGateway(engine, **gateway_kwargs)
    server = await AdmissionServer(gateway, port=0).start()
    return engine, server


async def _rpc(reader, writer, request):
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


class TestProtocol:
    def test_submit_stats_shutdown(self, source, dataset):
        async def scenario():
            engine, server = await _start_server(source, dataset)
            serve = asyncio.ensure_future(server.serve_until_shutdown())
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            regions = engine._keys_tuple
            jobs = [
                {"job_id": i, "workload": "web-search", "home_region": regions[0],
                 "execution_time": 600.0, "energy_kwh": 0.4}
                for i in range(4)
            ]
            submit = await asyncio.wait_for(
                _rpc(reader, writer, {"op": "submit", "jobs": jobs}), timeout=30.0
            )
            stats = await _rpc(reader, writer, {"op": "stats"})
            shutdown = await _rpc(reader, writer, {"op": "shutdown"})
            result = await serve
            writer.close()
            await server.stop()
            return submit, stats, shutdown, result

        submit, stats, shutdown, result = asyncio.run(scenario())
        assert submit["ok"] and len(submit["decisions"]) == 4
        job_ids = [entry[0] for entry in submit["decisions"]]
        assert sorted(job_ids) == [0, 1, 2, 3]
        assert all(isinstance(entry[1], str) for entry in submit["decisions"])
        assert stats["ok"] and stats["stats"]["decided"] == 4
        assert shutdown["ok"]
        assert result.num_jobs == 4

    def test_tick_and_checkpoint_ops(self, source, dataset, tmp_path):
        target = tmp_path / "served.ckpt"

        async def scenario():
            engine, server = await _start_server(source, dataset)
            serve = asyncio.ensure_future(server.serve_until_shutdown())
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            tick = await _rpc(reader, writer, {"op": "tick"})
            checkpoint = await _rpc(
                reader, writer, {"op": "checkpoint", "path": str(target)}
            )
            await _rpc(reader, writer, {"op": "shutdown"})
            await serve
            writer.close()
            await server.stop()
            return tick, checkpoint

        tick, checkpoint = asyncio.run(scenario())
        assert tick["ok"] and tick["decided"] == 0
        assert checkpoint["ok"]
        payload = StreamingSimulator.load_checkpoint(target)
        assert payload["state"] is not None

    def test_errors_reported_per_request(self, source, dataset, tmp_path):
        async def scenario():
            engine, server = await _start_server(source, dataset)
            serve = asyncio.ensure_future(server.serve_until_shutdown())
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            # The first op: nothing has been admitted, so there is no
            # session state to save yet.
            early = await asyncio.wait_for(
                _rpc(reader, writer, {"op": "checkpoint", "path": str(tmp_path / "early.ckpt")}),
                timeout=10.0,
            )
            unknown = await _rpc(reader, writer, {"op": "transmogrify"})
            missing = await _rpc(
                reader, writer, {"op": "submit", "jobs": [{"job_id": 1}]}
            )
            bad_region = await _rpc(
                reader, writer,
                {"op": "submit", "jobs": [{
                    "job_id": 2, "workload": "web-search", "home_region": "atlantis",
                    "execution_time": 60.0, "energy_kwh": 0.1,
                }]},
            )
            fractional = await _rpc(
                reader, writer,
                {"op": "submit", "jobs": [{
                    "job_id": 3, "workload": "web-search", "home_region": engine._keys_tuple[0],
                    "execution_time": 60.0, "energy_kwh": 0.1, "servers_required": 2.9,
                }]},
            )
            await _rpc(reader, writer, {"op": "tick"})  # gives the session state to save
            unwritable = await asyncio.wait_for(
                _rpc(reader, writer, {
                    "op": "checkpoint", "path": str(tmp_path / "missing" / "x.ckpt"),
                }),
                timeout=10.0,
            )
            # The connection (and the server) survives every error.
            stats = await asyncio.wait_for(_rpc(reader, writer, {"op": "stats"}), timeout=10.0)
            shutdown = await asyncio.wait_for(
                _rpc(reader, writer, {"op": "shutdown"}), timeout=10.0
            )
            await asyncio.wait_for(serve, timeout=10.0)
            writer.close()
            await server.stop()
            return early, unknown, missing, bad_region, fractional, unwritable, stats, shutdown

        (early, unknown, missing, bad_region, fractional, unwritable, stats,
         shutdown) = asyncio.run(scenario())
        assert not early["ok"] and "nothing to checkpoint" in early["error"]
        assert not unknown["ok"] and "transmogrify" in unknown["error"]
        assert not missing["ok"] and "KeyError" in missing["error"]
        assert not bad_region["ok"] and "atlantis" in bad_region["error"]
        assert not fractional["ok"] and "servers_required" in fractional["error"]
        assert not unwritable["ok"] and "FileNotFoundError" in unwritable["error"]
        assert stats["ok"] and stats["stats"]["decided"] == 0
        assert shutdown["ok"]

    def test_shutdown_stops_a_poisoned_server(self, source, dataset):
        contexts = []

        def broken_admit(chunk, now=None):
            raise RuntimeError("engine fault")

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: contexts.append(context)
            )
            engine, server = await _start_server(source, dataset)
            engine.admit = broken_admit
            serve = asyncio.ensure_future(server.serve_until_shutdown())
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            job = {"job_id": 0, "workload": "web-search", "home_region": engine._keys_tuple[0],
                   "execution_time": 60.0, "energy_kwh": 0.1}
            submit = await asyncio.wait_for(
                _rpc(reader, writer, {"op": "submit", "jobs": [job]}), timeout=10.0
            )
            shutdown = await asyncio.wait_for(
                _rpc(reader, writer, {"op": "shutdown"}), timeout=10.0
            )
            # The failed shutdown still stops the server.
            result = await asyncio.wait_for(serve, timeout=10.0)
            writer.close()
            await server.stop()
            return submit, shutdown, result

        submit, shutdown, result = asyncio.run(scenario())
        assert not submit["ok"] and "engine fault" in submit["error"]
        assert not shutdown["ok"] and "admission gateway failed" in shutdown["error"]
        assert result is None
        # The gateway reports its failure to every later call; its loop task
        # must not also hold an exception nobody retrieves, which asyncio
        # logs once the task is collected.
        gc.collect()
        assert not [c for c in contexts if "never retrieved" in c["message"]]

    def test_ephemeral_port_resolved(self, source, dataset):
        async def scenario():
            _engine_, server = await _start_server(source, dataset)
            port = server.port
            await server.stop()
            return port

        assert asyncio.run(scenario()) > 0
