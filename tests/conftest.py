"""Shared fixtures: small canonical networks used across the test suite."""

from __future__ import annotations

import pytest

from repro.core import ChannelKind, Network, is_no_data


def _producer(ctx):
    ctx.write("c", ctx.k)


def _consumer(ctx):
    v = ctx.read("c")
    total = ctx.get("total", 0)
    if not is_no_data(v):
        total += v
    ctx.assign("total", total)
    ctx.write_output(total, "out")


@pytest.fixture
def pair_network() -> Network:
    """Minimal two-process FIFO pipeline (producer -> consumer), T=100."""
    net = Network("pair")
    net.add_periodic("producer", period=100, kernel=_producer)
    net.add_periodic("consumer", period=100, kernel=_consumer)
    net.connect("producer", "consumer", "c", kind=ChannelKind.FIFO)
    net.add_priority("producer", "consumer")
    net.add_external_output("consumer", "out")
    net.validate()
    return net


def _sensor(ctx):
    cfg = ctx.read("cfg")
    gain = 1 if is_no_data(cfg) else cfg
    ctx.write("data", gain * ctx.k)


def _sink(ctx):
    v = ctx.read("data")
    ctx.write_output(None if is_no_data(v) else v, "sink_out")


def _config(ctx):
    cmd = ctx.read_input("cmd")
    if not is_no_data(cmd):
        ctx.write("cfg", cmd)


@pytest.fixture
def sporadic_network() -> Network:
    """Periodic sensor (T=100) + sink (T=200) + sporadic config (2 per 300).

    The sporadic process's user is the sensor; the config has *higher*
    functional priority than its user (windows are right-closed ``(a, b]``).
    """
    net = Network("sporadic")
    net.add_periodic("sensor", period=100, kernel=_sensor)
    net.add_periodic("sink", period=200, kernel=_sink)
    net.add_sporadic("config", min_period=300, deadline=300, burst=2, kernel=_config)
    net.connect("sensor", "sink", "data", kind=ChannelKind.FIFO)
    net.connect("config", "sensor", "cfg", kind=ChannelKind.BLACKBOARD)
    net.add_priority("sensor", "sink")
    net.add_priority("config", "sensor")
    net.add_external_input("config", "cmd")
    net.add_external_output("sink", "sink_out")
    net.validate_taskgraph_subclass()
    return net


@pytest.fixture
def low_priority_sporadic_network() -> Network:
    """Same shape but the config is *below* its user (windows ``[a, b)``)."""
    net = Network("sporadic-low")
    net.add_periodic("sensor", period=100, kernel=_sensor)
    net.add_periodic("sink", period=200, kernel=_sink)
    net.add_sporadic("config", min_period=300, deadline=300, burst=2, kernel=_config)
    net.connect("sensor", "sink", "data", kind=ChannelKind.FIFO)
    net.connect("config", "sensor", "cfg", kind=ChannelKind.BLACKBOARD)
    net.add_priority("sensor", "sink")
    net.add_priority("sensor", "config")
    net.add_external_input("config", "cmd")
    net.add_external_output("sink", "sink_out")
    net.validate_taskgraph_subclass()
    return net


@pytest.fixture
def no_backoff(monkeypatch):
    """Pools built under this fixture redispatch a group at once."""
    from repro.experiment import pool_core

    monkeypatch.setattr(pool_core, "_RETRY_BACKOFF", 0.0)
