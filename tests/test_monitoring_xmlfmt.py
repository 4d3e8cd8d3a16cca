"""Tests for Ganglia XML rendering and parsing."""

import numpy as np
import pytest

from repro.metrics.catalog import NUM_METRICS, metric_index
from repro.monitoring.aggregator import GmetadAggregator
from repro.monitoring.multicast import MetricAnnouncement, MulticastChannel
from repro.monitoring.xmlfmt import (
    parse_cluster_xml,
    parse_host,
    render_announcement_xml,
    render_cluster_xml,
)


def make_announcement(node="VM1", t=35.0):
    values = np.zeros(NUM_METRICS)
    values[metric_index("cpu_user")] = 82.5
    values[metric_index("io_bi")] = 440.25
    values[metric_index("bytes_out")] = 1.25e7
    return MetricAnnouncement(node=node, timestamp=t, values=values)


def test_render_contains_schema_elements():
    xml = render_announcement_xml(make_announcement())
    assert '<HOST NAME="VM1" REPORTED="35">' in xml
    assert 'NAME="cpu_user"' in xml
    assert 'UNITS="%"' in xml
    assert 'TYPE="float"' in xml


def test_host_round_trip():
    original = make_announcement()
    import xml.etree.ElementTree as ET

    parsed = parse_host(ET.fromstring(render_announcement_xml(original)))
    assert parsed.node == original.node
    assert parsed.timestamp == original.timestamp
    assert np.allclose(parsed.values, original.values, atol=1e-6)


def test_cluster_round_trip_via_aggregator():
    channel = MulticastChannel()
    agg = GmetadAggregator(channel)
    channel.announce(make_announcement("VM1", 35.0))
    channel.announce(make_announcement("VM2", 35.0))
    xml = render_cluster_xml(agg, cluster_name="testbed", localtime=40.0)
    assert 'CLUSTER NAME="testbed"' in xml
    parsed = parse_cluster_xml(xml)
    assert [a.node for a in parsed] == ["VM1", "VM2"]
    assert np.isclose(parsed[0].values[metric_index("cpu_user")], 82.5)


def test_parse_rejects_wrong_root():
    with pytest.raises(ValueError, match="GANGLIA_XML"):
        parse_cluster_xml("<WRONG/>")


def test_parse_host_validation():
    import xml.etree.ElementTree as ET

    with pytest.raises(ValueError, match="HOST"):
        parse_host(ET.fromstring("<METRIC/>"))
    with pytest.raises(ValueError, match="NAME/REPORTED"):
        parse_host(ET.fromstring("<HOST/>"))
    with pytest.raises(ValueError, match="NAME/VAL"):
        parse_host(ET.fromstring('<HOST NAME="x" REPORTED="1"><METRIC/></HOST>'))


def test_parse_unknown_metric_rejected():
    import xml.etree.ElementTree as ET

    bad = '<HOST NAME="x" REPORTED="1"><METRIC NAME="gpu_temp" VAL="9"/></HOST>'
    with pytest.raises(KeyError):
        parse_host(ET.fromstring(bad))


def test_live_gmond_xml_path(classifier):
    """Render a real simulation's aggregator state and classify from XML."""
    from repro.monitoring.stack import MonitoringStack
    from repro.sim.engine import SimulationEngine
    from repro.sim.execution import classification_testbed
    from repro.workloads.base import WorkloadInstance
    from tests.conftest import short_io_workload

    cluster = classification_testbed()
    engine = SimulationEngine(cluster, seed=5)
    stack = MonitoringStack(engine, seed=6)
    engine.add_instance(WorkloadInstance(short_io_workload(60.0), vm_name="VM1"))
    engine.run()
    xml = render_cluster_xml(stack.aggregator, localtime=engine.now)
    parsed = parse_cluster_xml(xml)
    vm1 = [a for a in parsed if a.node == "VM1"][0]
    # The on-the-wire snapshot still classifies correctly.
    from repro.core.online import SnapshotClass
    from repro.metrics.catalog import metric_indices

    names = classifier.preprocessor.selector.names
    pred = classifier.classify_rows(
        vm1.values[metric_indices(names)][None, :]
    )[0]
    assert pred == int(SnapshotClass.IO)
