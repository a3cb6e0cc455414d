"""Unit tests for application instances and stateless migration."""

import pytest

from repro.core.profiles import TABLE_I
from repro.sim.application import Application, ApplicationError, ApplicationSpec
from repro.sim.cluster import Cluster
from repro.sim.machine import MachineState


def on_machine(cluster, arch="raspberry"):
    m = cluster.boot(arch, 1, 0.0)[0]
    m.complete_boot(0.0)
    return m


@pytest.fixture()
def cluster():
    return Cluster([TABLE_I["raspberry"], TABLE_I["chromebook"]])


class TestSpec:
    def test_defaults_are_paper_webserver(self):
        spec = ApplicationSpec()
        assert spec.malleable and spec.qos_class == "tolerant"

    def test_validation(self):
        with pytest.raises(ApplicationError):
            ApplicationSpec(min_instances=0)
        with pytest.raises(ApplicationError):
            ApplicationSpec(min_instances=3, max_instances=2)
        with pytest.raises(ApplicationError):
            ApplicationSpec(malleable=False, max_instances=None)


class TestDeploy:
    def test_deploy_on_on_machine(self, cluster):
        app = Application(ApplicationSpec())
        m = on_machine(cluster)
        inst = app.deploy(m, 5.0)
        assert app.instance_on(m) is inst
        assert inst.started_at == 5.0

    def test_rejects_off_machine(self, cluster):
        app = Application(ApplicationSpec())
        m = cluster.acquire_off_machine("raspberry", 0.0)
        with pytest.raises(ApplicationError):
            app.deploy(m, 0.0)

    def test_rejects_double_deploy(self, cluster):
        app = Application(ApplicationSpec())
        m = on_machine(cluster)
        app.deploy(m, 0.0)
        with pytest.raises(ApplicationError):
            app.deploy(m, 1.0)

    def test_max_instances_enforced(self, cluster):
        app = Application(ApplicationSpec(max_instances=1))
        app.deploy(on_machine(cluster), 0.0)
        with pytest.raises(ApplicationError):
            app.deploy(on_machine(cluster, "chromebook"), 0.0)

    def test_non_malleable_single_instance(self, cluster):
        app = Application(ApplicationSpec(malleable=False, max_instances=1))
        app.deploy(on_machine(cluster), 0.0)
        with pytest.raises(ApplicationError):
            app.deploy(on_machine(cluster, "chromebook"), 0.0)


class TestRetireAndMigrate:
    def test_retire_clears_machine(self, cluster):
        app = Application(ApplicationSpec())
        m = on_machine(cluster)
        app.deploy(m, 0.0)
        m.assign_load(5.0, 1.0)
        app.retire(m, 2.0)
        assert app.instance_on(m) is None
        assert m.load == 0.0

    def test_retire_without_instance_rejected(self, cluster):
        app = Application(ApplicationSpec())
        with pytest.raises(ApplicationError):
            app.retire(on_machine(cluster), 0.0)

    def test_migrate_moves_instance(self, cluster):
        app = Application(ApplicationSpec())
        src = on_machine(cluster)
        dst = on_machine(cluster, "chromebook")
        app.deploy(src, 0.0)
        inst = app.migrate(src, dst, 10.0)
        assert app.instance_on(src) is None
        assert app.instance_on(dst) is inst
        assert inst.started_at == 10.0
