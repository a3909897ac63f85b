"""Communicators, world construction, placement."""

import pytest

from repro.mpi import CommunicatorError, MpiWorld, RankError
from repro.mpi.world import default_placement
from repro.simthread import Scheduler
from tests.conftest import make_world


class TestCommunicator:
    def test_membership_and_rank_translation(self, sched):
        world = make_world(sched, nprocs=4)
        comm = world.create_comm((1, 3))
        assert comm.id != world.comm_world.id
        assert world.comm_by_id(comm.id) is comm
        assert comm.size == 2
        assert comm.ranks == (1, 3)     # local rank i is world rank ranks[i]
        comm.check_member(3)
        with pytest.raises(RankError):
            comm.check_member(0)

    def test_duplicate_ranks_rejected(self, sched):
        world = make_world(sched, nprocs=2)
        with pytest.raises(CommunicatorError):
            world.create_comm((0, 0))

    def test_empty_rejected(self, sched):
        world = make_world(sched, nprocs=2)
        with pytest.raises(CommunicatorError):
            world.create_comm(())

    def test_nonexistent_rank_rejected(self, sched):
        world = make_world(sched, nprocs=2)
        with pytest.raises(CommunicatorError):
            world.create_comm((0, 7))


class TestWorld:
    def test_default_placement_splits_halves(self):
        assert default_placement(4, 2) == [0, 0, 1, 1]
        assert default_placement(5, 2) == [0, 0, 0, 1, 1]
        assert default_placement(3, 3) == [0, 1, 2]

    def test_world_builds_processes_and_comm_world(self, sched):
        world = make_world(sched, nprocs=4, instances=3)
        assert world.nprocs == 4
        assert world.comm_world.ranks == (0, 1, 2, 3)
        assert all(len(p.pool) == 3 for p in world.processes)
        # halves of the ranks share a NIC per node
        assert world.processes[0].nic is world.processes[1].nic
        assert world.processes[2].nic is world.processes[3].nic
        assert world.processes[0].nic is not world.processes[2].nic

    def test_custom_placement_validated(self):
        sched = Scheduler()
        with pytest.raises(ValueError):
            MpiWorld(sched, nprocs=3, placement=[0, 1])

    def test_env_rank_validated(self, sched):
        world = make_world(sched)
        with pytest.raises(ValueError):
            world.env(5)

    def test_comm_by_id_unknown(self, sched):
        world = make_world(sched)
        with pytest.raises(CommunicatorError):
            world.comm_by_id(999)

    def test_spc_total_aggregates(self, sched):
        world = make_world(sched)
        world.processes[0].spc.messages_sent = 3
        world.processes[1].spc.messages_sent = 4
        assert world.spc_total().messages_sent == 7
