"""Automatic failure detection and epoch-fenced leader election.

PR 7's replication made any caught-up follower a *bit-identical*
substitute for the leader — serialized sketch bytes and xoroshiro state
words included — because replicas replay the leader's exact
``update_batch`` calls.  That determinism (the paper's Section 2.3.1
error guarantee holds exactly for the applied prefix) makes failover
unusually simple: there is no reconciliation step, election only has to
(a) pick the most-caught-up replica and (b) fence the old epoch so a
deposed leader can never sneak a write in.  This module is those two
jobs.

**The state machine** (per node)::

    follower ──leader silent > miss window──▶ candidate
    candidate ──majority of GRANTs at epoch e──▶ leader(e)
    candidate ──DENY reveals epoch/leader──▶ follower (adopts)
    leader(e) ──sees epoch e' > e──▶ follower (fenced, rewinds)

**Election rule.**  A candidate bumps its persisted epoch and asks every
peer for a vote (``REPL ELECT <epoch> <last_seq> <id>``).  A voter
grants iff all of:

1. it has not voted in this epoch (the *vote-once* rule, persisted to
   ``election.json`` **before** the reply is sent — a crashed-and-
   restarted voter cannot vote twice);
2. it does not currently hear a live leader (a healthy cluster refuses
   disruption — a rejoining node cannot depose a working leader);
3. the candidate is at least as caught up: ``(last_seq, candidate_id) >=
   (voter.applied_seq, voter.id)`` lexicographically, so the
   most-caught-up replica wins and ties break deterministically.

A candidate needs a strict majority of the *configured* replica set
(itself included).  Two leaders in one epoch would need two disjoint
majorities of granted votes — impossible by the vote-once rule and the
pigeonhole principle — so **at most one leader can exist per epoch, by
construction**.  Liveness comes from jittered retries at higher epochs.

**Fencing.**  Every replicated frame carries the leader's epoch
(protocol tag ``F``); a follower refuses frames below its own epoch.  A
deposed leader that rejoins learns the higher epoch (vote denial,
``REPL LEADER`` announcement, or its own peer polls), demotes itself to
follower, and — because its unreplicated WAL suffix may have diverged —
adopts the new leader's snapshot with a full local timeline reset
(:meth:`~repro.service.pipeline.IngestPipeline.reset_to_snapshot`),
restoring byte-identity.

Operational guidance (miss-window tuning, runbooks for crash, partition
and rejoin) lives in ``docs/service.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import (
    InvalidParameterError,
    ReplicationError,
    ServiceClosedError,
)
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.pipeline import IngestPipeline
from repro.service.replication import FollowerService, ReplicationConfig

logger = logging.getLogger(__name__)

ELECTION_STATE_FILE = "election.json"


@dataclass
class FailoverConfig:
    """Tuning for one node's failure detector and elections.

    Attributes
    ----------
    heartbeat_miss_window:
        Seconds of leader silence after which a follower declares the
        leader dead and stands for election.  Must comfortably exceed
        the leader's heartbeat interval (a few multiples); the MTTR
        bench gates recovery at five times this window.
    check_interval:
        The failure detector's polling cadence.
    election_timeout:
        Per-round budget for collecting votes before giving up.
    election_backoff:
        Base sleep between failed election rounds (jittered, so two
        equally-ranked candidates do not collide forever).
    rpc_timeout:
        Per-peer timeout for one ELECT/PEERS/LEADER exchange.
    peer_poll_interval:
        How often a *leader* polls one peer for a higher epoch — the
        stale-leader self-check that catches a healed partition even if
        every announcement was lost.
    jitter:
        Random fraction added to every sleep (``1 + jitter * random()``).
    """

    heartbeat_miss_window: float = 2.0
    check_interval: float = 0.25
    election_timeout: float = 2.0
    election_backoff: float = 0.3
    rpc_timeout: float = 1.0
    peer_poll_interval: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        for name in (
            "heartbeat_miss_window", "check_interval", "election_timeout",
            "election_backoff", "rpc_timeout", "peer_poll_interval",
        ):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.jitter < 0:
            raise InvalidParameterError(
                f"jitter must be >= 0, got {self.jitter}"
            )


class EpochStore:
    """The persisted election state: ``{epoch, voted_for}``.

    Lives as ``election.json`` beside the WAL (pass the snapshot
    manager's directory), written atomically (tmp + fsync + rename)
    **before** any vote reply leaves the node — the vote-once rule must
    survive a crash between granting and replying.  With no directory
    the store is memory-only (tests, ephemeral replicas): safe against
    logic races in one process, not against restarts.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self._path: Optional[str] = None
        self._epoch = 0
        self._voted_for: Optional[str] = None
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._path = os.path.join(directory, ELECTION_STATE_FILE)
            self._load()

    def _load(self) -> None:
        assert self._path is not None
        try:
            with open(self._path, "r", encoding="ascii") as fh:
                doc = json.load(fh)
            epoch = doc["epoch"]
            voted = doc.get("voted_for")
            if not isinstance(epoch, int) or epoch < 0:
                raise ValueError(f"bad epoch {epoch!r}")
            if voted is not None and not isinstance(voted, str):
                raise ValueError(f"bad voted_for {voted!r}")
        except FileNotFoundError:
            return
        except (ValueError, KeyError, TypeError, OSError) as exc:
            # A corrupt election file weakens the vote-once guarantee for
            # the epoch it covered; surface that loudly but keep serving.
            logger.warning(
                "ignoring corrupt election state %s (%s); restarting at "
                "epoch 0 — this node may double-vote in an old epoch",
                self._path, exc,
            )
            return
        self._epoch = epoch
        self._voted_for = voted

    def _persist(self) -> None:
        if self._path is None:
            return
        tmp = self._path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump({"epoch": self._epoch, "voted_for": self._voted_for}, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._path)

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def voted_for(self) -> Optional[str]:
        return self._voted_for

    def record_vote(self, epoch: int, candidate: str) -> bool:
        """Try to vote for ``candidate`` at ``epoch``; persist, then
        return whether the vote is granted.

        Grants exactly once per epoch: a higher epoch always gets the
        vote (and resets it), the same epoch re-grants only to the same
        candidate (idempotent against a retried request), anything else
        is refused.
        """
        if epoch > self._epoch:
            self._epoch = epoch
            self._voted_for = candidate
            self._persist()
            return True
        return epoch == self._epoch and self._voted_for == candidate

    def observe(self, epoch: int, leader: Optional[str] = None) -> bool:
        """Adopt a higher epoch learned from a peer; True if it advanced.

        When the observation names the epoch's leader, the vote slot is
        burned on it — a majority already granted that epoch, so this
        node's vote could never matter and withholding it hardens the
        at-most-one-leader invariant further.
        """
        if epoch > self._epoch:
            self._epoch = epoch
            self._voted_for = leader
            self._persist()
            return True
        if epoch == self._epoch and leader is not None and self._voted_for is None:
            self._voted_for = leader
            self._persist()
        return False


class FailoverCoordinator:
    """One node's half of automatic failover.

    Owns the failure detector, elections, leadership announcements and
    the node's :class:`~repro.service.replication.FollowerService`
    lifecycle (the subscription target changes when leadership does).
    The :class:`~repro.service.server.StreamServer` routes the ``REPL
    ELECT`` / ``REPL LEADER`` / ``REPL PEERS`` verbs here.

    Parameters
    ----------
    node_id:
        This replica's id (``protocol.valid_replica_id``); the election
        tiebreaker, so ids should be distinct across the replica set.
    pipeline:
        The node's pipeline (leader or replica mode).
    self_addr:
        ``host:port`` this node's server listens on, as peers reach it.
    peers:
        ``{replica_id: "host:port"}`` for every *other* replica.  The
        quorum is a strict majority of ``len(peers) + 1``.
    leader_id / leader_addr:
        The currently known leader, if any (bootstrap hint for a node
        started as a follower).
    epoch_store:
        An :class:`EpochStore`; defaults to memory-only.
    repl_config:
        The :class:`~repro.service.replication.ReplicationConfig` used
        for follower subscriptions this coordinator creates.
    config:
        A :class:`FailoverConfig`.
    elect:
        Set False to detect and report but never stand for election
        (an observer/DR replica).
    """

    def __init__(
        self,
        node_id: str,
        pipeline: IngestPipeline,
        *,
        self_addr: str,
        peers: Optional[dict] = None,
        leader_id: Optional[str] = None,
        leader_addr: Optional[str] = None,
        epoch_store: Optional[EpochStore] = None,
        repl_config: Optional[ReplicationConfig] = None,
        config: Optional[FailoverConfig] = None,
        elect: bool = True,
    ) -> None:
        if not protocol.valid_replica_id(node_id):
            raise InvalidParameterError(f"invalid replica id {node_id!r}")
        self._node_id = node_id
        self._pipeline = pipeline
        self._self_addr = self_addr
        self._peers = dict(peers or {})
        self._store = epoch_store if epoch_store is not None else EpochStore()
        self._repl_config = (
            repl_config if repl_config is not None else ReplicationConfig()
        )
        self._config = config if config is not None else FailoverConfig()
        self._elect = elect
        self._leader_id = leader_id
        self._leader_addr = leader_addr
        if not pipeline.is_replica:
            self._leader_id = node_id
            self._leader_addr = self_addr
        # The pipeline fences at its last *established* epoch; the store
        # may run ahead of it by unresolved votes.
        if self._store.epoch > pipeline.epoch and not pipeline.is_replica:
            pipeline.epoch = self._store.epoch
        self.follower: Optional[FollowerService] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._candidate = False
        self._next_election_at = 0.0
        self._poll_rotation = 0
        # Counters + instrumentation (the MTTR bench reads these).
        self.elections_started = 0
        self.elections_won = 0
        self.votes_granted = 0
        self.demotions = 0
        self.announcements_rejected = 0
        self.last_detection_at: Optional[float] = None
        self.promoted_at: Optional[float] = None

    # -- introspection ---------------------------------------------------------

    @property
    def node_id(self) -> str:
        return self._node_id

    @property
    def epoch(self) -> int:
        return self._store.epoch

    @property
    def role(self) -> str:
        if not self._pipeline.is_replica:
            return "leader"
        return "candidate" if self._candidate else "follower"

    @property
    def leader_id(self) -> Optional[str]:
        return self._leader_id

    @property
    def leader_addr(self) -> Optional[str]:
        return self._leader_addr

    def peers_payload(self) -> dict:
        """The ``REPL PEERS`` reply body: the replica set as this node
        knows it.  Clients use it to find the leader; a leader's polls
        use it to discover they have been deposed."""
        return {
            "self": self._node_id,
            "role": self.role,
            "epoch": self._store.epoch,
            "applied_seq": self._pipeline.applied_seq,
            "leader_id": self._leader_id,
            "leader_addr": self._leader_addr,
            "peers": {**self._peers, self._node_id: self._self_addr},
        }

    def status(self) -> dict:
        return {
            "node_id": self._node_id,
            "role": self.role,
            "epoch": self._store.epoch,
            "voted_for": self._store.voted_for,
            "leader_id": self._leader_id,
            "leader_addr": self._leader_addr,
            "elections_started": self.elections_started,
            "elections_won": self.elections_won,
            "votes_granted": self.votes_granted,
            "demotions": self.demotions,
        }

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "FailoverCoordinator":
        """Start the failure detector (idempotent); returns self.

        A follower with a known leader address subscribes immediately.
        """
        if self._monitor_task is not None and not self._monitor_task.done():
            return self
        if self._pipeline.is_replica and self._leader_addr is not None:
            await self._start_follower(self._leader_addr, allow_rewind=False)
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor(), name=f"repro-failover-{self._node_id}"
        )
        return self

    async def stop(self) -> None:
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._monitor_task
            self._monitor_task = None
        if self.follower is not None:
            await self.follower.stop()

    # -- vote handling (server dispatch calls these) ----------------------------

    def handle_vote_request(
        self, epoch: int, last_seq: int, candidate: str
    ) -> tuple[bool, int, Optional[str]]:
        """Decide one ``REPL ELECT`` request; returns
        ``(granted, our_epoch, leader_hint)``.

        The three-clause grant rule from the module docstring.  The
        persisted epoch/vote is written before this returns, so the
        reply the server sends is backed by durable state.
        """
        if epoch <= self._store.epoch:
            return False, self._store.epoch, self._leader_id
        if self._hears_live_leader():
            # Clause 2: a healthy cluster refuses disruption.  The hint
            # teaches a confused candidate who actually leads.
            return False, self._store.epoch, self._leader_id
        if (last_seq, candidate) < (self._pipeline.applied_seq, self._node_id):
            # Clause 3: we out-rank the candidate.  Remember the higher
            # epoch (our own next stand must clear it) but keep the vote.
            self._store.observe(epoch)
            return False, self._store.epoch, None
        if self._store.record_vote(epoch, candidate):
            self.votes_granted += 1
            return True, epoch, None
        return False, self._store.epoch, self._leader_id

    def _hears_live_leader(self) -> bool:
        if not self._pipeline.is_replica:
            # We *are* a leader — and an alive one, since we're answering
            # — unless our durability path already died underneath us.
            return self._pipeline.fault is None
        if self.follower is None:
            return False
        silence = self.follower.silence()
        return (
            self.follower.connected
            and silence is not None
            and silence < self._config.heartbeat_miss_window
        )

    async def handle_leader_announcement(
        self, epoch: int, leader_id: str, advertised_addr: str
    ) -> tuple[bool, int]:
        """Apply one ``REPL LEADER`` announcement; ``(accepted, epoch)``.

        A stale announcement is rejected (fencing the announcer: the
        ``ERR`` reply carries our higher epoch).  Accepting one while
        *we* lead means we have been deposed — demote and re-follow.
        """
        if epoch < self._store.epoch or (
            epoch == self._store.epoch
            and not self._pipeline.is_replica
            and leader_id != self._node_id
        ):
            self.announcements_rejected += 1
            return False, self._store.epoch
        if leader_id == self._node_id:
            return True, self._store.epoch
        self._store.observe(epoch, leader=leader_id)
        # Prefer our configured address for the peer (the advertised one
        # may not be routable from here — NAT, test proxies).
        addr = self._peers.get(leader_id, advertised_addr)
        changed = (
            self._leader_id != leader_id or self._leader_addr != addr
        )
        self._leader_id = leader_id
        self._leader_addr = addr
        if not self._pipeline.is_replica:
            logger.warning(
                "%s: fenced by leader %s at epoch %d; demoting",
                self._node_id, leader_id, epoch,
            )
            await self._demote_and_follow()
        elif changed or self.follower is None:
            await self._start_follower(addr, allow_rewind=True)
        return True, self._store.epoch

    # -- elections -------------------------------------------------------------

    async def run_election(self) -> bool:
        """Stand for election once; True if this node became the leader.

        Callable directly (tests, tooling) as well as from the monitor.
        """
        if not self._pipeline.is_replica:
            return True
        if self._candidate:
            return False
        self._candidate = True
        try:
            epoch = self._store.epoch + 1
            if not self._store.record_vote(epoch, self._node_id):
                return False
            self.elections_started += 1
            my_seq = self._pipeline.applied_seq
            quorum = (len(self._peers) + 1) // 2 + 1
            votes = 1  # our own, just persisted
            logger.info(
                "%s: standing for election at epoch %d (seq %d, quorum %d)",
                self._node_id, epoch, my_seq, quorum,
            )
            replies = await asyncio.gather(*(
                self._request_vote(addr, epoch, my_seq)
                for addr in self._peers.values()
            ))
            best_deny_epoch = 0
            leader_hint: Optional[str] = None
            for reply in replies:
                if reply is None:
                    continue  # peer unreachable
                granted, peer_epoch, hint = reply
                if granted:
                    votes += 1
                elif peer_epoch >= best_deny_epoch:
                    best_deny_epoch = peer_epoch
                    leader_hint = hint or leader_hint
            if votes >= quorum:
                await self._become_leader(epoch)
                return True
            # Lost.  Adopt whatever the denials taught us so the next
            # stand clears the real epoch — or so we re-follow a leader
            # we had merely lost sight of.
            self._store.observe(best_deny_epoch, leader=leader_hint)
            if leader_hint is not None and leader_hint != self._node_id:
                addr = self._peers.get(leader_hint)
                if addr is not None:
                    self._leader_id = leader_hint
                    self._leader_addr = addr
                    await self._start_follower(addr, allow_rewind=True)
            return False
        finally:
            self._candidate = False

    async def _request_vote(
        self, addr: str, epoch: int, my_seq: int
    ) -> Optional[tuple[bool, int, Optional[str]]]:
        line = protocol.encode_elect_line(epoch, my_seq, self._node_id)
        reply = await self._ask(addr, line)
        if reply is None:
            return None
        parts = reply.split()
        if len(parts) < 2 or parts[0] != "OK":
            return None
        try:
            return protocol.parse_vote_reply(parts[1:])
        except ReplicationError:
            return None

    async def _ask(self, addr: str, line: bytes) -> Optional[str]:
        """One request/one reply against a peer; None on any failure,
        an ``ERR`` answer included."""
        host, _sep, port_text = addr.rpartition(":")
        peer: Optional[ServiceClient] = None
        try:
            peer = ServiceClient(host, int(port_text))
            return await asyncio.wait_for(
                peer._request(line), self._config.rpc_timeout
            )
        except (OSError, asyncio.TimeoutError, ValueError, ServiceClosedError):
            return None
        finally:
            if peer is not None:
                peer._drop()

    async def _become_leader(self, epoch: int) -> None:
        if self.follower is not None:
            await self.follower.stop()
            self.follower = None
        self._pipeline.promote()
        self._pipeline.epoch = epoch
        self._leader_id = self._node_id
        self._leader_addr = self._self_addr
        self.elections_won += 1
        self.promoted_at = asyncio.get_running_loop().time()
        logger.warning(
            "%s: won election at epoch %d (seq %d); announcing to %d peers",
            self._node_id, epoch, self._pipeline.applied_seq, len(self._peers),
        )
        await self.announce()

    async def announce(self) -> None:
        """Broadcast ``REPL LEADER`` to every peer (best-effort)."""
        line = protocol.encode_leader_line(
            self._store.epoch, self._node_id, self._self_addr
        )
        await asyncio.gather(*(
            self._ask(addr, line) for addr in self._peers.values()
        ))

    async def force_promote(self) -> int:
        """Operator-driven promotion (the ``REPL PROMOTE`` verb).

        Bypasses the election: bumps the epoch unilaterally and
        announces.  Safe only when the operator knows the old leader is
        gone — exactly the pre-failover contract, kept for tooling and
        as the escape hatch when a quorum cannot form.  Idempotent on a
        node that already leads.
        """
        if not self._pipeline.is_replica:
            return self._pipeline.applied_seq
        self._store.observe(self._store.epoch + 1, leader=self._node_id)
        await self._become_leader(self._store.epoch)
        return self._pipeline.applied_seq

    # -- demotion --------------------------------------------------------------

    async def _demote_and_follow(self) -> None:
        self._pipeline.demote()
        self.demotions += 1
        # Let any already-queued (pre-demotion) submissions settle before
        # the new subscription can reset the timeline underneath them.
        with contextlib.suppress(Exception):
            await self._pipeline.drain()
        if self._leader_addr is not None:
            await self._start_follower(self._leader_addr, allow_rewind=True)

    async def _start_follower(self, addr: str, *, allow_rewind: bool) -> None:
        if self.follower is not None:
            await self.follower.stop()
        host, _sep, port_text = addr.rpartition(":")
        self.follower = FollowerService(
            self._pipeline, host, int(port_text),
            config=self._repl_config,
            on_epoch=lambda epoch: self._store.observe(epoch),
            allow_rewind=allow_rewind,
        )
        await self.follower.start()

    # -- the failure detector ---------------------------------------------------

    def _jittered(self, base: float) -> float:
        return base * (1.0 + self._config.jitter * random.random())

    async def _monitor(self) -> None:
        config = self._config
        loop = asyncio.get_running_loop()
        last_poll = loop.time()
        while True:
            await asyncio.sleep(self._jittered(config.check_interval))
            try:
                if not self._pipeline.is_replica:
                    if loop.time() - last_poll >= config.peer_poll_interval:
                        last_poll = loop.time()
                        await self._poll_one_peer()
                    continue
                if not self._elect or self._candidate:
                    continue
                if not self._leader_presumed_dead():
                    continue
                now = loop.time()
                if now < self._next_election_at:
                    continue
                if self.last_detection_at is None:
                    self.last_detection_at = now
                self._next_election_at = now + self._jittered(
                    config.election_backoff
                )
                await asyncio.wait_for(
                    self.run_election(), config.election_timeout
                )
            except asyncio.CancelledError:
                raise
            except asyncio.TimeoutError:
                continue
            except Exception:  # pragma: no cover - defensive
                logger.exception(
                    "%s: failure detector iteration failed", self._node_id
                )

    def _leader_presumed_dead(self) -> bool:
        if self.follower is None:
            # No subscription at all: a follower with nothing to follow
            # (bootstrap raced, or the leader address never worked).
            return self._leader_addr is None or self.follower is None
        if self.follower.exhausted:
            return True
        silence = self.follower.silence()
        if silence is None:
            # Never connected; rely on the follower's own retry budget
            # plus our miss window from coordinator start.
            return self.follower.reconnects > 0
        return silence > self._config.heartbeat_miss_window

    async def _poll_one_peer(self) -> None:
        """Leader-side stale-epoch self-check: ask one peer (round robin)
        for its view; a higher epoch *with an elected leader* means we
        were deposed while unreachable — demote and re-follow."""
        if not self._peers:
            return
        ids = sorted(self._peers)
        peer_id = ids[self._poll_rotation % len(ids)]
        self._poll_rotation += 1
        reply = await self._ask(self._peers[peer_id], b"REPL PEERS\n")
        if reply is None or not reply.startswith("OK "):
            return
        try:
            doc = protocol.parse_peers_reply(reply[3:])
        except ReplicationError:
            return
        epoch = doc["epoch"]
        if epoch <= self._store.epoch:
            return
        leader_id = doc.get("leader_id")
        leader_addr = doc.get("leader_addr")
        if (
            isinstance(leader_id, str)
            and leader_id != self._node_id
            and protocol.valid_replica_id(leader_id)
        ):
            await self.handle_leader_announcement(
                epoch, leader_id, leader_addr or ""
            )
        # A higher epoch with no elected leader fences nothing: a
        # partitioned minority inflates its persisted epoch with futile
        # candidacies it can never win, and adopting that number here
        # would demote a leader that still holds quorum — after which
        # *no one* could win (every follower still hears our heartbeats
        # and denies by the live-leader rule).  Only an actual election
        # winner deposes us, via the announcement branch above.
